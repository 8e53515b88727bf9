"""Observability end-to-end smoke: serve → scrape → trace round-trip.

Boots a real ``repro-qsp serve --listen`` subprocess with the PR-8
observability surface fully armed (``--metrics`` Prometheus exposition +
``--trace`` JSONL streaming), drives a small request mix over the wire,
and asserts the whole loop closes:

* ``exact`` requests answer with correct optimal costs (and a repeat hits
  the request cache);
* ``op: stats`` carries the ``metrics`` snapshot section;
* ``op: trace`` returns ring records over the wire;
* an HTTP GET against ``--metrics`` returns the Prometheus text
  exposition with the expected request counters;
* after ``op: shutdown`` the ``--trace`` file parses as JSONL and every
  request span reconstructs balanced
  (:func:`repro.obs.trace.reconstruct_timelines`).

Usage::

    PYTHONPATH=src python benchmarks/obs_smoke.py

Runs in seconds; this is the CI ``obs-smoke`` gate, not a timing
benchmark — results land in ``benchmarks/results/obs_smoke.json``.
"""

from __future__ import annotations

import json
import os
import pathlib
import socket
import subprocess
import sys
import time
import urllib.request

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.trace import read_jsonl, reconstruct_timelines  # noqa: E402

#: (rid, request body) — w4 twice so the repeat exercises the cache path.
TRAFFIC = [
    ("w4", {"op": "exact", "w": 4}),
    ("ghz4", {"op": "exact", "ghz": 4}),
    ("w4b", {"op": "exact", "w": 4}),
]
EXPECTED_COSTS = {"w4": 7, "ghz4": 3, "w4b": 7}


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _await_port(port: int, deadline_s: float = 20.0) -> socket.socket:
    deadline = time.time() + deadline_s
    while time.time() < deadline:
        try:
            return socket.create_connection(("127.0.0.1", port),
                                            timeout=1.0)
        except OSError:
            time.sleep(0.1)
    raise RuntimeError(f"server never came up on port {port}")


def run_smoke(results_dir: pathlib.Path) -> dict:
    port, metrics_port = _free_port(), _free_port()
    results_dir.mkdir(exist_ok=True)
    trace_path = results_dir / "obs_smoke_trace.jsonl"
    if trace_path.exists():
        trace_path.unlink()
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from repro.cli import main; "
         "sys.exit(main(sys.argv[1:]))",
         "serve", "--listen", f"127.0.0.1:{port}",
         "--metrics", f"127.0.0.1:{metrics_port}",
         "--trace", str(trace_path)],
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    report: dict = {"port": port, "metrics_port": metrics_port}
    try:
        sock = _await_port(port)
        with sock, sock.makefile("r", encoding="utf-8") as lines:
            def ask(request: dict) -> dict:
                sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
                return json.loads(lines.readline())

            answers = {rid: ask(dict(body, id=rid))
                       for rid, body in TRAFFIC}
            for rid, expected in EXPECTED_COSTS.items():
                answer = answers[rid]
                assert answer["ok"], f"{rid} failed: {answer}"
                assert answer["cnot_cost"] == expected, \
                    f"{rid}: cost {answer['cnot_cost']} != {expected}"
            assert answers["w4b"]["cached"], "repeat request missed cache"

            stats = ask({"id": "stats", "op": "stats"})
            assert stats["ok"] and stats["metrics"] is not None
            requests_total = stats["metrics"]["qsp_requests_total"]
            assert requests_total["values"], "no request outcomes counted"

            trace = ask({"id": "trace", "op": "trace", "limit": 50})
            assert trace["ok"] and trace["records"], "empty trace ring"
            report["trace_emitted"] = trace["emitted"]

            # Prometheus exposition over plain HTTP
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{metrics_port}/metrics",
                    timeout=10) as response:
                assert response.status == 200
                content_type = response.headers["Content-Type"]
                assert content_type.startswith("text/plain"), content_type
                exposition = response.read().decode("utf-8")
            assert 'qsp_requests_total{op="exact",outcome="ok"} 2' \
                in exposition, "exact/ok counter missing from exposition"
            assert 'qsp_requests_total{op="exact",outcome="cached"} 1' \
                in exposition, "cached counter missing from exposition"
            assert "qsp_request_seconds_bucket" in exposition
            report["exposition_lines"] = len(exposition.splitlines())

            ask({"id": "bye", "op": "shutdown"})
        proc.wait(timeout=30)
        assert proc.returncode == 0, \
            f"server exited {proc.returncode}: {proc.stderr.read()!r}"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    # the streamed trace file must parse and reconstruct balanced
    records = read_jsonl(trace_path)
    assert records, "trace file is empty"
    timelines = reconstruct_timelines(records)
    searched = [rid for rid in ("w4", "ghz4") if rid in timelines]
    assert searched, "no request spans reached the trace file"
    for rid in searched:
        tl = timelines[rid]
        assert tl["balanced"], f"{rid} timeline is unbalanced"
        (span,) = tl["spans"]
        assert span["name"] == "request" and span["outcome"] == "ok", span
    assert timelines[None]["events"][-1]["name"] == "shutdown"
    report.update({
        "trace_records": len(records),
        "request_spans": searched,
        "costs": {rid: answers[rid]["cnot_cost"] for rid in answers},
    })
    return report


def main(argv: list[str]) -> int:
    results_dir = REPO_ROOT / "benchmarks" / "results"
    report = run_smoke(results_dir)
    report["ok"] = True
    out = results_dir / "obs_smoke.json"
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"OK: costs {report['costs']}, "
          f"{report['trace_records']} trace records "
          f"({report['trace_emitted']} emitted), "
          f"{report['exposition_lines']} exposition lines, "
          f"balanced spans for {report['request_spans']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
