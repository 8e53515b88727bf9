"""The repository benchmark: state preparation served end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload prepare_dense --seed 1 \
        --seconds 30 --trace 0

Workloads (each in its own process, on the in-process service, from one
thread):

``prepare_dense``
    The paper's dense suite (uniform amplitudes over ``2**(n-1)`` random
    basis states): 24 n=4 rows and one n=5 row per 30 s, as ``op:
    prepare`` through the stdin front door (``serve_loop`` over in-memory
    streams), one caller in a closed loop.  The n=5 row spends the whole
    A* node budget before the beam answers.
``prepare_sparse``
    The paper's sparse suite (real amplitudes, m = n, 2n, 4n, n = 8..20,
    rows with n*m < 2**n), 7 states per row, same path and loop.
    Reduction-bound: the control for engine work.
``serve_mix``
    A warm restart: the service boots from a WAL sidecar, WAL records
    and a request-cache snapshot left by a fixed fixture pass, then
    serves 750 requests (Zipf-popular light ``exact`` requests, sparse
    ``prepare`` requests and 9 dense ones) through ``submit()`` and
    ``RequestScheduler.run_turn()`` with three callers.

Request states come from fixed suites that each seed orders and, where
that keeps the cost, relabels (``gen.py``).  Every run does the same work for a given seed and
``--seconds``: search budgets are node counts (no wall-clock limit, no
request deadline), the hash seed is pinned, and the native kernel is
required.  A run records
its counts (requests, expansions per engine, cache gets and puts, WAL
records, CNOTs, proven answers) in ``.bench_build/perfbench/ledger`` and
fails when a run of the same code and seed counted differently.

Every time is in host-speed-normalized seconds: raw seconds times
``calib.REFERENCE_TICK_S / mean calibration tick`` of the run.  Every
served circuit is replayed by ``check.py``; a wrong state or a wrong
``cnot_cost`` counts as a failed request.

``--trace 1`` runs the same work with per-layer wrappers installed
(``layers.py``) and reports per-layer metrics instead; spans are written
to ``.bench_build/perfbench/spans``.

The last line of standard output is the result object; the line before
it carries the raw (unnormalized) numbers and any failed requests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
STATE = ROOT / ".bench_build" / "perfbench"

#: a workload process is stopped after this long
RUN_TIMEOUT_S = 170
#: the first run in a checkout also compiles the kernel and the fixture
BUILD_TIMEOUT_S = 800

END_TO_END = {"setup_s": "s", "throughput_rps": "req/s",
              "latency_p50_s": "s", "latency_tail_s": "s",
              "cnot_total": "count", "proven_share": "ratio",
              "ok_share": "ratio", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name == "bench.trace_overhead" or name.endswith("_share"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def source_digest() -> str:
    """Hash of the program sources and the benchmark's own files."""
    digest = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*")
                   if p.suffix in (".py", ".c", ".h") and p.is_file())
    files += sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_FASTCORE_CACHE"] = str(STATE / "fastcore")
    env.pop("REPRO_NO_FASTCORE", None)
    return env


def run_child(args: list[str], timeout: float) -> None:
    """Run ``workloads.py`` with ``args``; raise on failure or timeout
    (``subprocess.run`` kills and reaps the child on timeout)."""
    proc = subprocess.run([sys.executable, str(HERE / "workloads.py"),
                           *args], env=child_env(), cwd=ROOT,
                          timeout=timeout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")


def ensure_fixture(digest: str) -> Path:
    """The serve_mix fixture of this source tree (built once)."""
    fixture = STATE / f"fixture-{digest}"
    if not (fixture / "done").exists():
        tmp = STATE / f"fixture-{digest}.tmp"
        if tmp.exists():
            for path in tmp.iterdir():
                path.unlink()
        tmp.mkdir(parents=True, exist_ok=True)
        run_child(["--make-fixture", str(tmp)], BUILD_TIMEOUT_S)
        (tmp / "done").write_text(digest)
        tmp.rename(fixture)
    return fixture


def measure(workload: str, seed: int, seconds: int, trace: bool,
            digest: str, fixture: Path) -> dict:
    tag = f"{workload}-seed{seed}-sec{seconds}"
    out = STATE / "runs" / digest / f"{tag}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
            "--fixture", str(fixture), "--out", str(out)]
    if trace:
        spans = STATE / "spans" / f"{tag}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        args += ["--spans", str(spans)]
    run_child(args, RUN_TIMEOUT_S)
    return json.loads(out.read_text())


def differences(a: dict, b: dict) -> list[str]:
    return [k for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]


def ledger_check(path: Path, entry: dict) -> list[str]:
    """Compare ``entry`` with the recorded run at ``path`` (recording it
    when there is none); return the fields that differ."""
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(entry, sort_keys=True))
        return []
    return differences(json.loads(path.read_text()), entry)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Repository benchmark (see the module docstring).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "service" / "server.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    digest = source_digest()
    tag = f"{args.workload}-seed{args.seed}-sec{args.seconds}"
    ledger = STATE / "ledger" / digest
    try:
        fixture = ensure_fixture(digest)
        summary = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace), digest, fixture)
        counts = summary["fingerprint"]
        if args.trace:
            # the same work untraced: its counts must match, and its
            # time is the base of the tracing overhead
            base_path = STATE / "runs" / digest / f"{tag}-trace0.json"
            if base_path.exists():
                base = json.loads(base_path.read_text())
            else:
                base = measure(args.workload, args.seed, args.seconds,
                               False, digest, fixture)
            bad = ledger_check(ledger / f"{tag}-trace0.json",
                               base["fingerprint"])
            bad += differences(base["fingerprint"], counts)
            layer_counts = {k: v for k, v in summary["layers"].items()
                            if layer_unit(k) == "count"}
            bad += ledger_check(ledger / f"{tag}-trace1.json", layer_counts)
            summary["layers"]["bench.trace_overhead"] = (
                summary["raw"]["timed_s"] * summary["factor"]
                / (base["raw"]["timed_s"] * base["factor"]))
        else:
            bad = ledger_check(ledger / f"{tag}-trace0.json", counts)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    if bad:
        print(f"run is not reproducible: {', '.join(bad)} differ from an "
              f"earlier run of the same code and seed", file=sys.stderr)
        return 3
    detail = {k: summary[k] for k in ("raw", "factor", "calib_tick_s",
                                      "ticks", "tail_percentile",
                                      "tail_samples", "fingerprint",
                                      "failures")}
    print(json.dumps(detail, sort_keys=True))
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in summary["layers"].items()}
    else:
        metrics = {k: {"value": summary["metrics"][k], "unit": unit}
                   for k, unit in END_TO_END.items()}
    failed = summary["failed"]
    print(json.dumps({"correct": failed == 0
                      and summary["warmup_failures"] == 0,
                      "attempted": summary["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
