"""Concurrent-serving benchmark — one client vs an 8-client burst.

The single-request service finishes one synthesis before starting the
next, so a burst of callers forms a FIFO line: a 2-CNOT GHZ request
stuck behind a heavy Dicke request pays the heavy request's full search
time before its own microseconds of work begin.  The cross-request
scheduler (PR 7) admits the whole burst at once and fair-shares
expansion slices across every in-flight request, so light requests
overtake heavy ones and come back in roughly their own search time.

Measured, on the same mixed light/heavy traffic and budgets:

* **Serial baseline** — every request through ``handle()`` in admission
  order (the FIFO line): per-request latency, p50/p95, throughput.
* **Concurrent burst** — every request through ``submit()`` up front,
  then the scheduler runs turns until the backlog settles: per-request
  latency (admission to reply), p50/p95, throughput, peak in-flight.
* **Cost identity** — every concurrent cost and optimality flag is
  asserted equal to the serial run's (the acceptance property: the
  scheduler moves work around, it never changes results).
* **Fairness** — the lightest request is admitted *behind* the heaviest
  one and must still settle first (no FIFO line), with its measured
  latency gain over the FIFO wait it would have paid reported per row.
* **Observability overhead** — the same burst once more with the PR-8
  observability layer enabled (metrics registry + tracer): costs again
  asserted identical, end-to-end and queue-wait p50/p95/p99 read back
  from the service's own latency histograms
  (:meth:`repro.obs.metrics.Histogram.quantile`), and the instrumented
  vs disabled wall-clock ratio gated under a lenient threshold.

Usage::

    PYTHONPATH=src python benchmarks/bench_server.py            # full
    PYTHONPATH=src python benchmarks/bench_server.py --smoke    # CI gate

Results land in ``BENCH_server.json`` at the repo root (the committed
snapshot) and ``benchmarks/results/bench_server.txt``; both carry the
shared schema-version + regime-fingerprint stamp.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.astar import SearchConfig                      # noqa: E402
from repro.obs import ObsConfig                                # noqa: E402
from repro.service.server import (                             # noqa: E402
    ServiceConfig,
    SynthesisService,
)
from repro.utils.fingerprint import stamp_benchmark            # noqa: E402
from repro.utils.tables import format_table                    # noqa: E402

#: Mixed traffic, heaviest first: under FIFO every request behind the
#: heavy head pays its full search time; under the scheduler they
#: overtake it.  All rows are solvable to proven optimality within the
#: shared budget, so cost identity is meaningful end to end.
FULL_TRAFFIC = [
    ("d52", {"dicke": [5, 2]}),
    ("d42", {"dicke": [4, 2]}),
    ("w5", {"w": 5}),
    ("ghz5", {"ghz": 5}),
    ("w4", {"w": 4}),
    ("ghz4", {"ghz": 4}),
    ("w3", {"w": 3}),
    ("ghz3", {"ghz": 3}),
]
SMOKE_TRAFFIC = [
    ("d52", {"dicke": [5, 2]}),
    ("ghz4", {"ghz": 4}),
    ("w4", {"w": 4}),
    ("ghz3", {"ghz": 3}),
]

#: The overtaking pair the fairness gate watches: the heavy head of the
#: burst and the light tail request admitted last.
HEAVY_ID = "d52"
LIGHT_ID = "ghz3"

_MAX_NODES = 20_000
_TIME_LIMIT = 900.0

#: The light tail request must come back at least this much faster than
#: the FIFO wait it would have paid (sum of the serial latencies of
#: everything admitted before it, plus its own).  The measured gains sit
#: far above this floor (the FIFO wait is dominated by the heavy head's
#: full search); the gate catches a scheduler that silently stopped
#: fair-sharing and went back to a line.
FAIRNESS_GAIN_FLOOR = 1.5

#: Instrumented-vs-disabled wall-clock ceiling for the same burst.  The
#: hooks fire at turn/settle granularity (hundreds of expansions per
#: call), so the true overhead is a few percent; the lenient ceiling
#: absorbs CI timer noise while still catching instrumentation that
#: leaked into a hot loop.
OBS_OVERHEAD_MAX = 1.5


def _service(instrumented: bool = False) -> SynthesisService:
    # no request cache (every request must really search, or the serial
    # baseline would be a row of cache hits) and no persistence — this
    # benchmark isolates the scheduling, not the disk
    return SynthesisService(ServiceConfig(
        search=SearchConfig(max_nodes=_MAX_NODES, time_limit=_TIME_LIMIT),
        use_cache=False, obs=ObsConfig.on() if instrumented else None))


def _request(rid: str, body: dict) -> dict:
    return dict(body, id=rid, op="exact")


def _percentile(latencies: list[float], q: float) -> float:
    ordered = sorted(latencies)
    idx = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[idx]


def _latency_stats(latencies: dict[str, float]) -> dict:
    values = list(latencies.values())
    return {
        "p50_seconds": round(_percentile(values, 0.50), 4),
        "p95_seconds": round(_percentile(values, 0.95), 4),
        "max_seconds": round(max(values), 4),
    }


def _run_serial(traffic) -> dict:
    """The FIFO baseline: one request at a time, in admission order."""
    service = _service()
    latencies: dict[str, float] = {}
    responses: dict[str, dict] = {}
    start = time.perf_counter()
    for rid, body in traffic:
        t0 = time.perf_counter()
        response = service.handle(_request(rid, body))
        latencies[rid] = time.perf_counter() - t0
        assert response["ok"], f"serial {rid} failed: {response}"
        responses[rid] = response
    total = time.perf_counter() - start
    return {"latencies": latencies, "responses": responses,
            "total_seconds": total}


def _histogram_quantiles(histogram) -> dict:
    """p50/p95/p99 interpolated from a service latency histogram."""
    return {f"p{tag}_seconds": round(histogram.quantile(q), 4)
            for tag, q in (("50", 0.50), ("95", 0.95), ("99", 0.99))}


def _run_concurrent(traffic, instrumented: bool = False) -> dict:
    """The burst: everything admitted at t0, scheduler runs the backlog."""
    service = _service(instrumented=instrumented)
    latencies: dict[str, float] = {}
    responses: dict[str, dict] = {}
    order: list[str] = []
    start = time.perf_counter()

    def reply_for(rid):
        def reply(response: dict) -> None:
            latencies[rid] = time.perf_counter() - start
            responses[rid] = response
            order.append(rid)
        return reply

    for rid, body in traffic:
        registered = service.submit(_request(rid, body), reply_for(rid))
        assert registered, f"{rid} was not admitted"
    while service.scheduler.pending:
        service.scheduler.run_turn()
    total = time.perf_counter() - start
    for rid, response in responses.items():
        assert response["ok"], f"concurrent {rid} failed: {response}"
    result = {"latencies": latencies, "responses": responses,
              "order": order, "total_seconds": total,
              "scheduler": service.scheduler.snapshot()}
    if instrumented:
        # latency distributions as the service itself measured them —
        # the histograms behind ``op: stats`` / ``serve --metrics``
        result["histogram_quantiles"] = {
            "e2e": _histogram_quantiles(service.obs.e2e),
            "queue_wait": _histogram_quantiles(service.obs.queue_wait),
        }
    return result


def run_benchmark(traffic) -> dict:
    serial = _run_serial(traffic)
    concurrent = _run_concurrent(traffic)
    instrumented = _run_concurrent(traffic, instrumented=True)

    # acceptance property: neither the scheduler nor the observability
    # layer ever changes a result
    for rid, _ in traffic:
        s, c = serial["responses"][rid], concurrent["responses"][rid]
        assert c["cnot_cost"] == s["cnot_cost"], \
            f"{rid}: concurrent cost {c['cnot_cost']} != " \
            f"serial {s['cnot_cost']}"
        assert c["optimal"] == s["optimal"], f"{rid}: optimality differs"
        o = instrumented["responses"][rid]
        assert o["cnot_cost"] == s["cnot_cost"], \
            f"{rid}: instrumented cost {o['cnot_cost']} != " \
            f"serial {s['cnot_cost']}"
        assert o["optimal"] == s["optimal"], \
            f"{rid}: instrumented optimality differs"

    scheduler = concurrent["scheduler"]
    assert scheduler["peak_inflight"] > 1, \
        "burst never had more than one request in flight"

    # fairness: the light tail request overtakes the heavy head instead
    # of queueing behind it
    order = concurrent["order"]
    assert order.index(LIGHT_ID) < order.index(HEAVY_ID), \
        f"{LIGHT_ID} settled after {HEAVY_ID} — the burst degenerated " \
        f"into a FIFO line"
    ids = [rid for rid, _ in traffic]
    fifo_wait = sum(serial["latencies"][r]
                    for r in ids[:ids.index(LIGHT_ID) + 1])
    fairness_gain = fifo_wait / max(concurrent["latencies"][LIGHT_ID],
                                    1e-9)

    rows = []
    for position, (rid, _) in enumerate(traffic):
        rows.append({
            "id": rid,
            "admission_position": position,
            "cnot_cost": serial["responses"][rid]["cnot_cost"],
            "optimal": serial["responses"][rid]["optimal"],
            "serial_seconds": round(serial["latencies"][rid], 4),
            "concurrent_seconds": round(concurrent["latencies"][rid], 4),
            "completion_position": order.index(rid),
        })
    report = {
        "metric": "same mixed burst through the serial handle() line vs "
                  "the cross-request scheduler; costs asserted "
                  "identical; light tail request must overtake the "
                  "heavy head (fairness)",
        "clients": len(traffic),
        "rows": rows,
        "serial": {
            "total_seconds": round(serial["total_seconds"], 4),
            "throughput_rps": round(
                len(traffic) / serial["total_seconds"], 3),
            **_latency_stats(serial["latencies"]),
        },
        "concurrent": {
            "total_seconds": round(concurrent["total_seconds"], 4),
            "throughput_rps": round(
                len(traffic) / concurrent["total_seconds"], 3),
            **_latency_stats(concurrent["latencies"]),
            "completion_order": order,
            "scheduler": scheduler,
        },
        "fairness": {
            "light_id": LIGHT_ID,
            "heavy_id": HEAVY_ID,
            "fifo_wait_seconds": round(fifo_wait, 4),
            "concurrent_latency_seconds": round(
                concurrent["latencies"][LIGHT_ID], 4),
            "gain": round(fairness_gain, 3),
        },
        "observability": {
            "disabled_total_seconds": round(
                concurrent["total_seconds"], 4),
            "instrumented_total_seconds": round(
                instrumented["total_seconds"], 4),
            "overhead_ratio": round(instrumented["total_seconds"]
                                    / concurrent["total_seconds"], 3),
            # the service's own histograms (``qsp_request_seconds`` /
            # ``qsp_queue_wait_seconds``), bucket-interpolated
            "e2e": instrumented["histogram_quantiles"]["e2e"],
            "queue_wait": instrumented["histogram_quantiles"]
            ["queue_wait"],
        },
    }
    return stamp_benchmark(
        report, SearchConfig(max_nodes=_MAX_NODES, time_limit=_TIME_LIMIT))


def render_table(report: dict) -> str:
    rows = []
    for row in report["rows"]:
        rows.append([row["id"], row["cnot_cost"],
                     row["admission_position"],
                     row["completion_position"],
                     f"{row['serial_seconds']:.3f}",
                     f"{row['concurrent_seconds']:.3f}"])
    blocks = [format_table(
        ["request", "cnot", "admitted", "completed", "serial s",
         "burst s"],
        rows,
        title=f"{report['clients']}-client burst: serial FIFO line vs "
              f"cross-request scheduler (identical costs asserted; "
              f"burst latency = admission to reply)")]
    serial, concurrent = report["serial"], report["concurrent"]
    blocks.append(
        f"serial: {serial['total_seconds']:.3f}s total, "
        f"p50 {serial['p50_seconds']:.3f}s / "
        f"p95 {serial['p95_seconds']:.3f}s, "
        f"{serial['throughput_rps']:.2f} req/s\n"
        f"burst:  {concurrent['total_seconds']:.3f}s total, "
        f"p50 {concurrent['p50_seconds']:.3f}s / "
        f"p95 {concurrent['p95_seconds']:.3f}s, "
        f"{concurrent['throughput_rps']:.2f} req/s, "
        f"peak in-flight "
        f"{concurrent['scheduler']['peak_inflight']}")
    fairness = report["fairness"]
    blocks.append(
        f"fairness: {fairness['light_id']} (admitted last) settled in "
        f"{fairness['concurrent_latency_seconds']:.3f}s instead of the "
        f"{fairness['fifo_wait_seconds']:.3f}s FIFO wait behind "
        f"{fairness['heavy_id']} — {fairness['gain']:.1f}x gain")
    obs = report["observability"]
    blocks.append(
        f"observability: instrumented burst "
        f"{obs['instrumented_total_seconds']:.3f}s vs disabled "
        f"{obs['disabled_total_seconds']:.3f}s "
        f"({obs['overhead_ratio']:.2f}x); service-measured e2e "
        f"p50 {obs['e2e']['p50_seconds']:.3f}s / "
        f"p95 {obs['e2e']['p95_seconds']:.3f}s / "
        f"p99 {obs['e2e']['p99_seconds']:.3f}s, queue wait "
        f"p50 {obs['queue_wait']['p50_seconds']:.3f}s / "
        f"p99 {obs['queue_wait']['p99_seconds']:.3f}s")
    return "\n\n".join(blocks)


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    traffic = SMOKE_TRAFFIC if smoke else FULL_TRAFFIC
    report = run_benchmark(traffic)
    report["mode"] = "smoke" if smoke else "full"
    report["thresholds"] = {"fairness_gain": FAIRNESS_GAIN_FLOOR,
                            "obs_overhead": OBS_OVERHEAD_MAX}
    text = render_table(report)
    print(text)

    results_dir = REPO_ROOT / "benchmarks" / "results"
    results_dir.mkdir(exist_ok=True)
    suffix = "_smoke" if smoke else ""
    (results_dir / f"bench_server{suffix}.txt").write_text(
        text + "\n", encoding="utf-8")
    # only the full run may refresh the committed headline snapshot
    out = (REPO_ROOT / "BENCH_server.json" if not smoke
           else results_dir / "bench_server_smoke.json")
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {out}")

    failed = False
    gain = report["fairness"]["gain"]
    if gain < FAIRNESS_GAIN_FLOOR:
        print(f"FAIL: fairness gain {gain:.2f}x < required "
              f"{FAIRNESS_GAIN_FLOOR:.1f}x", file=sys.stderr)
        failed = True
    overhead = report["observability"]["overhead_ratio"]
    if overhead > OBS_OVERHEAD_MAX:
        print(f"FAIL: observability overhead {overhead:.2f}x > allowed "
              f"{OBS_OVERHEAD_MAX:.1f}x", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print(f"OK: identical costs across {report['clients']} concurrent "
          f"requests, peak in-flight "
          f"{report['concurrent']['scheduler']['peak_inflight']}, "
          f"fairness gain {gain:.2f}x >= {FAIRNESS_GAIN_FLOOR:.1f}x, "
          f"obs overhead {overhead:.2f}x <= {OBS_OVERHEAD_MAX:.1f}x")
    return 0


def test_server_benchmark_smoke(results_emitter):
    """Pytest entry: smoke burst + the regression gates (CI satellite)."""
    report = run_benchmark(SMOKE_TRAFFIC)
    results_emitter("bench_server_smoke", render_table(report))
    assert report["fairness"]["gain"] >= FAIRNESS_GAIN_FLOOR
    assert report["observability"]["overhead_ratio"] <= OBS_OVERHEAD_MAX


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
