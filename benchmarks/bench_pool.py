"""Worker-pool benchmark — mixed prepare+exact traffic, one vs N processes.

PR 10 adds two serving upgrades this benchmark measures together:

* ``prepare`` requests ride the cross-request scheduler as stepwise
  :class:`~repro.qsp.workflow.WorkflowRun` sessions instead of running
  inline — a light ``exact`` request admitted behind a dense ``prepare``
  no longer pays the full workflow's wall time before its own
  microseconds of search begin.
* ``serve --workers N`` puts N forked scheduler processes behind the one
  asyncio acceptor, routed least-inflight with signature affinity, each
  with its own WAL shard and periodic cross-merge of learned deltas.

Measured, on the same mixed prepare/exact burst and budgets:

* **Inline baseline** — every request through ``handle()`` in admission
  order: the FIFO line the pre-PR-10 service formed whenever a prepare
  arrived (prepare always ran inline, exact only queued behind exact).
* **Scheduled burst** — everything through ``submit()`` up front on one
  service; prepare and exact time-share expansion slices.
* **Worker pool** — the same burst through a :class:`WorkerPool`;
  aggregate throughput vs the inline line, routing/merge counters from
  the pool's own snapshot.
* **Cost identity** — every scheduled and pooled cost is asserted equal
  to the inline run's (the scheduler and the pool move work around,
  they never change results).
* **Head-of-line floor** — the light exact admitted behind the dense
  prepare must settle at least ``HEADLINE_GAIN_FLOOR``x faster than the
  FIFO wait it pays in the inline line.  This gate is CPU-count
  independent (it is about slicing, not parallelism) and is the CI
  gate on 1-CPU runners.
* **Pool throughput floor** — aggregate rows/sec at least
  ``POOL_SPEEDUP_FLOOR``x the inline line, gated only when the host
  has at least ``POOL_GATE_MIN_CPUS`` CPUs (a 1-CPU host time-slices
  the workers; the recorded ratio is still reported).

Usage::

    PYTHONPATH=src python benchmarks/bench_pool.py            # full
    PYTHONPATH=src python benchmarks/bench_pool.py --smoke    # CI gate

Results land in ``BENCH_pool.json`` at the repo root (the committed
snapshot) and ``benchmarks/results/bench_pool.txt``; both carry the
shared schema-version + regime-fingerprint stamp.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.astar import SearchConfig                      # noqa: E402
from repro.service.pool import WorkerPool                      # noqa: E402
from repro.service.server import (                             # noqa: E402
    ServiceConfig,
    SynthesisService,
)
from repro.utils.fingerprint import stamp_benchmark            # noqa: E402
from repro.utils.tables import format_table                    # noqa: E402

#: Mixed traffic, dense prepare first: under the inline line everything
#: behind the workflow pays its full wall time; under the scheduler the
#: light exact rows overtake it.  All rows settle within the shared
#: budget, so cost identity is meaningful end to end.
FULL_TRAFFIC = [
    ("prep-d52", "prepare", {"dicke": [5, 2]}),
    ("prep-w5", "prepare", {"w": 5}),
    ("ex-d42", "exact", {"dicke": [4, 2]}),
    ("prep-ghz5", "prepare", {"ghz": 5}),
    ("prep-w4", "prepare", {"w": 4}),
    ("ex-w4", "exact", {"w": 4}),
    ("ex-ghz4", "exact", {"ghz": 4}),
    ("ex-ghz3", "exact", {"ghz": 3}),
]
SMOKE_TRAFFIC = [
    ("prep-d52", "prepare", {"dicke": [5, 2]}),
    ("ex-w4", "exact", {"w": 4}),
    ("prep-w5", "prepare", {"w": 5}),
    ("ex-ghz3", "exact", {"ghz": 3}),
]

#: The head-of-line pair: the dense prepare at the head of the burst and
#: the light exact admitted last.
HEAVY_ID = "prep-d52"
LIGHT_ID = "ex-ghz3"

_MAX_NODES = 20_000
_TIME_LIMIT = 900.0

#: The light exact behind the dense prepare must settle at least this
#: much faster than its inline FIFO wait (sum of the inline latencies of
#: everything admitted before it, plus its own).  The dense prepare's
#: wall time is three orders of magnitude above the light exact's, so
#: the measured gain sits far above this floor; the gate catches a
#: regression that quietly put prepare back inline.
HEADLINE_GAIN_FLOOR = 5.0

#: Aggregate pool throughput floor vs the inline line, gated only on
#: hosts with at least this many CPUs (the workers really run in
#: parallel there; on smaller hosts the ratio is reported, not gated).
POOL_SPEEDUP_FLOOR = 2.0
POOL_GATE_MIN_CPUS = 4

FULL_WORKERS = 4
SMOKE_WORKERS = 2


def _config() -> ServiceConfig:
    # no request cache (every row must really search, or the inline
    # baseline would be a row of cache hits) and no persistence — the
    # per-worker WAL shards are exercised by the test suite; this
    # benchmark isolates scheduling and process fan-out
    return ServiceConfig(
        search=SearchConfig(max_nodes=_MAX_NODES, time_limit=_TIME_LIMIT),
        use_cache=False)


def _request(rid: str, op: str, body: dict) -> dict:
    return dict(body, id=rid, op=op)


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[idx]


def _latency_stats(latencies: dict[str, float]) -> dict:
    values = list(latencies.values())
    return {
        "p50_seconds": round(_percentile(values, 0.50), 4),
        "p95_seconds": round(_percentile(values, 0.95), 4),
        "max_seconds": round(max(values), 4),
    }


def _run_inline(traffic) -> dict:
    """The pre-PR-10 line: one request at a time, in admission order."""
    service = SynthesisService(_config())
    latencies: dict[str, float] = {}
    responses: dict[str, dict] = {}
    start = time.perf_counter()
    for rid, op, body in traffic:
        t0 = time.perf_counter()
        response = service.handle(_request(rid, op, body))
        latencies[rid] = time.perf_counter() - t0
        assert response["ok"], f"inline {rid} failed: {response}"
        responses[rid] = response
    total = time.perf_counter() - start
    return {"latencies": latencies, "responses": responses,
            "total_seconds": total}


def _drive_burst(front_end, traffic) -> dict:
    """Admit everything at t0 on any submit/scheduler surface, pump dry."""
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

    for rid, op, body in traffic:
        registered = front_end.submit(_request(rid, op, body),
                                      reply_for(rid))
        assert registered, f"{rid} was not admitted"
    while front_end.scheduler.pending:
        front_end.scheduler.run_turn()
    total = time.perf_counter() - start
    for rid, response in responses.items():
        assert response["ok"], f"burst {rid} failed: {response}"
    return {"latencies": latencies, "responses": responses,
            "order": order, "total_seconds": total}


def _run_scheduled(traffic) -> dict:
    service = SynthesisService(_config())
    result = _drive_burst(service, traffic)
    result["scheduler"] = service.scheduler.snapshot()
    return result


def _run_pool(traffic, workers: int) -> dict:
    pool = WorkerPool(_config(), workers)
    try:
        result = _drive_burst(pool, traffic)
        result["pool"] = pool.routing_snapshot()
    finally:
        summary = pool.shutdown(drain_ms=1_000.0)
    result["shutdown"] = {"drained": summary["drained"],
                          "workers": sorted(summary["workers"])}
    return result


def _assert_costs(reference: dict, candidate: dict, label: str) -> None:
    for rid, ref in reference["responses"].items():
        got = candidate["responses"][rid]
        assert got["cnot_cost"] == ref["cnot_cost"], \
            f"{rid}: {label} cost {got['cnot_cost']} != " \
            f"inline {ref['cnot_cost']}"
        flag = "optimal" if "optimal" in ref else "exact_optimal"
        assert got.get(flag) == ref.get(flag), \
            f"{rid}: {label} optimality differs"


def run_benchmark(traffic, workers: int) -> dict:
    inline = _run_inline(traffic)
    scheduled = _run_scheduled(traffic)
    pooled = _run_pool(traffic, workers)

    # acceptance property: neither the scheduler nor the pool ever
    # changes a result
    _assert_costs(inline, scheduled, "scheduled")
    _assert_costs(inline, pooled, "pooled")

    # head-of-line: the light exact overtakes the dense prepare instead
    # of queueing behind it
    order = scheduled["order"]
    assert order.index(LIGHT_ID) < order.index(HEAVY_ID), \
        f"{LIGHT_ID} settled after {HEAVY_ID} — prepare went back inline"
    ids = [rid for rid, _, _ in traffic]
    fifo_wait = sum(inline["latencies"][r]
                    for r in ids[:ids.index(LIGHT_ID) + 1])
    headline_gain = fifo_wait / max(scheduled["latencies"][LIGHT_ID],
                                    1e-9)

    cpus = os.cpu_count() or 1
    pool_speedup = inline["total_seconds"] / max(
        pooled["total_seconds"], 1e-9)

    rows = []
    for position, (rid, op, _) in enumerate(traffic):
        rows.append({
            "id": rid,
            "op": op,
            "admission_position": position,
            "cnot_cost": inline["responses"][rid]["cnot_cost"],
            "inline_seconds": round(inline["latencies"][rid], 4),
            "scheduled_seconds": round(scheduled["latencies"][rid], 4),
            "pooled_seconds": round(pooled["latencies"][rid], 4),
            "completion_position": order.index(rid),
        })
    report = {
        "metric": "mixed prepare+exact burst through the inline line, "
                  "the cross-request scheduler, and the N-process "
                  "worker pool; costs asserted identical; the light "
                  "exact behind the dense prepare must beat its inline "
                  "FIFO wait by the head-of-line floor",
        "clients": len(traffic),
        "workers": workers,
        "cpus": cpus,
        "rows": rows,
        "inline": {
            "total_seconds": round(inline["total_seconds"], 4),
            "throughput_rps": round(
                len(traffic) / inline["total_seconds"], 3),
            **_latency_stats(inline["latencies"]),
        },
        "scheduled": {
            "total_seconds": round(scheduled["total_seconds"], 4),
            "throughput_rps": round(
                len(traffic) / scheduled["total_seconds"], 3),
            **_latency_stats(scheduled["latencies"]),
            "completion_order": order,
            "scheduler": scheduled["scheduler"],
        },
        "pool": {
            "total_seconds": round(pooled["total_seconds"], 4),
            "throughput_rps": round(
                len(traffic) / pooled["total_seconds"], 3),
            **_latency_stats(pooled["latencies"]),
            "speedup_vs_inline": round(pool_speedup, 3),
            "gated": cpus >= POOL_GATE_MIN_CPUS,
            "routing": pooled["pool"],
            "shutdown": pooled["shutdown"],
        },
        "head_of_line": {
            "light_id": LIGHT_ID,
            "heavy_id": HEAVY_ID,
            "fifo_wait_seconds": round(fifo_wait, 4),
            "scheduled_latency_seconds": round(
                scheduled["latencies"][LIGHT_ID], 4),
            "gain": round(headline_gain, 3),
        },
    }
    return stamp_benchmark(
        report, SearchConfig(max_nodes=_MAX_NODES, time_limit=_TIME_LIMIT))


def render_table(report: dict) -> str:
    rows = []
    for row in report["rows"]:
        rows.append([row["id"], row["op"], row["cnot_cost"],
                     row["admission_position"],
                     row["completion_position"],
                     f"{row['inline_seconds']:.3f}",
                     f"{row['scheduled_seconds']:.3f}",
                     f"{row['pooled_seconds']:.3f}"])
    blocks = [format_table(
        ["request", "op", "cnot", "admitted", "completed", "inline s",
         "sched s", "pool s"],
        rows,
        title=f"{report['clients']}-row mixed burst: inline line vs "
              f"scheduler vs {report['workers']}-worker pool "
              f"(identical costs asserted; burst latency = admission "
              f"to reply)")]
    inline, scheduled = report["inline"], report["scheduled"]
    pool = report["pool"]
    blocks.append(
        f"inline:    {inline['total_seconds']:.3f}s total, "
        f"p95 {inline['p95_seconds']:.3f}s, "
        f"{inline['throughput_rps']:.2f} req/s\n"
        f"scheduled: {scheduled['total_seconds']:.3f}s total, "
        f"p95 {scheduled['p95_seconds']:.3f}s, "
        f"{scheduled['throughput_rps']:.2f} req/s\n"
        f"pool:      {pool['total_seconds']:.3f}s total, "
        f"p95 {pool['p95_seconds']:.3f}s, "
        f"{pool['throughput_rps']:.2f} req/s — "
        f"{pool['speedup_vs_inline']:.2f}x vs inline on "
        f"{report['cpus']} CPU(s)"
        f"{' [gated]' if pool['gated'] else ' [reported, not gated]'}")
    head = report["head_of_line"]
    blocks.append(
        f"head-of-line: {head['light_id']} (admitted last) settled in "
        f"{head['scheduled_latency_seconds']:.3f}s instead of the "
        f"{head['fifo_wait_seconds']:.3f}s inline wait behind "
        f"{head['heavy_id']} — {head['gain']:.1f}x gain")
    routing = pool["routing"]
    blocks.append(
        f"pool routing: {routing['routed']} per worker, "
        f"{routing['affinity_hits']} affinity hits, "
        f"{routing['merge_rounds']} merge round(s), "
        f"{routing['deltas_shipped']} delta(s) shipped; drained "
        f"{pool['shutdown']['drained']} in-flight at shutdown")
    return "\n\n".join(blocks)


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    traffic = SMOKE_TRAFFIC if smoke else FULL_TRAFFIC
    workers = SMOKE_WORKERS if smoke else FULL_WORKERS
    report = run_benchmark(traffic, workers)
    report["mode"] = "smoke" if smoke else "full"
    report["thresholds"] = {"head_of_line_gain": HEADLINE_GAIN_FLOOR,
                            "pool_speedup": POOL_SPEEDUP_FLOOR,
                            "pool_gate_min_cpus": POOL_GATE_MIN_CPUS}
    text = render_table(report)
    print(text)

    results_dir = REPO_ROOT / "benchmarks" / "results"
    results_dir.mkdir(exist_ok=True)
    suffix = "_smoke" if smoke else ""
    (results_dir / f"bench_pool{suffix}.txt").write_text(
        text + "\n", encoding="utf-8")
    # only the full run may refresh the committed headline snapshot
    out = (REPO_ROOT / "BENCH_pool.json" if not smoke
           else results_dir / "bench_pool_smoke.json")
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {out}")

    failed = False
    gain = report["head_of_line"]["gain"]
    if gain < HEADLINE_GAIN_FLOOR:
        print(f"FAIL: head-of-line gain {gain:.2f}x < required "
              f"{HEADLINE_GAIN_FLOOR:.1f}x", file=sys.stderr)
        failed = True
    speedup = report["pool"]["speedup_vs_inline"]
    if report["pool"]["gated"] and speedup < POOL_SPEEDUP_FLOOR:
        print(f"FAIL: pool speedup {speedup:.2f}x < required "
              f"{POOL_SPEEDUP_FLOOR:.1f}x on {report['cpus']} CPUs",
              file=sys.stderr)
        failed = True
    if failed:
        return 1
    print(f"OK: identical costs across inline/scheduled/pooled, "
          f"head-of-line gain {gain:.2f}x >= "
          f"{HEADLINE_GAIN_FLOOR:.1f}x, pool "
          f"{speedup:.2f}x vs inline on {report['cpus']} CPU(s)"
          f"{'' if report['pool']['gated'] else ' (not gated)'}")
    return 0


def test_pool_benchmark_smoke(results_emitter):
    """Pytest entry: smoke burst + the regression gates (CI satellite)."""
    report = run_benchmark(SMOKE_TRAFFIC, SMOKE_WORKERS)
    results_emitter("bench_pool_smoke", render_table(report))
    assert report["head_of_line"]["gain"] >= HEADLINE_GAIN_FLOOR
    if report["pool"]["gated"]:
        assert report["pool"]["speedup_vs_inline"] >= POOL_SPEEDUP_FLOOR


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
