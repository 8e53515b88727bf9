"""Service benchmark — cold vs snapshot-warm vs cache-hit, plus batch.

Measures what the service layer adds on top of in-process memory reuse
(``bench_memory.py``'s territory): everything here crosses a *process or
request boundary*.

* **Snapshot warm start.**  A cold A* family pass populates a
  :class:`~repro.core.memory.SearchMemory`; the memory is persisted to
  disk and loaded back into a *fresh* memory (a service boot), and the
  booted memory serves the family twice — the repeated-traffic regime
  the service exists for.  Reported: cold family seconds vs the booted
  service's amortized per-family seconds (snapshot load included), plus
  the first-pass and steady-state passes separately — costs asserted
  identical throughout, disk round trip included.  The first pass is
  slower than steady state because the snapshot deliberately carries no
  interning pool (per-process hashes); pass 2 onward matches the
  in-process warm numbers of ``bench_memory.py``.
* **Request cache.**  Every row is requested twice through a
  :class:`~repro.service.server.SynthesisService`; the second round hits
  the request cache, so its latency is a hash lookup + payload check.
  Reported: mean miss vs hit latency and their ratio.
* **Batch scaling.**  A repeated request stream (a few moderate Dicke
  rows, many repeats — service traffic, not one monolithic search) goes
  through :meth:`~repro.service.server.SynthesisService.run_batch_file`
  in one process and across a two-process worker pool, every service
  seeded from a snapshot of those rows (duplicates are searched once
  and fanned out).  Costs are asserted identical across worker counts
  *and* identical to a cold single-process run without any snapshot
  (the acceptance property); throughput (rows/sec) is reported per
  worker count together with the host CPU count — on a single-CPU
  container the extra worker can only add overhead, so the gate is cost
  identity, not scaling.
* **Portfolio sanity.**  On sample rows, the interleaved portfolio's
  cost is asserted no worse than the best single engine under the same
  budgets (the best-of contract).

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py            # full
    PYTHONPATH=src python benchmarks/bench_service.py --smoke    # CI gate

Results land in ``BENCH_service.json`` at the repo root (the committed
snapshot) and ``benchmarks/results/bench_service.txt``; both carry the
shared schema-version + regime-fingerprint stamp.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.astar import SearchConfig                      # noqa: E402
from repro.core.memory import SearchMemory                     # noqa: E402
from repro.exceptions import SearchBudgetExceeded              # noqa: E402
from repro.experiments.family_runner import (                  # noqa: E402
    FamilyRunConfig,
    run_family,
)
from repro.service.persistence import (                        # noqa: E402
    load_memory_snapshot,
    save_memory_snapshot,
)
from repro.service.portfolio import (                          # noqa: E402
    build_engine_run,
    default_portfolio,
    interleaved_portfolio,
)
from repro.service.server import (                             # noqa: E402
    ServiceConfig,
    SynthesisService,
)
from repro.states.families import dicke_state                  # noqa: E402
from repro.utils.fingerprint import stamp_benchmark            # noqa: E402
from repro.utils.tables import format_table                    # noqa: E402

#: (n, k, node budget) — mirrors the A* rows of bench_memory.py: small
#: rows are solved to optimality, heavy rows expand a fixed budget slice.
FULL_ROWS = [
    (3, 1, 50_000),
    (4, 1, 50_000),
    (4, 2, 100_000),
    (5, 1, 100_000),
    (5, 2, 4_000),
    (6, 2, 1_200),
    (6, 3, 700),
]

SMOKE_ROWS = [
    (4, 1, 50_000),
    (4, 2, 100_000),
    (6, 2, 250),
]

#: Batch base rows are solvable, moderate-cost targets (cost identity
#: across worker counts is the point, so every row must produce a
#: definite cost); the stream repeats them ``*_BATCH_REPEAT`` times to
#: model service traffic that sharding can actually spread out.
FULL_BATCH_ROWS = [(4, 1), (4, 2), (5, 1)]
SMOKE_BATCH_ROWS = [(3, 1), (4, 1), (4, 2)]
FULL_BATCH_REPEAT = 8
SMOKE_BATCH_REPEAT = 3
_BATCH_MAX_NODES = 50_000

WORKER_COUNTS = (1, 2)

#: Required ratios, per mode.  Real numbers sit far above these floors
#: (the full snapshot-warm speedup tracks bench_memory's in-process 3.6x
#: minus the disk round trip; a cache hit is microseconds); the gate only
#: catches a service layer that silently stopped reusing anything.
FULL_WARM_THRESHOLD = 2.0
SMOKE_WARM_THRESHOLD = 1.1
FULL_CACHE_THRESHOLD = 50.0
SMOKE_CACHE_THRESHOLD = 10.0

_TIME_LIMIT = 900.0


def _family_pass(rows, memory: SearchMemory) -> dict:
    start = time.perf_counter()
    out_rows = []
    for n, k, budget in rows:
        config = FamilyRunConfig(
            engine="astar",
            search=SearchConfig(max_nodes=budget, time_limit=_TIME_LIMIT,
                                cache_cap=1 << 24))
        report = run_family([(f"D({n},{k})", dicke_state(n, k))], config,
                            memory=memory)
        out_rows.extend(report.rows)
    return {"seconds": time.perf_counter() - start, "rows": out_rows}


#: Warm family passes served by one booted (snapshot-loaded) memory; the
#: amortized per-family time — (load + sum of passes) / passes — is the
#: steady-state cost a service pays per family of repeated traffic.
_WARM_PASSES = 2


def _bench_snapshot(rows, snapshot_path: pathlib.Path) -> dict:
    cold_memory = SearchMemory()
    cold = _family_pass(rows, cold_memory)
    save_start = time.perf_counter()
    save_memory_snapshot(cold_memory, snapshot_path)
    save_seconds = time.perf_counter() - save_start
    load_start = time.perf_counter()
    warm_memory = load_memory_snapshot(snapshot_path)
    load_seconds = time.perf_counter() - load_start
    warm_passes = [_family_pass(rows, warm_memory)
                   for _ in range(_WARM_PASSES)]
    per_row = []
    for c, *ws in zip(cold["rows"], *(w["rows"] for w in warm_passes)):
        for w in ws:
            assert c.label == w.label
            assert c.cnot_cost == w.cnot_cost, \
                f"{c.label}: cold {c.cnot_cost} != snapshot-warm " \
                f"{w.cnot_cost}"
        per_row.append({
            "label": c.label, "solved": c.solved, "cnot_cost": c.cnot_cost,
            "cold_seconds": round(c.seconds, 4),
            "warm_seconds": [round(w.seconds, 4) for w in ws],
            "warm_speedup": round(c.seconds / max(ws[-1].seconds, 1e-9), 3),
        })
    pass_seconds = [round(w["seconds"], 4) for w in warm_passes]
    amortized = (load_seconds + sum(p["seconds"] for p in warm_passes)) \
        / len(warm_passes)
    return {
        "rows": per_row,
        "cold_seconds": round(cold["seconds"], 4),
        "warm_pass_seconds": pass_seconds,
        "warm_amortized_seconds": round(amortized, 4),
        "snapshot_save_seconds": round(save_seconds, 4),
        "snapshot_load_seconds": round(load_seconds, 4),
        "snapshot_bytes": snapshot_path.stat().st_size,
        "first_pass_speedup": round(
            cold["seconds"] / max(load_seconds + pass_seconds[0], 1e-9), 3),
        "steady_pass_speedup": round(
            cold["seconds"] / max(pass_seconds[-1], 1e-9), 3),
        "warm_speedup": round(cold["seconds"] / max(amortized, 1e-9), 3),
    }


def _bench_cache(batch_rows) -> dict:
    service = SynthesisService(ServiceConfig(
        search=SearchConfig(max_nodes=_BATCH_MAX_NODES,
                            time_limit=_TIME_LIMIT)))
    requests = [{"id": f"D({n},{k})", "op": "exact", "dicke": [n, k]}
                for n, k in batch_rows]
    lat = {"miss": [], "hit": []}
    costs = {}
    for label in ("miss", "hit"):
        for request in requests:
            start = time.perf_counter()
            response = service.handle(request)
            lat[label].append(time.perf_counter() - start)
            assert response["ok"], response
            assert response["cached"] == (label == "hit"), response
            prev = costs.setdefault(request["id"], response["cnot_cost"])
            assert prev == response["cnot_cost"]
    miss = sum(lat["miss"]) / len(lat["miss"])
    hit = sum(lat["hit"]) / len(lat["hit"])
    return {
        "requests": len(requests),
        "mean_miss_seconds": round(miss, 6),
        "mean_hit_seconds": round(hit, 6),
        "hit_speedup": round(miss / max(hit, 1e-9), 1),
    }


def _bench_batch(batch_rows, repeat, tmp_dir) -> dict:
    tmp_dir = pathlib.Path(tmp_dir)
    requests = [{"id": f"{i}:D({n},{k})", "dicke": [n, k]}
                for i in range(repeat) for n, k in batch_rows]
    in_path = tmp_dir / "bench_batch.jsonl"
    in_path.write_text("".join(json.dumps(r) + "\n" for r in requests),
                       encoding="utf-8")
    search = SearchConfig(max_nodes=_BATCH_MAX_NODES,
                          time_limit=_TIME_LIMIT)
    # The batch snapshot covers exactly the base rows (a family run over
    # the traffic the batch will see), so worker boots stay cheap.
    seed_memory = SearchMemory()
    for n, k in batch_rows:
        run_family([(f"D({n},{k})", dicke_state(n, k))],
                   FamilyRunConfig(engine="astar", search=search),
                   memory=seed_memory)
    snapshot_path = tmp_dir / "bench_batch.qspmem.gz"
    save_memory_snapshot(seed_memory, snapshot_path)

    def run(workers: int, snapshot) -> tuple[float, dict]:
        # a freshly booted service per run: the full production path
        service = SynthesisService(ServiceConfig(
            search=search,
            snapshot_path=None if snapshot is None else str(snapshot)))
        out_path = tmp_dir / f"bench_batch_{workers}.jsonl"
        start = time.perf_counter()
        service.run_batch_file(in_path, out_path, workers=workers)
        elapsed = time.perf_counter() - start
        rows = [json.loads(line)
                for line in out_path.read_text().splitlines()]
        assert all(row.get("ok") for row in rows), rows
        return elapsed, {row["id"]: row["cnot_cost"] for row in rows}

    # acceptance baseline: cold single process, no snapshot
    cold_seconds, baseline_costs = run(1, None)
    scaling = []
    for workers in WORKER_COUNTS:
        elapsed, costs = run(workers, snapshot_path)
        assert costs == baseline_costs, \
            f"worker count {workers} changed costs vs the cold " \
            f"single-process run"
        scaling.append({
            "workers": workers,
            "seconds": round(elapsed, 4),
            "rows_per_second": round(len(requests) / elapsed, 3),
        })
    return {"base_rows": [list(r) for r in batch_rows],
            "repeat": repeat, "requests": len(requests),
            # a pool can only beat one process when the host has cores
            # to spread across; record the truth so the scaling numbers
            # are interpretable (a 1-CPU container shows pure overhead)
            "host_cpus": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "cold_single_process_seconds": round(cold_seconds, 4),
            "costs": {f"D({n},{k})": baseline_costs[f"0:D({n},{k})"]
                      for n, k in batch_rows},
            "scaling": scaling}


def _bench_portfolio_sanity(sample_rows) -> dict:
    """Portfolio cost must never exceed the best single engine's."""
    search = SearchConfig(max_nodes=_BATCH_MAX_NODES,
                          time_limit=_TIME_LIMIT)
    checks = []
    for n, k in sample_rows:
        state = dicke_state(n, k)
        single = {}
        for spec in default_portfolio():
            try:
                single[spec.name] = build_engine_run(
                    spec, state, search).run_to_completion().cnot_cost
            except SearchBudgetExceeded:
                continue
        outcome = interleaved_portfolio(state, search)
        assert outcome.solved
        best_single = min(single.values())
        assert outcome.result.cnot_cost <= best_single, \
            f"D({n},{k}): portfolio {outcome.result.cnot_cost} worse " \
            f"than best single engine {best_single}"
        checks.append({"label": f"D({n},{k})",
                       "portfolio": outcome.result.cnot_cost,
                       "winner": outcome.winner, "single": single})
    return {"checks": checks}


def run_benchmark(rows, batch_rows, repeat) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        snapshot_path = pathlib.Path(tmp) / "bench_service.qspmem.gz"
        snapshot = _bench_snapshot(rows, snapshot_path)
        batch = _bench_batch(batch_rows, repeat, tmp)
    cache = _bench_cache(batch_rows)
    portfolio = _bench_portfolio_sanity(batch_rows[:2])
    report = {
        "metric": "snapshot warm speedup = cold family seconds / "
                  "amortized booted-family seconds "
                  "((load + warm passes) / passes); cache hit speedup = "
                  "mean miss latency / mean hit latency",
        "snapshot": snapshot,
        "cache": cache,
        "batch": batch,
        "portfolio": portfolio,
    }
    return stamp_benchmark(report)


def render_table(report: dict) -> str:
    snap = report["snapshot"]
    rows = []
    for row in snap["rows"]:
        cost = row["cnot_cost"] if row["solved"] else "-"
        warm = row["warm_seconds"]
        rows.append([row["label"], cost, f"{row['cold_seconds']:.3f}",
                     f"{warm[0]:.3f}", f"{warm[-1]:.3f}",
                     f"{row['warm_speedup']:.2f}x"])
    passes = snap["warm_pass_seconds"]
    rows.append(["family", "-", f"{snap['cold_seconds']:.3f}",
                 f"{passes[0]:.3f}", f"{passes[-1]:.3f}",
                 f"{snap['steady_pass_speedup']:.2f}x"])
    blocks = [format_table(
        ["state", "cnot", "cold s", "warm p1 s", "warm p2 s", "speedup"],
        rows,
        title="service: cold family run vs snapshot-booted warm passes "
              "(speedup = cold / steady pass; last row = family total)")]
    blocks.append(
        f"snapshot boot: load {snap['snapshot_load_seconds']:.2f}s for "
        f"{snap['snapshot_bytes']} bytes; amortized warm speedup "
        f"{snap['warm_speedup']:.2f}x (first pass incl. load "
        f"{snap['first_pass_speedup']:.2f}x, steady "
        f"{snap['steady_pass_speedup']:.2f}x)")
    cache = report["cache"]
    blocks.append(
        f"request cache: {cache['requests']} targets, mean miss "
        f"{cache['mean_miss_seconds'] * 1e3:.2f} ms vs hit "
        f"{cache['mean_hit_seconds'] * 1e6:.0f} us "
        f"({cache['hit_speedup']:.0f}x)")
    batch = report["batch"]
    scaling = batch["scaling"]
    blocks.append(format_table(
        ["workers", "seconds", "rows/s"],
        [["cold x1", f"{batch['cold_single_process_seconds']:.3f}",
          f"{batch['requests'] / batch['cold_single_process_seconds']:.2f}"]]
        + [[s["workers"], f"{s['seconds']:.3f}",
            f"{s['rows_per_second']:.2f}"] for s in scaling],
        title=f"batch throughput, {batch['requests']} requests "
              f"({batch['repeat']}x repeated stream) over worker count "
              f"on a {batch['host_cpus']}-CPU host "
              "(snapshot-seeded services; identical costs asserted)"))
    return "\n\n".join(blocks)


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    rows = SMOKE_ROWS if smoke else FULL_ROWS
    batch_rows = SMOKE_BATCH_ROWS if smoke else FULL_BATCH_ROWS
    repeat = SMOKE_BATCH_REPEAT if smoke else FULL_BATCH_REPEAT
    warm_floor = SMOKE_WARM_THRESHOLD if smoke else FULL_WARM_THRESHOLD
    cache_floor = SMOKE_CACHE_THRESHOLD if smoke else FULL_CACHE_THRESHOLD
    report = run_benchmark(rows, batch_rows, repeat)
    report["mode"] = "smoke" if smoke else "full"
    report["thresholds"] = {"warm_speedup": warm_floor,
                            "cache_hit_speedup": cache_floor}
    text = render_table(report)
    print(text)

    results_dir = REPO_ROOT / "benchmarks" / "results"
    results_dir.mkdir(exist_ok=True)
    suffix = "_smoke" if smoke else ""
    (results_dir / f"bench_service{suffix}.txt").write_text(
        text + "\n", encoding="utf-8")
    # only the full run may refresh the committed headline snapshot
    out = (REPO_ROOT / "BENCH_service.json" if not smoke
           else results_dir / "bench_service_smoke.json")
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {out}")

    warm = report["snapshot"]["warm_speedup"]
    cache = report["cache"]["hit_speedup"]
    failed = False
    if warm < warm_floor:
        print(f"FAIL: snapshot-warm family speedup {warm:.2f}x "
              f"< required {warm_floor:.1f}x", file=sys.stderr)
        failed = True
    if cache < cache_floor:
        print(f"FAIL: cache hit speedup {cache:.1f}x "
              f"< required {cache_floor:.1f}x", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print(f"OK: snapshot-warm {warm:.2f}x >= {warm_floor:.1f}x, "
          f"cache hit {cache:.1f}x >= {cache_floor:.1f}x, batch costs "
          f"identical across worker counts")
    return 0


def test_service_benchmark_smoke(results_emitter):
    """Pytest entry: smoke rows + the regression floors (CI satellite)."""
    report = run_benchmark(SMOKE_ROWS, SMOKE_BATCH_ROWS, SMOKE_BATCH_REPEAT)
    results_emitter("bench_service_smoke", render_table(report))
    assert report["snapshot"]["warm_speedup"] >= SMOKE_WARM_THRESHOLD
    assert report["cache"]["hit_speedup"] >= SMOKE_CACHE_THRESHOLD


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
