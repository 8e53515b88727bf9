"""Kernel benchmark — nodes/sec of the packed A* hot path, three ways.

Runs the same A* configuration through three engines on the Dicke
benchmark family (the rows of Table IV) and reports search throughput:

* ``fastcore`` — the packed kernel with the native ``_fastcore`` C
  extension driving the hot loop (orbit hash, merge lattice walk, batched
  CX expansion, native hash containers);
* ``kernel`` — the same packed kernel forced onto its pure-Python
  reference paths (``fastcore.set_enabled(False)``);
* ``legacy`` — the dict-based seed loop, kept as the test oracle
  ``tests/astar_oracle.py``.

``nodes/sec`` = expanded nodes per second of search time — the standard
search-throughput metric, and the only one defined identically across
engines (the kernel's lazy duplicate detection generates more frontier
entries per expansion by design, so generated-node counts are not
comparable to the legacy engine).  The fastcore and kernel paths are
bit-identical by construction, so for them costs, expansion counts *and*
generated counts are asserted equal on every row; kernel vs legacy
asserts identical CNOT costs and optimality flags on every row both
solve.

Rows that no budget can prove optimal are run under a fixed node budget
so all engines do exactly comparable work.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py            # full rows
    PYTHONPATH=src python benchmarks/bench_kernel.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/bench_kernel.py --profile  # + phase
        breakdown of the hot loop (enumeration / canonicalization /
        hashing / heuristic / containers) for both A* kernel paths and
        the IDA* and beam engines

Results land in ``BENCH_kernel.json`` at the repo root (the committed
snapshot) and ``benchmarks/results/bench_kernel.txt``.
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
if str(REPO_ROOT / "tests") not in sys.path:
    sys.path.append(str(REPO_ROOT / "tests"))

from astar_oracle import astar_reference                 # noqa: E402
from repro.core import fastcore                           # noqa: E402
from repro.core.astar import SearchConfig, astar_search  # noqa: E402
from repro.exceptions import SearchBudgetExceeded        # noqa: E402
from repro.states.families import dicke_state            # noqa: E402
from repro.utils.fingerprint import stamp_benchmark      # noqa: E402
from repro.utils.tables import format_table              # noqa: E402

#: (n, k, node budget) — budgets chosen so the small rows are solved to
#: proven optimality and the heavy rows do a fixed, comparable slice of work.
FULL_ROWS = [
    (3, 1, 50_000),
    (4, 1, 50_000),
    (4, 2, 100_000),
    (5, 1, 100_000),
    (5, 2, 4_000),
    (6, 1, 200_000),
    (6, 2, 1_200),
    (6, 3, 700),
]

SMOKE_ROWS = [
    (4, 1, 50_000),
    (4, 2, 100_000),
    (5, 1, 100_000),
    (6, 2, 250),
]

#: Acceptance thresholds on the kernel-vs-legacy family-throughput speedup.
FULL_THRESHOLD = 3.0
SMOKE_THRESHOLD = 1.2

#: Acceptance thresholds on the fastcore-vs-python-kernel family speedup
#: (the ISSUE 6 gate); only enforced when the extension is available.
FASTCORE_FULL_THRESHOLD = 3.0
FASTCORE_SMOKE_THRESHOLD = 1.3

_TIME_LIMIT = 900.0

#: engine tag -> (A* implementation, fastcore_enabled)
ENGINES = {
    "fastcore": (astar_search, True),
    "kernel": (astar_search, False),
    "legacy": (astar_reference, False),
}


def _run(n: int, k: int, budget: int, engine: str,
         profile: bool = False) -> dict:
    search, fc_enabled = ENGINES[engine]
    fastcore.set_enabled(fc_enabled)
    try:
        # cache_cap large enough that no engine ever evicts on these rows:
        # the differential must measure engine speed, not eviction thrash
        config = SearchConfig(max_nodes=budget, time_limit=_TIME_LIMIT,
                              cache_cap=1 << 24, profile=profile)
        target = dicke_state(n, k)
        start = time.perf_counter()
        try:
            result = search(target, config)
            stats = result.stats
            outcome = {"solved": True, "cnot_cost": result.cnot_cost,
                       "optimal": result.optimal}
        except SearchBudgetExceeded as exc:
            stats = exc.stats  # real counters — a timeout expands < budget
            outcome = {"solved": False, "cnot_cost": None, "optimal": None,
                       "lower_bound": exc.lower_bound}
        elapsed = time.perf_counter() - start
    finally:
        fastcore.set_enabled(True)
    if stats is not None:
        nodes = max(1, stats.nodes_expanded)
        outcome.update({
            "nodes_expanded": stats.nodes_expanded,
            "nodes_generated": stats.nodes_generated,
            "canon_cache_hit_rate": round(stats.canon_cache_hit_rate, 4),
        })
        if profile and stats.phase_seconds:
            outcome["phase_seconds"] = {
                name: round(seconds, 4)
                for name, seconds in sorted(stats.phase_seconds.items())}
    else:  # engine provided no counters: assume the node budget was done
        nodes = budget
        outcome.update({"nodes_expanded": budget, "nodes_generated": None})
    outcome["elapsed_seconds"] = round(elapsed, 4)
    outcome["nodes"] = nodes
    outcome["nodes_per_second"] = round(nodes / elapsed, 1)
    return outcome


def run_benchmark(rows: list[tuple[int, int, int]]) -> dict:
    with_fastcore = fastcore.available()
    engines = ["fastcore", "kernel", "legacy"] if with_fastcore \
        else ["kernel", "legacy"]
    results = []
    totals = {engine: {"nodes": 0, "seconds": 0.0} for engine in engines}
    for n, k, budget in rows:
        row: dict = {"n": n, "k": k, "budget": budget}
        for engine in engines:
            outcome = _run(n, k, budget, engine)
            row[engine] = outcome
            totals[engine]["nodes"] += outcome["nodes"]
            totals[engine]["seconds"] += outcome["elapsed_seconds"]
        kernel, legacy = row["kernel"], row["legacy"]
        if kernel["solved"] and legacy["solved"]:
            assert kernel["cnot_cost"] == legacy["cnot_cost"], \
                f"D({n},{k}): kernel {kernel['cnot_cost']} != " \
                f"legacy {legacy['cnot_cost']}"
            assert kernel["optimal"] == legacy["optimal"]
        if with_fastcore:
            fc = row["fastcore"]
            # the native path replays the Python kernel bit-for-bit: every
            # comparable counter must agree exactly
            for field in ("solved", "cnot_cost", "optimal",
                          "nodes_expanded", "nodes_generated"):
                assert fc.get(field) == kernel.get(field), \
                    f"D({n},{k}) fastcore/kernel drift on {field}: " \
                    f"{fc.get(field)} != {kernel.get(field)}"
            row["fastcore_speedup"] = round(
                fc["nodes_per_second"] / kernel["nodes_per_second"], 3)
        row["nodes_per_sec_speedup"] = round(
            kernel["nodes_per_second"] / legacy["nodes_per_second"], 3)
        results.append(row)
    nps = {engine: totals[engine]["nodes"] / totals[engine]["seconds"]
           for engine in engines}
    speedups = [row["nodes_per_sec_speedup"] for row in results]
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    report = {
        "metric": "nodes/sec = expanded nodes / elapsed",
        "fastcore_available": with_fastcore,
        "fastcore_build_error": fastcore.build_error,
        "rows": results,
        "family_nodes_per_sec": {engine: round(value, 1)
                                 for engine, value in nps.items()},
        "family_throughput_speedup": round(nps["kernel"] / nps["legacy"], 3),
        "per_row_geomean_speedup": round(geomean, 3),
    }
    if with_fastcore:
        report["fastcore_family_speedup"] = round(
            nps["fastcore"] / nps["kernel"], 3)
        fc_speedups = [row["fastcore_speedup"] for row in results]
        report["fastcore_per_row_geomean_speedup"] = round(
            math.exp(sum(math.log(s) for s in fc_speedups)
                     / len(fc_speedups)), 3)
    return stamp_benchmark(report)


def _run_search_engine(n: int, k: int, budget: int,
                       search_engine: str) -> dict:
    """Profiled run of a non-A* engine (IDA* / beam) on one Dicke row."""
    from repro.core.beam import BeamConfig, beam_search
    from repro.core.idastar import IDAStarConfig, idastar_search

    target = dicke_state(n, k)
    start = time.perf_counter()
    try:
        if search_engine == "idastar":
            result = idastar_search(target, IDAStarConfig(
                search=SearchConfig(max_nodes=budget,
                                    time_limit=_TIME_LIMIT,
                                    cache_cap=1 << 24, profile=True)))
        else:
            result = beam_search(target, BeamConfig(cache_cap=1 << 24,
                                                    profile=True))
        stats = result.stats
        outcome = {"solved": True, "cnot_cost": result.cnot_cost}
    except SearchBudgetExceeded as exc:
        stats = exc.stats
        outcome = {"solved": False, "cnot_cost": None}
    elapsed = time.perf_counter() - start
    nodes = max(1, stats.nodes_expanded)
    outcome.update({
        "nodes_expanded": stats.nodes_expanded,
        "phase_seconds": {
            name: round(seconds, 4)
            for name, seconds in sorted(stats.phase_seconds.items())},
        "elapsed_seconds": round(elapsed, 4),
        "nodes_per_second": round(nodes / elapsed, 1),
    })
    return outcome


def run_profile(rows: list[tuple[int, int, int]]) -> str:
    """Phase breakdown of every profiled engine: both A* kernel paths
    plus the IDA* and beam engines (all three search cores fill
    ``SearchStats.phase_seconds``)."""
    engines = ["fastcore", "kernel"] if fastcore.available() else ["kernel"]
    lines = []
    for n, k, budget in rows:
        outcomes = [(engine, _run(n, k, budget, engine, profile=True))
                    for engine in engines]
        outcomes += [(engine, _run_search_engine(n, k, budget, engine))
                     for engine in ("idastar", "beam")]
        for engine, outcome in outcomes:
            phases = outcome.get("phase_seconds", {})
            total = max(outcome["elapsed_seconds"], 1e-9)
            parts = ", ".join(
                f"{name} {seconds:.3f}s ({seconds / total:.0%})"
                for name, seconds in sorted(phases.items(),
                                            key=lambda kv: -kv[1]))
            lines.append(
                f"D({n},{k}) {engine:>8}: {total:.3f}s total, "
                f"{outcome['nodes_per_second']:.0f} n/s | {parts}")
    return "\n".join(lines)


def render_table(report: dict) -> str:
    with_fastcore = report["fastcore_available"]
    rows = []
    for row in report["rows"]:
        kernel, legacy = row["kernel"], row["legacy"]
        cost = kernel["cnot_cost"] if kernel["solved"] else "-"
        flag = "*" if kernel.get("optimal") else ""
        line = [f"D({row['n']},{row['k']})", row["budget"], f"{cost}{flag}"]
        if with_fastcore:
            line += [f"{row['fastcore']['nodes_per_second']:.0f}"]
        line += [
            f"{kernel['nodes_per_second']:.0f}",
            f"{legacy['nodes_per_second']:.0f}",
        ]
        if with_fastcore:
            line += [f"{row['fastcore_speedup']:.2f}x"]
        line += [f"{row['nodes_per_sec_speedup']:.2f}x"]
        rows.append(line)
    family = report["family_nodes_per_sec"]
    line = ["family", "-", "-"]
    if with_fastcore:
        line += [f"{family['fastcore']:.0f}"]
    line += [f"{family['kernel']:.0f}", f"{family['legacy']:.0f}"]
    if with_fastcore:
        line += [f"{report['fastcore_family_speedup']:.2f}x"]
    line += [f"{report['family_throughput_speedup']:.2f}x"]
    rows.append(line)
    headers = ["state", "budget", "cnot"]
    if with_fastcore:
        headers += ["fastcore n/s"]
    headers += ["python n/s", "seed n/s"]
    if with_fastcore:
        headers += ["native x"]
    headers += ["kernel x"]
    text = format_table(
        headers, rows,
        title="Packed-kernel A* throughput on the Dicke family "
              "(* = proven optimal; last row = family aggregate)")
    text += (f"\n  per-row geomean kernel-vs-seed speedup: "
             f"{report['per_row_geomean_speedup']:.2f}x")
    if with_fastcore:
        text += (f"\n  per-row geomean native-vs-python speedup: "
                 f"{report['fastcore_per_row_geomean_speedup']:.2f}x")
    else:
        text += (f"\n  fastcore extension unavailable "
                 f"({report['fastcore_build_error']}); native column "
                 f"skipped")
    return text


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    rows = SMOKE_ROWS if smoke else FULL_ROWS
    threshold = SMOKE_THRESHOLD if smoke else FULL_THRESHOLD
    fc_threshold = FASTCORE_SMOKE_THRESHOLD if smoke \
        else FASTCORE_FULL_THRESHOLD
    if "--profile" in argv:
        print(run_profile(rows))
        print()
    report = run_benchmark(rows)
    report["mode"] = "smoke" if smoke else "full"
    report["threshold"] = threshold
    report["fastcore_threshold"] = fc_threshold if \
        report["fastcore_available"] else None
    text = render_table(report)
    print(text)

    results_dir = REPO_ROOT / "benchmarks" / "results"
    results_dir.mkdir(exist_ok=True)
    suffix = "_smoke" if smoke else ""
    (results_dir / f"bench_kernel{suffix}.txt").write_text(
        text + "\n", encoding="utf-8")
    # only the full run may refresh the committed headline snapshot
    out = (REPO_ROOT / "BENCH_kernel.json" if not smoke
           else results_dir / "bench_kernel_smoke.json")
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {out}")

    failed = False
    speedup = report["family_throughput_speedup"]
    if speedup < threshold:
        print(f"FAIL: family throughput speedup {speedup:.2f}x "
              f"< required {threshold:.1f}x", file=sys.stderr)
        failed = True
    else:
        print(f"OK: family throughput speedup {speedup:.2f}x "
              f">= {threshold:.1f}x")
    if report["fastcore_available"]:
        fc_speedup = report["fastcore_family_speedup"]
        if fc_speedup < fc_threshold:
            print(f"FAIL: fastcore family speedup {fc_speedup:.2f}x "
                  f"< required {fc_threshold:.1f}x", file=sys.stderr)
            failed = True
        else:
            print(f"OK: fastcore family speedup {fc_speedup:.2f}x "
                  f">= {fc_threshold:.1f}x")
    else:
        print("note: fastcore extension unavailable "
              f"({fastcore.build_error}); native gate skipped")
    return 1 if failed else 0


def test_kernel_benchmark_smoke(benchmark, results_emitter):
    """Pytest entry: smoke rows + the regression floors (CI satellite)."""
    report = run_benchmark(SMOKE_ROWS)
    results_emitter("bench_kernel_smoke", render_table(report))
    assert report["family_throughput_speedup"] >= SMOKE_THRESHOLD
    if report["fastcore_available"]:
        assert report["fastcore_family_speedup"] >= FASTCORE_SMOKE_THRESHOLD
    benchmark.pedantic(
        lambda: _run(4, 2, 100_000, engine="fastcore"
                     if fastcore.available() else "kernel")
        ["nodes_per_second"],
        rounds=1, iterations=1)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
