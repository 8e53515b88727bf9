"""Portfolio benchmark — the interleaved portfolio against each lane alone.

No single lane dominates, and no static lane order avoids a blocked
line: this benchmark pins that down with a lane list that puts the
memory-light IDA* prover first, on a workload that happens to be IDA*'s
nightmare — W-state plateaus make iterative deepening re-search its
whole budget (~10 s alone) while the A* lane proves the same row in
under a second.  The interleaved portfolio time-slices all lanes in one
process: A* reaches its proof within its first slices while IDA* has
only consumed a slice or two, the proof cancels everything else, and the
request returns in roughly the prover's own time.

Measured, per row and for the family total:

* **Each lane alone vs the interleaved portfolio** on the *same* spec
  list and budgets.  The gate is the best-of contract: the portfolio's
  cost is no worse than any single lane's, and it carries the optimality
  proof.  The per-lane times show what a line that ran the lanes one
  after another would pay.
* **Deadline responsiveness**: the portfolio under a wall-clock deadline
  on a row no exact engine can finish — it must return a feasible
  (verified) circuit within the budget instead of an exception, the
  anytime contract of ``serve --deadline-ms``.

Usage::

    PYTHONPATH=src python benchmarks/bench_portfolio.py            # full
    PYTHONPATH=src python benchmarks/bench_portfolio.py --smoke    # CI gate

Results land in ``BENCH_portfolio.json`` at the repo root (the committed
snapshot) and ``benchmarks/results/bench_portfolio.txt``; both carry the
shared schema-version + regime-fingerprint stamp.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.astar import SearchConfig                      # noqa: E402
from repro.exceptions import SynthesisError                    # noqa: E402
from repro.service.portfolio import (                          # noqa: E402
    EngineSpec,
    build_engine_run,
    interleaved_portfolio,
)
from repro.sim.verify import prepares_state                    # noqa: E402
from repro.states.families import dicke_state                  # noqa: E402
from repro.utils.fingerprint import stamp_benchmark            # noqa: E402
from repro.utils.tables import format_table                    # noqa: E402

#: The lane list: the memory-light IDA* prover first, then the anytime
#: beam and the A* lanes.  On the W-state headline row IDA* is
#: budget-bound (plateau re-search), so a line running the lanes in this
#: order would pay its whole budget before any other lane starts — the
#: blocked-line pathology the interleaved portfolio removes.
SPECS = (
    EngineSpec("idastar", "idastar"),
    EngineSpec("beam-wide", "beam", weight=1.5, width=512),
    EngineSpec("astar", "astar"),
    EngineSpec("astar-w2", "astar", weight=2.0),
)

#: (n, k) rows — all solvable to proven optimality by the A* lane, so
#: the portfolio must terminate on a proof.  The headline (last) row is
#: D(5,1) = W(5): IDA* exhausts the shared node budget there while A*
#: proves in a few hundred expansions.
FULL_ROWS = [(4, 1), (4, 2), (5, 1)]
SMOKE_ROWS = [(4, 2), (5, 1)]

#: Shared per-lane expansion budget: small enough that the budget-bound
#: IDA* lane stays benchmark-sized (~10 s alone), large enough that the
#: A* lane proves every row within it.
_MAX_NODES = 20_000
_TIME_LIMIT = 900.0

#: Deadline-responsiveness check: the scheduler must return a feasible
#: circuit within this wall-clock budget on a row whose exact search
#: would run for minutes, overshooting by at most the slack factor.
DEADLINE_ROW = (6, 3)
DEADLINE_MS = 500.0
DEADLINE_SLACK = 4.0  # x the budget, generous for CI jitter


def _solo(spec: EngineSpec, state, search: SearchConfig) -> dict:
    """One lane run alone to completion on the shared budgets."""
    start = time.perf_counter()
    try:
        result = build_engine_run(spec, state, search).run_to_completion()
    except SynthesisError:  # budget exhausted (or no completion tail)
        result = None
    row = {"seconds": round(time.perf_counter() - start, 4),
           "cnot_cost": None, "optimal": False}
    if result is not None:
        row.update(cnot_cost=result.cnot_cost, optimal=result.optimal)
    return row


def _bench_rows(rows) -> dict:
    search = SearchConfig(max_nodes=_MAX_NODES, time_limit=_TIME_LIMIT)
    out_rows = []
    lanes_total = il_total = 0.0
    for n, k in rows:
        state = dicke_state(n, k)
        label = f"D({n},{k})"
        lanes = {spec.name: _solo(spec, state, search) for spec in SPECS}
        start = time.perf_counter()
        interleaved = interleaved_portfolio(state, search, specs=SPECS)
        il_seconds = time.perf_counter() - start
        assert interleaved.solved, f"{label}: portfolio unsolved"
        cost = interleaved.result.cnot_cost
        for name, lane in lanes.items():
            assert lane["cnot_cost"] is None or cost <= lane["cnot_cost"], \
                f"{label}: portfolio cost {cost} > lane {name} " \
                f"{lane['cnot_cost']}"
        assert interleaved.result.optimal, f"{label}: no optimality proof"
        assert prepares_state(interleaved.result.circuit, state)
        lane_seconds = sum(lane["seconds"] for lane in lanes.values())
        lanes_total += lane_seconds
        il_total += il_seconds
        out_rows.append({
            "label": label,
            "cnot_cost": cost,
            "interleaved_seconds": round(il_seconds, 4),
            "lanes_seconds": round(lane_seconds, 4),
            "lanes": lanes,
            "interleaved_winner": interleaved.winner,
            "interleaved_statuses": {
                a["name"]: a["status"]
                for a in interleaved.attempts},
        })
    return {
        "specs": [{"name": s.name, "engine": s.engine,
                   "weight": s.weight, "width": s.width} for s in SPECS],
        "rows": out_rows,
        "lanes_total_seconds": round(lanes_total, 4),
        "interleaved_total_seconds": round(il_total, 4),
        "headline_row": out_rows[-1]["label"],
    }


def _bench_deadline() -> dict:
    n, k = DEADLINE_ROW
    state = dicke_state(n, k)
    search = SearchConfig(max_nodes=1_000_000, time_limit=_TIME_LIMIT)
    start = time.perf_counter()
    outcome = interleaved_portfolio(state, search, specs=SPECS,
                                    deadline_ms=DEADLINE_MS)
    elapsed = time.perf_counter() - start
    assert outcome.deadline_expired, "deadline did not trigger"
    assert outcome.solved, "no feasible circuit at the deadline"
    assert not outcome.result.optimal
    assert prepares_state(outcome.result.circuit, state)
    assert elapsed <= (DEADLINE_MS / 1000.0) * DEADLINE_SLACK, \
        f"deadline overshoot: {elapsed:.2f}s for a " \
        f"{DEADLINE_MS:.0f} ms budget"
    return {
        "label": f"D({n},{k})",
        "deadline_ms": DEADLINE_MS,
        "elapsed_seconds": round(elapsed, 4),
        "feasible_cnot_cost": outcome.result.cnot_cost,
        "winner": outcome.winner,
    }


def run_benchmark(rows) -> dict:
    report = {
        "metric": "interleaved portfolio cost <= every lane's cost alone "
                  "and proven optimal, same specs and budgets; seconds "
                  "reported per lane and for the portfolio",
        "portfolio": _bench_rows(rows),
        "deadline": _bench_deadline(),
    }
    return stamp_benchmark(
        report, SearchConfig(max_nodes=_MAX_NODES, time_limit=_TIME_LIMIT))


def render_table(report: dict) -> str:
    body = report["portfolio"]
    names = [spec["name"] for spec in body["specs"]]

    def lane_cell(lane: dict) -> str:
        cost = "-" if lane["cnot_cost"] is None else lane["cnot_cost"]
        return f"{cost} / {lane['seconds']:.3f}"

    rows = []
    for row in body["rows"]:
        rows.append([row["label"], row["cnot_cost"],
                     f"{row['interleaved_seconds']:.3f}",
                     *(lane_cell(row["lanes"][name]) for name in names),
                     row["interleaved_winner"]])
    rows.append(["family", "-",
                 f"{body['interleaved_total_seconds']:.3f}",
                 *("-" for _ in names), "-"])
    blocks = [format_table(
        ["state", "cnot", "portfolio s",
         *(f"{name} cnot / s" for name in names), "winner"],
        rows,
        title="portfolio: interleaved time slices vs each lane alone "
              f"(same budgets; lanes alone total "
              f"{body['lanes_total_seconds']:.3f}s; portfolio cost <= "
              "every lane, proof asserted)")]
    deadline = report["deadline"]
    blocks.append(
        f"deadline: {deadline['label']} under a "
        f"{deadline['deadline_ms']:.0f} ms budget returned a feasible "
        f"{deadline['feasible_cnot_cost']}-CNOT circuit "
        f"(verified) in {deadline['elapsed_seconds']:.3f}s "
        f"via lane '{deadline['winner']}'")
    return "\n\n".join(blocks)


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    report = run_benchmark(SMOKE_ROWS if smoke else FULL_ROWS)
    report["mode"] = "smoke" if smoke else "full"
    text = render_table(report)
    print(text)

    results_dir = REPO_ROOT / "benchmarks" / "results"
    results_dir.mkdir(exist_ok=True)
    suffix = "_smoke" if smoke else ""
    (results_dir / f"bench_portfolio{suffix}.txt").write_text(
        text + "\n", encoding="utf-8")
    # only the full run may refresh the committed headline snapshot
    out = (REPO_ROOT / "BENCH_portfolio.json" if not smoke
           else results_dir / "bench_portfolio_smoke.json")
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {out}")
    # the gates are the asserts inside run_benchmark: a violation raises
    print(f"OK: portfolio cost <= every lane alone, proven optimal on "
          f"every row; deadline returned a feasible circuit in "
          f"{report['deadline']['elapsed_seconds']:.3f}s")
    return 0


def test_portfolio_benchmark_smoke(results_emitter):
    """Pytest entry: smoke rows + the regression gates (CI satellite)."""
    report = run_benchmark(SMOKE_ROWS)
    results_emitter("bench_portfolio_smoke", render_table(report))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
