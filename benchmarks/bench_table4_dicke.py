"""E4 — Table IV: CNOT counts for Dicke state preparation.

Columns: manual design (Mukherjee formula), m-flow, n-flow, hybrid
(one ancilla), and ours (exact synthesis: budgeted A*, beam fallback for
the rows the budget cannot prove).  A final row reports geometric means
and the improvement over the manual design, like the paper.

Default budgets prove optimality for (3,1), (4,1), (4,2), (5,1), (5,2) and
(6,1); the (6,2)/(6,3) rows use the anytime engine unless
``REPRO_BENCH_FULL=1`` grants them a large A* budget.
"""

from __future__ import annotations

from conftest import emit, full_scale

from repro.baselines.dicke_manual import manual_cnot_count
from repro.baselines.hybrid import hybrid_cnot_count
from repro.baselines.mflow import mflow_cnot_count
from repro.baselines.nflow import nflow_cnot_count
from repro.core.astar import SearchConfig
from repro.core.beam import BeamConfig
from repro.core.exact import ExactConfig, ExactSynthesizer
from repro.states.families import dicke_state
from repro.utils.tables import format_table, geometric_mean, improvement_percent

PAPER_OURS = {(3, 1): 4, (4, 1): 7, (4, 2): 6, (5, 1): 10, (5, 2): 16,
              (6, 1): 13, (6, 2): 22, (6, 3): 25}

#: (max_nodes, time_limit) of the optimal engine per row, default scale.
_BUDGETS = {
    (3, 1): (50_000, 30), (4, 1): (50_000, 30), (4, 2): (50_000, 60),
    (5, 1): (100_000, 90), (5, 2): (200_000, 240), (6, 1): (200_000, 180),
    (6, 2): (0, 0), (6, 3): (0, 0),  # beam-only by default
}


def _synthesize(n: int, k: int):
    max_nodes, time_limit = _BUDGETS[(n, k)]
    if full_scale():
        max_nodes, time_limit = 2_000_000, 3000
    if max_nodes == 0:
        # anytime portfolio for the rows whose optimality the default
        # budget cannot prove: best of two beam widths (wider beams need
        # longer but land materially better incumbents on these rows)
        from repro.core.beam import beam_search
        candidates = [
            beam_search(dicke_state(n, k),
                        BeamConfig(width=192, time_limit=120)),
            beam_search(dicke_state(n, k),
                        BeamConfig(width=768, time_limit=300)),
        ]
        return min(candidates, key=lambda r: r.cnot_cost)
    cfg = ExactConfig(
        search=SearchConfig(max_nodes=max_nodes, time_limit=time_limit),
        beam=BeamConfig(width=192, time_limit=120))
    return ExactSynthesizer(cfg).synthesize(dicke_state(n, k))


def test_table4_dicke(benchmark, results_emitter):
    rows = []
    cols = {"manual": [], "mflow": [], "nflow": [], "hybrid": [], "ours": []}
    for (n, k) in sorted(PAPER_OURS):
        state = dicke_state(n, k)
        manual = manual_cnot_count(n, k)
        mflow = mflow_cnot_count(state)
        nflow = nflow_cnot_count(n)
        hybrid = hybrid_cnot_count(state)
        result = _synthesize(n, k)
        ours = result.cnot_cost
        tag = "*" if result.optimal else ""
        rows.append([n, k, manual, mflow, nflow, hybrid,
                     f"{ours}{tag}", PAPER_OURS[(n, k)]])
        for name, val in (("manual", manual), ("mflow", mflow),
                          ("nflow", nflow), ("hybrid", hybrid),
                          ("ours", ours)):
            cols[name].append(val)
        # The paper's claim (automation <= manual) holds wherever the
        # search budget proves optimality; beam-only rows report the
        # best-found value honestly and may lose to the manual formula
        # (grant REPRO_BENCH_FULL=1 budgets to prove those rows too).
        if result.optimal:
            assert ours <= manual, \
                f"D({n},{k}): proven-optimal must beat manual"

    # headline: |D^2_4> halves the manual design's 12 CNOTs
    d42 = dict(zip(sorted(PAPER_OURS), cols["ours"]))[(4, 2)]
    assert d42 == 6, f"|D^2_4> must synthesize with 6 CNOTs, got {d42}"

    means = {name: geometric_mean(vals) for name, vals in cols.items()}
    rows.append(["-", "-", round(means["manual"], 1),
                 round(means["mflow"], 1), round(means["nflow"], 1),
                 round(means["hybrid"], 1), round(means["ours"], 1), 10.9])
    impr = improvement_percent(means["manual"], means["ours"])
    text = format_table(
        ["n", "k", "manual", "m-flow", "n-flow", "hybrid", "ours",
         "paper(ours)"], rows,
        title="Table IV - Dicke state CNOT counts "
              "(* = proven optimal; last row geo. mean)")
    text += (f"\n  improvement over manual design: {impr:.0f}% "
             f"(paper: 17%)")
    results_emitter("table4_dicke", text)

    benchmark.pedantic(lambda: _synthesize(4, 2).cnot_cost,
                       rounds=1, iterations=1)
