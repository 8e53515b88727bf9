"""E5 — Table V (top): dense random states, ``m = 2**(n-1)``.

For each ``n``, samples ``REPRO_SAMPLES`` random uniform dense states and
reports the average CNOT count of m-flow, n-flow, hybrid, and our workflow,
plus the improvement over n-flow (the strongest dense baseline) — the shape
the paper reports (9% average, shrinking with ``n``).

The quadratic-cost baselines (m-flow, hybrid) are capped at ``n <= 8`` by
default (the paper itself marks m-flow TLE at n >= 17); ``n`` ranges to 10
by default and 14 with ``REPRO_BENCH_FULL=1``.
"""

from __future__ import annotations

import numpy as np
from conftest import emit, full_scale, samples

from repro.baselines.hybrid import hybrid_cnot_count
from repro.baselines.mflow import mflow_cnot_count
from repro.baselines.nflow import nflow_cnot_count
from repro.core.astar import SearchConfig
from repro.core.beam import BeamConfig
from repro.core.exact import ExactConfig
from repro.qsp.config import QSPConfig
from repro.qsp.workflow import prepare_state
from repro.states.random_states import benchmark_suite
from repro.utils.tables import format_table, improvement_percent

PAPER_IMPROVEMENT = {3: 17, 4: 36, 5: 3, 6: 10, 7: 11, 8: 11, 9: 5, 10: 6,
                     11: 11, 12: 6, 13: 5, 14: 5}

#: The paper's own "ours" column (Table V top) — the direct reproduction
#: check for the dense workflow.
PAPER_OURS = {3: 5, 4: 9, 5: 29, 6: 56, 7: 112, 8: 226, 9: 484, 10: 962,
              11: 1812, 12: 3846, 13: 7746, 14: 15630}

_SLOW_BASELINE_MAX_N = 8


def _bench_config() -> QSPConfig:
    return QSPConfig(
        exact=ExactConfig(
            search=SearchConfig(max_nodes=25_000, time_limit=10.0),
            beam=BeamConfig(width=96, time_limit=6.0),
            verify=False),
        verify_max_qubits=8)


def test_table5_dense(benchmark, results_emitter):
    max_n = 14 if full_scale() else 10
    config = _bench_config()
    rows = []
    for n in range(3, max_n + 1):
        states = benchmark_suite(n, sparse=False, count=samples())
        ours = float(np.mean([prepare_state(s, config).cnot_cost
                              for s in states]))
        nflow = nflow_cnot_count(n)
        if n <= _SLOW_BASELINE_MAX_N:
            mflow = float(np.mean([mflow_cnot_count(s) for s in states]))
            hybrid = float(np.mean([hybrid_cnot_count(s) for s in states]))
        else:
            mflow = hybrid = float("nan")
        impr = improvement_percent(nflow, ours)
        rows.append([n, 1 << (n - 1),
                     round(mflow, 1) if mflow == mflow else "TLE",
                     nflow,
                     round(hybrid, 1) if hybrid == hybrid else "TLE",
                     round(ours, 1), PAPER_OURS.get(n, "-"),
                     f"{impr:.0f}%", f"{PAPER_IMPROVEMENT.get(n, 0)}%"])
        assert ours <= nflow, f"dense n={n}: ours must not exceed n-flow"
    results_emitter("table5_dense", format_table(
        ["n", "m", "m-flow", "n-flow", "hybrid", "ours", "paper(ours)",
         "impr% vs n-flow", "paper impr%"], rows,
        title=f"Table V (dense, m = 2^(n-1); avg of {samples()} states)"))

    small = benchmark_suite(5, sparse=False, count=1)[0]
    benchmark.pedantic(lambda: prepare_state(small, config).cnot_cost,
                       rounds=1, iterations=1)
