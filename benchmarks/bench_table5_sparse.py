"""E6 — Table V (bottom): sparse random states, ``m = n``.

Reports m-flow / n-flow / hybrid / ours average CNOT counts and the
improvement over m-flow (the strongest sparse baseline); the paper reports
32% on average, roughly flat in ``n``.

Default ``n`` up to 14 (20 with ``REPRO_BENCH_FULL=1``, the paper's limit).
"""

from __future__ import annotations

import numpy as np
from conftest import emit, full_scale, samples

from repro.baselines.hybrid import hybrid_cnot_count
from repro.baselines.mflow import mflow_cnot_count
from repro.baselines.nflow import nflow_cnot_count
from repro.core.astar import SearchConfig
from repro.core.exact import ExactConfig
from repro.qsp.config import QSPConfig
from repro.qsp.workflow import prepare_state
from repro.states.random_states import benchmark_suite
from repro.utils.tables import format_table, geometric_mean, improvement_percent

PAPER_IMPROVEMENT = {3: 37, 4: 34, 5: 36, 6: 36, 7: 33, 8: 30, 9: 29,
                     10: 33, 11: 33, 12: 32, 13: 31, 14: 30, 15: 30,
                     16: 31, 17: 31, 18: 29, 19: 28, 20: 28}

#: The paper's own "ours" column (Table V bottom) — the direct
#: reproduction check: our workflow should land close to these.
PAPER_OURS = {3: 3, 4: 6, 5: 9, 6: 14, 7: 20, 8: 27, 9: 37, 10: 44,
              11: 54, 12: 66, 13: 78, 14: 91, 15: 106, 16: 119, 17: 139,
              18: 155, 19: 173, 20: 192}


def _bench_config() -> QSPConfig:
    return QSPConfig(
        exact=ExactConfig(
            search=SearchConfig(max_nodes=25_000, time_limit=10.0),
            verify=False),
        verify_max_qubits=8)


def test_table5_sparse(benchmark, results_emitter):
    max_n = 20 if full_scale() else 14
    config = _bench_config()
    rows = []
    ours_all = []
    mflow_all = []
    for n in range(3, max_n + 1):
        states = benchmark_suite(n, sparse=True, count=samples())
        ours = float(np.mean([prepare_state(s, config).cnot_cost
                              for s in states]))
        mflow = float(np.mean([mflow_cnot_count(s) for s in states]))
        hybrid = float(np.mean([hybrid_cnot_count(s) for s in states]))
        nflow = nflow_cnot_count(n)
        impr = improvement_percent(mflow, ours)
        ours_all.append(ours)
        mflow_all.append(mflow)
        rows.append([n, n, round(mflow, 1), nflow, round(hybrid, 1),
                     round(ours, 1), PAPER_OURS.get(n, "-"),
                     f"{impr:.0f}%", f"{PAPER_IMPROVEMENT.get(n, 0)}%"])
        assert ours <= mflow + 1e-9, \
            f"sparse n={n}: ours must not exceed m-flow"
    gm_impr = improvement_percent(geometric_mean(mflow_all),
                                  geometric_mean(ours_all))
    text = format_table(
        ["n", "m", "m-flow", "n-flow", "hybrid", "ours", "paper(ours)",
         "impr% vs m-flow", "paper impr%"], rows,
        title=f"Table V (sparse, m = n; avg of {samples()} states)")
    text += f"\n  geo-mean improvement vs m-flow: {gm_impr:.0f}% (paper: 32%)"
    text += ("\n  note: our reimplemented m-flow baseline is markedly "
             "stronger than the paper's\n  (e.g. paper m-flow at n=14: 130 "
             "vs ours above), so the improvement column\n  shrinks while "
             "the ours column itself tracks the paper's ours closely.")
    results_emitter("table5_sparse", text)

    small = benchmark_suite(8, sparse=True, count=1)[0]
    benchmark.pedantic(lambda: prepare_state(small, config).cnot_cost,
                       rounds=1, iterations=1)
