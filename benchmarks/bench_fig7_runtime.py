"""E8/E9 — Figure 7: CPU-time scaling on dense and sparse states.

Measures wall-clock synthesis time of n-flow, m-flow, and our workflow as
``n`` grows, separately for dense (``m = 2^(n-1)``) and sparse (``m = n``)
states.  Absolute times differ from the authors' machine; the figure's
claims to check are the *shape*: all methods scale exponentially on dense
states, our flow stays within the baselines' envelope, and sparse states
stay sub-second far beyond the dense limit.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import emit, full_scale

from repro.baselines.mflow import mflow_cnot_count
from repro.baselines.nflow import nflow_synthesize
from repro.core.astar import SearchConfig
from repro.core.beam import BeamConfig
from repro.core.exact import ExactConfig
from repro.qsp.config import QSPConfig
from repro.qsp.workflow import prepare_state
from repro.states.random_states import random_dense_state, random_sparse_state
from repro.utils.tables import format_table


def _bench_config() -> QSPConfig:
    return QSPConfig(
        exact=ExactConfig(
            search=SearchConfig(max_nodes=25_000, time_limit=10.0),
            beam=BeamConfig(width=96, time_limit=6.0),
            verify=False),
        verify_max_qubits=0)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_fig7a_dense_runtime(benchmark, results_emitter):
    max_n = 14 if full_scale() else 10
    config = _bench_config()
    rows = []
    for n in range(4, max_n + 1):
        state = random_dense_state(n, seed=n)
        t_n = _timed(lambda: nflow_synthesize(state))
        t_m = _timed(lambda: mflow_cnot_count(state)) if n <= 8 else None
        t_ours = _timed(lambda: prepare_state(state, config))
        rows.append([n, f"{t_n:.3f}",
                     f"{t_m:.3f}" if t_m is not None else "skipped",
                     f"{t_ours:.3f}"])
    results_emitter("fig7a_dense_runtime", format_table(
        ["n", "n-flow (s)", "m-flow (s)", "ours (s)"], rows,
        title="Figure 7a - CPU time, dense states (m = 2^(n-1))"))
    benchmark.pedantic(
        lambda: prepare_state(random_dense_state(6, seed=0), config),
        rounds=1, iterations=1)


def test_fig7b_sparse_runtime(benchmark, results_emitter):
    max_n = 20 if full_scale() else 14
    config = _bench_config()
    rows = []
    sparse_times = []
    for n in range(4, max_n + 1, 2):
        state = random_sparse_state(n, seed=n)
        t_n = _timed(lambda: nflow_synthesize(state)) if n <= 14 else None
        t_m = _timed(lambda: mflow_cnot_count(state))
        t_ours = _timed(lambda: prepare_state(state, config))
        sparse_times.append(t_ours)
        rows.append([n,
                     f"{t_n:.3f}" if t_n is not None else "skipped",
                     f"{t_m:.3f}", f"{t_ours:.3f}"])
    results_emitter("fig7b_sparse_runtime", format_table(
        ["n", "n-flow (s)", "m-flow (s)", "ours (s)"], rows,
        title="Figure 7b - CPU time, sparse states (m = n)"))
    benchmark.pedantic(
        lambda: prepare_state(random_sparse_state(10, seed=1), config),
        rounds=1, iterations=1)
