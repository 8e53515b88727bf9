"""Unit tests for the improved cardinality reduction (workflow sparse path)."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.qsp.reduction as reduction_module
from mflow_oracle import gh_reduction_reference, reduce_cardinality_reference
from repro.baselines.mflow import PackedSparse, carry, mflow_reduction_moves
from repro.core import fastcore
from repro.core.kernel import PACKED_MAX_QUBITS
from repro.core.moves import MergeMove, moves_to_circuit
from repro.exceptions import SynthesisError
from repro.qsp.config import QSPConfig
from repro.qsp.reduction import (
    GHTrajectory,
    ReductionConfig,
    reduce_cardinality,
)
from repro.sim.verify import prepares_state
from repro.states.families import dicke_state, w_state
from repro.states.qstate import QState
from repro.states.random_states import random_sparse_state, random_uniform_state


class TestReduceCardinality:
    def test_full_reduction_prepares(self):
        s = random_sparse_state(6, seed=3)
        moves, final = reduce_cardinality(s)
        circuit = moves_to_circuit(moves, final, 6)
        assert prepares_state(circuit, s)

    def test_stop_cardinality_respected(self):
        s = random_uniform_state(6, 12, seed=4)
        moves, final = reduce_cardinality(s, stop_cardinality=4)
        assert final.cardinality <= 4

    def test_stop_entangled_respected(self):
        s = random_uniform_state(7, 7, seed=5)
        from repro.states.analysis import num_entangled_qubits
        moves, final = reduce_cardinality(s, stop_cardinality=16,
                                          stop_entangled=4)
        assert num_entangled_qubits(final) <= 4

    def test_invalid_stop(self):
        with pytest.raises(SynthesisError):
            reduce_cardinality(w_state(3), stop_cardinality=0)

    def test_multi_merge_beats_gh_on_uniform_pairs(self):
        """A state with 4 simultaneously-mergeable pairs should be reduced
        with free merges, far below GH's pair-at-a-time cost."""
        s = QState.uniform(3, list(range(8)))  # |+++>: all free merges
        moves, final = reduce_cardinality(s)
        assert sum(m.cost for m in moves) == 0

    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_not_worse_than_gh_on_uniform_sparse(self, n):
        """The improvement the workflow banks on (Sec. VI-C)."""
        s = random_sparse_state(n, seed=50 + n)
        ours = sum(m.cost for m in reduce_cardinality(s)[0])
        gh = sum(m.cost for m in mflow_reduction_moves(s)[0])
        assert ours <= gh

    def test_dicke_reduction_cheaper_than_gh(self):
        s = dicke_state(5, 2)
        ours = sum(m.cost for m in reduce_cardinality(s)[0])
        gh = sum(m.cost for m in mflow_reduction_moves(s)[0])
        assert ours <= gh

    @given(st.integers(0, 60))
    def test_property_prepares_random_states(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        m = int(rng.integers(2, n + 2))
        idx = rng.choice(1 << n, size=m, replace=False)
        amps = rng.standard_normal(m)
        s = QState(n, {int(i): float(a) for i, a in zip(idx, amps)})
        moves, final = reduce_cardinality(s)
        circuit = moves_to_circuit(moves, final, n)
        assert prepares_state(circuit, s)

    def test_config_max_controls(self, monkeypatch):
        """On every state the greedy visits, the multi-pair proposal stays
        within the control cap; on this state the proposals reach it.  The
        spy wraps the dispatch that both carriers go through, and the
        greedy runs on each carrier this process has."""
        s = random_uniform_state(6, 10, seed=3)
        best_merge = reduction_module._best_merge
        proposed: list[int] = []

        def spy(current, config):
            choice = best_merge(current, config)
            if choice is not None:
                proposed.append(len(choice[0].controls))
            return choice

        monkeypatch.setattr(reduction_module, "_best_merge", spy)
        for native in (True, False) if fastcore.available() else (False,):
            with fastcore_enabled(native):
                for cap in (0, 1, 2):
                    proposed.clear()
                    reduce_cardinality(s, config=ReductionConfig(
                        max_merge_controls=cap))
                    assert proposed, (native, cap)
                    assert max(proposed) == cap


@contextmanager
def fastcore_enabled(flag: bool):
    """Run the body with the compiled path on or off, restoring it after."""
    before = fastcore.active is not None
    fastcore.set_enabled(flag)
    try:
        yield
    finally:
        fastcore.set_enabled(before)


def _suite_state(n: int, m: int, uniform: bool) -> QState:
    """A sparse-suite state: ``m`` random indices, uniform (Table V) or
    Gaussian (the served sparse suite) amplitudes."""
    rng = np.random.default_rng([n, m])
    idx = rng.choice(1 << n, size=m, replace=False)
    amps = np.ones(m) if uniform else rng.standard_normal(m)
    return QState(n, {int(i): float(a) for i, a in zip(idx, amps)})


#: the sparse suite's rows up to n = 14: m in (n, 2n, 4n), n * m < 2**n
SUITE_ROWS = [(n, m) for n in range(8, 15) for m in (n, 2 * n, 4 * n)
              if n * m < (1 << n)]


class TestReferenceParity:
    """The packed-kernel enumeration, the shared GH trajectory and the
    vectorized GH step make the seed greedy's moves, in its order."""

    @pytest.mark.parametrize("cap", [0, 1, 2])
    @pytest.mark.parametrize("uniform", [True, False],
                             ids=["uniform", "gaussian"])
    def test_moves_equal_reference_greedy(self, uniform, cap):
        config = QSPConfig()
        reduction = ReductionConfig(max_merge_controls=cap)
        for n, m in SUITE_ROWS:
            s = _suite_state(n, m, uniform)
            moves, final = reduce_cardinality(
                s, stop_cardinality=config.exact_cardinality,
                stop_entangled=config.exact_qubits, config=reduction)
            ref_moves, ref_final = reduce_cardinality_reference(
                s, stop_cardinality=config.exact_cardinality,
                stop_entangled=config.exact_qubits, config=reduction)
            assert moves == ref_moves, (n, m)
            assert final.key() == ref_final.key(), (n, m)

    def test_gh_trajectory_equals_reference_loop(self):
        config = QSPConfig()
        for n, m in SUITE_ROWS:
            s = _suite_state(n, m, uniform=False)
            gh = GHTrajectory(s, config.exact_cardinality,
                              config.exact_qubits)
            ref_moves, ref_final = gh_reduction_reference(
                s, config.exact_cardinality, config.exact_qubits)
            assert gh.moves == ref_moves, (n, m)
            assert gh.final.key() == ref_final.key(), (n, m)

    def test_shared_trajectory_changes_nothing(self):
        s = _suite_state(10, 20, uniform=True)
        gh = GHTrajectory(s, stop_cardinality=16, stop_entangled=4)
        shared = reduce_cardinality(s, stop_cardinality=16,
                                    stop_entangled=4, gh=gh)
        alone = reduce_cardinality(s, stop_cardinality=16, stop_entangled=4)
        assert shared[0] == alone[0]
        assert shared[1].key() == alone[1].key()

    def test_register_wider_than_packed_indices(self):
        """Indices past the kernel's int64 reduce on the reference
        enumeration, with the seed greedy's moves."""
        rng = np.random.default_rng(7)
        n = PACKED_MAX_QUBITS + 8
        idx = {int.from_bytes(rng.bytes(9), "big") >> (72 - n)
               for _ in range(6)}
        s = QState(n, {i: float(a) for i, a in
                       zip(sorted(idx), rng.standard_normal(len(idx)))})
        moves, final = reduce_cardinality(s, stop_cardinality=2)
        ref_moves, ref_final = reduce_cardinality_reference(
            s, stop_cardinality=2)
        assert moves == ref_moves
        assert final.key() == ref_final.key()

    def test_trajectory_of_another_request_is_rejected(self):
        s = _suite_state(10, 20, uniform=True)
        other = _suite_state(10, 40, uniform=True)
        with pytest.raises(SynthesisError):
            reduce_cardinality(s, stop_cardinality=16, stop_entangled=4,
                               gh=GHTrajectory(other, 16, 4))
        with pytest.raises(SynthesisError):
            reduce_cardinality(s, stop_cardinality=8, stop_entangled=4,
                               gh=GHTrajectory(s, 16, 4))


#: the whole sparse suite: n = 8..20, m in (n, 2n, 4n), n * m < 2**n
WIDE_ROWS = [(n, m) for n in range(8, 21) for m in (n, 2 * n, 4 * n)
             if n * m < (1 << n)]


def _bits(moves: list, final: QState) -> tuple:
    """Moves with their angles' bit patterns, and the final amplitudes'."""
    return ([(m, m.theta.hex()) if isinstance(m, MergeMove) else (m, None)
             for m in moves],
            [(i, a.hex()) for i, a in final.items()])


@pytest.mark.skipif(not fastcore.available(),
                    reason="compiled _fastcore unavailable")
class TestNativeCarrier:
    """The reduction on packed arrays (one native call per GH step and
    per greedy scoring) makes the ``QState`` twin's moves and states, bit
    for bit, in one process."""

    @staticmethod
    def _both(run) -> tuple:
        with fastcore_enabled(True):
            native = run()
        with fastcore_enabled(False):
            twin = run()
        return native, twin

    @pytest.mark.parametrize("cap", [0, 1, 2])
    @pytest.mark.parametrize("uniform", [True, False],
                             ids=["uniform", "gaussian"])
    def test_reduce_cardinality(self, uniform, cap):
        config = QSPConfig()
        reduction = ReductionConfig(max_merge_controls=cap)
        for n, m in WIDE_ROWS:
            s = _suite_state(n, m, uniform)
            for stop in ((config.exact_cardinality, config.exact_qubits),
                         (1, None)):
                native, twin = self._both(lambda: _bits(*reduce_cardinality(
                    s, *stop, config=reduction)))
                assert native == twin, (n, m, stop)

    def test_gh_trajectory_and_mflow(self):
        config = QSPConfig()
        for n, m in WIDE_ROWS:
            s = _suite_state(n, m, uniform=False)

            def run():
                gh = GHTrajectory(s, config.exact_cardinality,
                                  config.exact_qubits)
                return (_bits(gh.moves, gh.final),
                        _bits(*mflow_reduction_moves(s)),
                        _bits(*mflow_reduction_moves(s, 16, True)))

            native, twin = self._both(run)
            assert native == twin, (n, m)

    def test_uncapped_merges(self):
        """``max_merge_controls=None`` on rows small enough to walk every
        cube."""
        reduction = ReductionConfig(max_merge_controls=None)
        for n in (3, 5, 7, 9):
            for m in (n, 2 * n):
                s = _suite_state(n, min(m, (1 << n) - 1), uniform=False)
                native, twin = self._both(lambda: _bits(*reduce_cardinality(
                    s, config=reduction)))
                assert native == twin, (n, m)

    def test_carrier_choice(self):
        s = _suite_state(10, 20, uniform=False)
        with fastcore_enabled(True):
            assert isinstance(carry(s), PackedSparse)
        with fastcore_enabled(False):
            assert carry(s) is s
        assert reduce_cardinality(s, stop_cardinality=s.cardinality)[1] is s
