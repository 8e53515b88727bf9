"""Unit tests for the m-flow (cardinality reduction) baseline."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflow_oracle import dif_qubits_reference, merge_step_reference
from repro.baselines.mflow import (
    _merge_step,
    dif_qubits,
    mflow_cnot_count,
    mflow_reduction_moves,
    mflow_synthesize,
)
from repro.core.moves import MergeMove, apply_controlled_ry
from repro.exceptions import SynthesisError
from repro.sim.verify import prepares_state
from repro.states.families import dicke_state, ghz_state, w_state
from repro.states.qstate import QState
from repro.states.random_states import random_real_state, random_sparse_state
from repro.utils.bits import bit_of


class TestDifQubits:
    def test_isolates_exactly_two(self):
        indices = [0b000, 0b011, 0b101, 0b110]
        literals, pair = dif_qubits(indices, 3)
        selected = [i for i in indices
                    if all(bit_of(i, q, 3) == v for q, v in literals)]
        assert sorted(selected) == pair
        assert len(pair) == 2

    def test_two_indices_need_no_literals(self):
        literals, pair = dif_qubits([0b01, 0b10], 2)
        assert literals == []
        assert pair == [0b01, 0b10]

    def test_one_hot_set(self):
        # every qubit splits 1/(m-1): the (m-1) side is the literal.
        indices = [0b0001, 0b0010, 0b0100, 0b1000]
        literals, pair = dif_qubits(indices, 4)
        selected = [i for i in indices
                    if all(bit_of(i, q, 4) == v for q, v in literals)]
        assert sorted(selected) == pair

    def test_rejects_singletons(self):
        with pytest.raises(SynthesisError):
            dif_qubits([3], 2)

    @given(st.integers(0, 200))
    def test_random_sets_always_isolate(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, min(10, 1 << n) + 1))
        indices = sorted(int(i) for i in
                         rng.choice(1 << n, size=m, replace=False))
        literals, pair = dif_qubits(indices, n)
        selected = [i for i in indices
                    if all(bit_of(i, q, n) == v for q, v in literals)]
        assert sorted(selected) == pair


class TestDifQubitsOracle:
    """The NumPy ``dif_qubits`` and ``_merge_step`` against the seed's
    per-bit loop and per-CNOT chain (``tests/mflow_oracle.py``), at the
    sparse suite's shapes: n <= 20, m <= 4n."""

    @given(st.integers(1, 20), st.data(), st.booleans())
    @settings(max_examples=300)
    def test_matches_reference(self, n, data, minimize):
        m = data.draw(st.integers(2, min(4 * n, 1 << n)))
        indices = sorted(data.draw(st.sets(
            st.integers(0, (1 << n) - 1), min_size=m, max_size=m)))
        assert dif_qubits(indices, n, minimize) == \
            dif_qubits_reference(indices, n, minimize)

    @pytest.mark.parametrize("n", [3, 8, 20])
    @pytest.mark.parametrize("minimize", [False, True])
    def test_matches_reference_on_one_index_splits(self, n, minimize):
        """One-hot sets and their complements: every column splits one
        index off the bucket, the case the loop's count-1 fallback is
        written for.  The fallback is never taken (the other side of such
        a column always qualifies), and the NumPy rule agrees."""
        one_hot = [1 << (n - 1 - q) for q in range(n)]
        full = (1 << n) - 1
        for indices in (one_hot, [0] + one_hot[1:],
                        [full ^ i for i in one_hot]):
            indices = sorted(indices)
            assert dif_qubits(indices, n, minimize) == \
                dif_qubits_reference(indices, n, minimize)

    @given(st.integers(63, 100), st.data(), st.booleans())
    @settings(max_examples=40)
    def test_matches_reference_past_int64(self, n, data, minimize):
        indices = sorted(data.draw(st.sets(
            st.integers(0, (1 << n) - 1), min_size=3, max_size=12)))
        assert dif_qubits(indices, n, minimize) == \
            dif_qubits_reference(indices, n, minimize)

    @pytest.mark.parametrize("indices", [[5, 5, 5], [0, 0, 0, 0], [3]])
    def test_errors_match_reference(self, indices):
        for isolate in (dif_qubits, dif_qubits_reference):
            with pytest.raises(SynthesisError):
                isolate(indices, 4)

    def test_repeated_index_pair_matches_reference(self):
        for minimize in (False, True):
            assert dif_qubits([3, 3, 5], 4, minimize) == \
                dif_qubits_reference([3, 3, 5], 4, minimize)

    @given(st.integers(0, 10_000))
    @settings(max_examples=80)
    def test_merge_step_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 21))
        m = int(rng.integers(2, min(4 * n, 1 << n) + 1))
        idx = rng.choice(1 << n, size=m, replace=False)
        s = QState(n, {int(i): float(a)
                       for i, a in zip(idx, rng.standard_normal(m))})
        for minimize in (False, True):
            moves, after = _merge_step(s, minimize)
            ref_moves, ref_after = merge_step_reference(s, minimize)
            assert moves == ref_moves
            assert list(after._amps.items()) == \
                list(ref_after._amps.items())


class TestFoldPair:
    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=120)
    def test_equals_controlled_ry_on_gh_steps(self, seed, minimize):
        """The GH step's direct pair fold gives the state
        apply_controlled_ry gives for its merge, entry for entry and in
        the same dict order (registers past 64 qubits included)."""
        rng = np.random.default_rng(seed)
        n = int(rng.choice([int(rng.integers(2, 21)), 70]))
        m = int(rng.integers(2, min(4 * n, 1 << n) + 1))
        idx = {int(rng.integers(0, 1 << min(n, 62))) << max(0, n - 62)
               for _ in range(m)}
        if len(idx) < 2:
            idx |= {0, 1}
        amps = rng.standard_normal(len(idx))
        if rng.random() < 0.3:
            amps = np.abs(amps)  # equal signs: pairs that merge exactly
        state = QState(n, {i: float(a) for i, a in zip(sorted(idx), amps)})
        moves, folded = _merge_step(state, minimize)
        merge = moves[-1]
        assert isinstance(merge, MergeMove)
        aligned = state
        for move in moves[:-1]:
            aligned = move.apply(aligned)
        expected = apply_controlled_ry(aligned, merge.controls, merge.target,
                                       merge.theta)
        assert list(folded._amps.items()) == list(expected._amps.items())
        assert folded.cardinality == state.cardinality - 1


class TestMflow:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_prepares_sparse_states(self, n):
        s = random_sparse_state(n, seed=n)
        circuit = mflow_synthesize(s)
        assert prepares_state(circuit, s)

    def test_prepares_signed_amplitudes(self):
        s = random_real_state(4, 5, seed=17)
        assert prepares_state(mflow_synthesize(s), s)

    def test_prepares_ghz_w_dicke(self):
        for s in (ghz_state(4), w_state(4), dicke_state(4, 2)):
            assert prepares_state(mflow_synthesize(s), s)

    def test_basis_state_costs_zero(self):
        s = QState.basis(4, 0b1010)
        assert mflow_cnot_count(s) == 0

    def test_cost_matches_circuit(self):
        s = random_sparse_state(5, seed=4)
        assert mflow_cnot_count(s) == mflow_synthesize(s).cnot_cost()

    def test_cost_scales_like_mn(self):
        """O(mn) shape: sparse m-flow cost grows roughly linearly in n."""
        costs = [mflow_cnot_count(random_sparse_state(n, seed=77))
                 for n in (4, 8, 12)]
        assert costs[0] < costs[1] < costs[2]
        assert costs[2] < 40 * 12  # comfortably inside O(mn)

    def test_partial_reduction(self):
        s = random_sparse_state(6, seed=5)
        moves, reduced = mflow_reduction_moves(s, stop_cardinality=3)
        assert reduced.cardinality <= 3
        assert all(m.cost >= 0 for m in moves)

    def test_invalid_stop(self):
        with pytest.raises(SynthesisError):
            mflow_reduction_moves(w_state(3), stop_cardinality=0)

    def test_cardinality_strictly_decreases(self):
        s = random_sparse_state(5, seed=6)
        moves, reduced = mflow_reduction_moves(s)
        assert reduced.cardinality == 1
