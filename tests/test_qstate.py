"""Unit tests for the sparse state representation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import NormalizationError, StateError
from repro.states.qstate import QState


def random_state_strategy(max_qubits: int = 5):
    """Hypothesis strategy producing small random QStates."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_qubits))
        dim = 1 << n
        m = draw(st.integers(1, min(dim, 8)))
        indices = draw(st.lists(st.integers(0, dim - 1), min_size=m,
                                max_size=m, unique=True))
        amps = draw(st.lists(
            st.floats(min_value=-2.0, max_value=2.0,
                      allow_nan=False, allow_infinity=False)
            .filter(lambda x: abs(x) > 1e-3),
            min_size=m, max_size=m))
        return QState(n, dict(zip(indices, amps)))

    return build()


class TestConstruction:
    def test_ground(self):
        g = QState.ground(3)
        assert g.is_ground()
        assert g.cardinality == 1
        assert g.amplitude(0) == 1.0

    def test_normalization(self):
        s = QState(2, {0: 3.0, 3: 4.0})
        assert abs(s.amplitude(0) - 0.6) < 1e-12
        assert abs(s.amplitude(3) - 0.8) < 1e-12
        assert abs(s.norm() - 1.0) < 1e-12

    def test_unnormalized_rejected(self):
        with pytest.raises(NormalizationError):
            QState(2, {0: 0.5, 1: 0.5}, normalize=False)

    def test_zero_state_rejected(self):
        with pytest.raises(StateError):
            QState(2, {})
        with pytest.raises(StateError):
            QState(2, {0: 1e-15})

    def test_index_out_of_range(self):
        with pytest.raises(StateError):
            QState(2, {4: 1.0})

    def test_zero_qubits_rejected(self):
        with pytest.raises(StateError):
            QState(0, {0: 1.0})

    def test_drops_tiny_amplitudes(self):
        s = QState(2, {0: 1.0, 1: 1e-14})
        assert s.cardinality == 1

    def test_from_vector_roundtrip(self):
        s = QState(3, {1: 0.6, 5: -0.8})
        assert QState.from_vector(s.to_vector()) == s

    def test_from_vector_rejects_complex(self):
        with pytest.raises(StateError):
            QState.from_vector(np.array([1j, 0.0]))

    def test_from_vector_rejects_bad_length(self):
        with pytest.raises(StateError):
            QState.from_vector(np.array([1.0, 0.0, 0.0]))

    def test_from_bitstring_weights(self):
        s = QState.from_bitstring_weights({"01": 1.0, "10": 1.0})
        assert s.index_set == frozenset({1, 2})

    def test_from_bitstring_weights_inconsistent(self):
        with pytest.raises(StateError):
            QState.from_bitstring_weights({"01": 1.0, "100": 1.0})


class TestAccessors:
    def test_sparsity_test(self):
        # n*m < 2^n: 4 qubits, m=3 -> 12 < 16 sparse.
        assert QState.uniform(4, [0, 1, 2]).is_sparse()
        # m = 8 -> 32 >= 16 dense.
        assert not QState.uniform(4, list(range(8))).is_sparse()

    def test_cofactor_indices(self):
        s = QState.uniform(2, [0b00, 0b11])
        assert s.cofactor_indices(0, 0) == frozenset({0b00})
        assert s.cofactor_indices(0, 1) == frozenset({0b11})

    def test_cofactor_aligned_keys(self):
        s = QState.uniform(2, [0b00, 0b11])
        assert set(s.cofactor(0, 0)) == {0b00}
        assert set(s.cofactor(0, 1)) == {0b01}  # bit cleared

    def test_qubit_column(self):
        s = QState.uniform(3, [0b000, 0b011, 0b101])
        assert s.qubit_column(0) == (0, 0, 1)
        assert s.qubit_column(2) == (0, 1, 1)


class TestEquality:
    def test_eq_hash(self):
        a = QState(2, {0: 1.0, 3: 1.0})
        b = QState.uniform(2, [0, 3])
        assert a == b
        assert hash(a) == hash(b)

    def test_quantized_equality(self):
        a = QState(1, {0: 1.0, 1: 1.0})
        b = QState(1, {0: 1.0 + 1e-13, 1: 1.0})
        assert a == b

    def test_different_signs_differ(self):
        a = QState(1, {0: 1.0, 1: 1.0})
        b = QState(1, {0: 1.0, 1: -1.0})
        assert a != b

    def test_approx_equal_global_sign(self):
        a = QState(2, {0: 1.0, 3: -1.0})
        b = a.negate()
        assert a.approx_equal(b)
        assert not a.approx_equal(b, up_to_global_sign=False)


class TestTransforms:
    def test_apply_x(self):
        s = QState.uniform(3, [0b000, 0b011])
        t = s.apply_x(0)
        assert t.index_set == frozenset({0b100, 0b111})

    def test_apply_cx_permutes(self):
        s = QState.uniform(2, [0b00, 0b10])
        t = s.apply_cx(0, 1)
        assert t.index_set == frozenset({0b00, 0b11})

    def test_apply_cx_negative_control(self):
        s = QState.uniform(2, [0b00, 0b10])
        t = s.apply_cx(0, 1, phase=0)
        assert t.index_set == frozenset({0b01, 0b10})

    def test_apply_cx_same_qubit_rejected(self):
        with pytest.raises(StateError):
            QState.ground(2).apply_cx(1, 1)

    def test_permute(self):
        s = QState.uniform(3, [0b100])
        t = s.permute([2, 0, 1])
        assert t.index_set == frozenset({0b010})

    def test_permute_invalid(self):
        with pytest.raises(StateError):
            QState.ground(3).permute([0, 0, 1])

    @given(random_state_strategy())
    def test_x_involution(self, s):
        assert s.apply_x(0).apply_x(0) == s

    @given(random_state_strategy())
    def test_cx_involution(self, s):
        if s.num_qubits >= 2:
            assert s.apply_cx(0, 1).apply_cx(0, 1) == s

    @given(st.integers(0, 500))
    def test_cx_fanout_equals_cx_chain(self, seed):
        """Entry for entry and in the same order."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, min(12, 1 << n) + 1))
        idx = rng.choice(1 << n, size=m, replace=False)
        s = QState(n, {int(i): float(a)
                       for i, a in zip(idx, rng.standard_normal(m))})
        control = int(rng.integers(0, n))
        others = [q for q in range(n) if q != control]
        targets = [int(q) for q in rng.permutation(others)[
            :int(rng.integers(0, n))]]
        chain = s
        for target in targets:
            chain = chain.apply_cx(control, target)
        fanout = s.apply_cx_fanout(control, targets)
        assert list(fanout._amps.items()) == list(chain._amps.items())

    def test_cx_fanout_rejects_its_control_as_target(self):
        with pytest.raises(StateError):
            QState.ground(3).apply_cx_fanout(1, [0, 1])

    @given(random_state_strategy())
    def test_norm_preserved_by_transforms(self, s):
        assert abs(s.apply_x(0).norm() - 1.0) < 1e-9
        perm = list(range(s.num_qubits))[::-1]
        assert abs(s.permute(perm).norm() - 1.0) < 1e-9


class TestDisplay:
    def test_str_contains_bitstrings(self):
        s = QState.uniform(3, [0b101])
        assert "|101>" in str(s)

    def test_pretty_truncates(self):
        s = QState.uniform(5, list(range(20)))
        out = s.pretty(max_terms=4)
        assert "more" in out

    def test_repr(self):
        assert "n=3" in repr(QState.ground(3))
