"""Unit + property tests for the statevector simulator."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits.circuit import QCircuit
from repro.exceptions import CircuitError
from repro.sim.statevector import apply_gate, simulate_circuit, simulate_to_state
from repro.states.families import ghz_state, w_state
from repro.states.qstate import QState


class TestBasics:
    def test_default_initial_is_ground(self):
        vec = simulate_circuit(QCircuit(2))
        assert vec[0] == 1.0 and np.allclose(vec[1:], 0.0)

    def test_x_flips_msb(self):
        vec = simulate_circuit(QCircuit(2).x(0))
        assert vec[0b10] == 1.0

    def test_cx_on_superposition(self):
        qc = QCircuit(2).ry(0, math.pi / 2).cx(0, 1)
        vec = simulate_circuit(qc)
        expected = np.zeros(4)
        expected[0b00] = expected[0b11] = 1 / math.sqrt(2)
        assert np.allclose(vec, expected)

    def test_negative_control(self):
        qc = QCircuit(2).cx(0, 1, phase=0)
        vec = simulate_circuit(qc)
        assert abs(vec[0b01]) == 1.0

    def test_initial_qstate(self):
        s = ghz_state(2)
        vec = simulate_circuit(QCircuit(2), initial=s)
        assert np.allclose(vec, s.to_vector())

    def test_initial_width_mismatch(self):
        with pytest.raises(CircuitError):
            simulate_circuit(QCircuit(2), initial=ghz_state(3))
        with pytest.raises(CircuitError):
            simulate_circuit(QCircuit(2), initial=np.zeros(3))

    def test_apply_gate_length_check(self):
        from repro.circuits.gates import XGate
        with pytest.raises(CircuitError):
            apply_gate(np.zeros(3, dtype=complex), XGate(target=0), 2)

    def test_complex_gate_on_real_vector_rejected(self):
        from repro.circuits.gates import RZGate
        with pytest.raises(CircuitError):
            apply_gate(np.zeros(2), RZGate(target=0, theta=0.5), 1)


class TestSimulateToState:
    def test_returns_qstate(self):
        qc = QCircuit(3).ry(0, math.pi / 2).cx(0, 1).cx(1, 2)
        state = simulate_to_state(qc)
        assert state == ghz_state(3)

    def test_rejects_complex_result(self):
        qc = QCircuit(1).ry(0, math.pi / 2).rz(0, 1.0)
        with pytest.raises(CircuitError):
            simulate_to_state(qc)


class TestUnitarity:
    @given(st.integers(0, 10_000))
    def test_norm_preserved(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        qc = QCircuit(n)
        for _ in range(8):
            kind = rng.integers(0, 3)
            q = int(rng.integers(0, n))
            if kind == 0:
                qc.ry(q, float(rng.standard_normal()))
            elif kind == 1:
                qc.rz(q, float(rng.standard_normal()))
            elif n > 1:
                t = int((q + 1 + rng.integers(0, n - 1)) % n)
                qc.cx(q, t)
        vec = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        vec /= np.linalg.norm(vec)
        out = simulate_circuit(qc, initial=vec)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)

    def test_inverse_circuit_undoes(self, rng):
        qc = QCircuit(3).ry(0, 0.3).cx(0, 1).cry(1, 2, -0.8).x(2)
        roundtrip = QCircuit(3)
        roundtrip.compose(qc)
        roundtrip.compose(qc.inverse())
        vec = rng.standard_normal(8)
        vec /= np.linalg.norm(vec)
        out = simulate_circuit(roundtrip, initial=vec.astype(complex))
        assert np.allclose(out, vec, atol=1e-9)


class TestKnownStates:
    def test_w3_preparation(self):
        # Manual W3: X, Ry, CX cascade from the baseline module.
        from repro.baselines.dicke_manual import w_state_circuit
        state = simulate_to_state(w_state_circuit(3))
        assert state.approx_equal(w_state(3))

    def test_uniform_superposition(self):
        qc = QCircuit(2).ry(0, math.pi / 2).ry(1, math.pi / 2)
        vec = simulate_circuit(qc)
        assert np.allclose(np.abs(vec) ** 2, 0.25)


def _reference_apply(vector: np.ndarray, gate, num_qubits: int) -> None:
    """The index-mask formula ``apply_gate`` replaced, in place: gather the
    pairs ``(i0, i1)`` the gate mixes with ``np.arange`` and one boolean
    mask per control, then write both rows back."""
    idx = np.arange(1 << num_qubits, dtype=np.intp)
    t_shift = num_qubits - 1 - gate.target
    sel = ((idx >> t_shift) & 1) == 0
    for q, p in gate.controls:
        sel &= ((idx >> (num_qubits - 1 - q)) & 1) == p
    i0 = idx[sel]
    i1 = i0 | (1 << t_shift)
    mat = gate.base_matrix()
    a = vector[i0]
    b = vector[i1]
    vector[i0] = mat[0, 0] * a + mat[0, 1] * b
    vector[i1] = mat[1, 0] * a + mat[1, 1] * b


def _random_gate(rng, n: int):
    """A random gate of every kind the simulator applies."""
    from repro.circuits.gates import (
        CRYGate, CRZGate, CXGate, MCRYGate, MCXGate, RYGate, RZGate, XGate)

    qubits = [int(q) for q in rng.permutation(n)]
    target, rest = qubits[0], qubits[1:]
    theta = float(rng.uniform(-math.pi, math.pi))
    phases = [int(p) for p in rng.integers(0, 2, size=len(rest))]
    kinds = ["x", "ry", "rz"] + (["cx", "cry", "crz", "mcry", "mcx"]
                                 if rest else [])
    kind = kinds[int(rng.integers(0, len(kinds)))]
    k = int(rng.integers(1, len(rest) + 1)) if rest else 0
    controls = tuple(zip(rest[:k], phases[:k]))
    if kind == "x":
        return XGate(target=target)
    if kind == "ry":
        return RYGate(target=target, theta=theta)
    if kind == "rz":
        return RZGate(target=target, theta=theta)
    if kind == "cx":
        return CXGate(target=target, controls=controls[:1])
    if kind == "cry":
        return CRYGate(target=target, controls=controls[:1], theta=theta)
    if kind == "crz":
        return CRZGate(target=target, controls=controls[:1], theta=theta)
    if kind == "mcx" and len(controls) >= 2:
        return MCXGate(target=target, controls=controls)
    if kind == "mcx":
        return CXGate(target=target, controls=controls)
    return MCRYGate(target=target, controls=controls, theta=theta)


class TestViewApplication:
    """``apply_gate`` on tensor views against the index-mask formula it
    replaced: the vectors are equal bit for bit."""

    @given(st.integers(0, 10_000))
    def test_random_gates_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        vec = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        ref = vec.copy()
        for _ in range(6):
            gate = _random_gate(rng, n)
            assert apply_gate(vec, gate, n) is vec
            _reference_apply(ref, gate, n)
            assert vec.tobytes() == ref.tobytes()

    def test_real_vector_bit_identical(self, rng):
        from repro.circuits.gates import MCRYGate
        vec = rng.standard_normal(1 << 6)
        ref = vec.copy()
        gate = MCRYGate(target=2, controls=((0, 1), (5, 0), (3, 1)),
                        theta=0.7)
        apply_gate(vec, gate, 6)
        _reference_apply(ref, gate, 6)
        assert vec.dtype == np.float64
        assert vec.tobytes() == ref.tobytes()

    def test_complex_rz_bit_identical(self, rng):
        from repro.circuits.gates import RZGate
        vec = (rng.standard_normal(16) + 1j * rng.standard_normal(16))
        ref = vec.copy()
        gate = RZGate(target=1, theta=1.234)
        apply_gate(vec, gate, 4)
        _reference_apply(ref, gate, 4)
        assert vec.tobytes() == ref.tobytes()

    def test_strided_column_in_place(self, rng):
        """A column of a matrix (what ``gate_unitary`` passes) is updated
        in place, and its neighbours are untouched."""
        from repro.circuits.gates import CRYGate
        mat = rng.standard_normal((8, 8)) + 0j
        before = mat.copy()
        gate = CRYGate(target=2, controls=((0, 1),), theta=0.4)
        column = mat[:, 3]
        assert not column.flags.c_contiguous
        apply_gate(column, gate, 3)
        ref = before[:, 3].copy()
        _reference_apply(ref, gate, 3)
        assert mat[:, 3].tobytes() == ref.tobytes()
        others = [c for c in range(8) if c != 3]
        assert mat[:, others].tobytes() == before[:, others].tobytes()

    @pytest.mark.parametrize("qubit", [2, 5, -1])
    def test_gate_outside_register_rejected(self, qubit):
        from repro.circuits.gates import CXGate, XGate
        with pytest.raises(CircuitError, match="outside"):
            apply_gate(np.zeros(4), XGate(target=qubit), 2)
        with pytest.raises(CircuitError, match="outside"):
            apply_gate(np.zeros(4), CXGate(target=0, controls=((qubit, 1),)),
                       2)
