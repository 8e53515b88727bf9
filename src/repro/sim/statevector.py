"""Dense statevector simulator.

This module substitutes the Qiskit simulator the paper uses for verification
(Sec. VI-A): it applies each gate — uniformly modeled as a controlled
single-qubit operation — to a dense ``2**n`` vector through numpy views of
the vector as a ``2 x ... x 2`` tensor.

Qubit 0 is the most significant bit of the basis index, matching
:mod:`repro.states.qstate`.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import QCircuit
from repro.circuits.gates import Gate
from repro.exceptions import CircuitError
from repro.states.qstate import QState

__all__ = ["apply_gate", "simulate_circuit", "simulate_to_state"]


def apply_gate(vector: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    """Apply one gate in place and return the vector.

    The vector is viewed as an ``n``-axis ``2 x ... x 2`` tensor (axis
    ``q`` is qubit ``q``), and the 2x2 matrix mixes the two basic-slice
    views that fix every control axis to its phase and the target axis
    to 0 and to 1.  Reshaping a 1-D array only splits its one axis, so the
    views write through to ``vector`` also when it is strided (a column
    of a matrix).
    """
    if vector.shape[0] != (1 << num_qubits):
        raise CircuitError(
            f"vector length {vector.shape[0]} != 2**{num_qubits}")
    if any(q < 0 or q >= num_qubits for q in gate.qubits()):
        raise CircuitError(
            f"gate {gate} outside the {num_qubits}-qubit register")
    mat = gate.base_matrix()
    if np.iscomplexobj(mat) and not np.iscomplexobj(vector):
        raise CircuitError("complex gate on real vector; "
                           "allocate the vector as complex128")
    tensor = vector.reshape((2,) * num_qubits)
    # the trailing Ellipsis keeps a view when every axis is fixed
    index: list = [slice(None)] * num_qubits + [Ellipsis]
    for q, p in gate.controls:
        index[q] = p
    index[gate.target] = 0
    a = tensor[tuple(index)]
    index[gate.target] = 1
    b = tensor[tuple(index)]
    new0 = mat[0, 0] * a + mat[0, 1] * b
    new1 = mat[1, 0] * a + mat[1, 1] * b
    a[...] = new0
    b[...] = new1
    return vector


def simulate_circuit(circuit: QCircuit,
                     initial: np.ndarray | QState | None = None,
                     dtype=np.complex128) -> np.ndarray:
    """Run a circuit and return the final statevector.

    Parameters
    ----------
    circuit:
        The circuit to execute (gates applied left to right).
    initial:
        Starting vector or :class:`QState`; defaults to ``|0...0>``.
    dtype:
        Vector dtype.  ``complex128`` by default so Rz gates are legal; pass
        ``float64`` for Ry/CNOT-only circuits when speed matters.
    """
    dim = 1 << circuit.num_qubits
    if initial is None:
        vec = np.zeros(dim, dtype=dtype)
        vec[0] = 1.0
    elif isinstance(initial, QState):
        if initial.num_qubits != circuit.num_qubits:
            raise CircuitError("initial state register width mismatch")
        vec = initial.to_vector().astype(dtype)
    else:
        vec = np.array(initial, dtype=dtype, copy=True)
        if vec.shape[0] != dim:
            raise CircuitError(
                f"initial vector length {vec.shape[0]} != {dim}")
    for gate in circuit:
        apply_gate(vec, gate, circuit.num_qubits)
    return vec


def simulate_to_state(circuit: QCircuit,
                      initial: np.ndarray | QState | None = None,
                      atol: float = 1e-9) -> QState:
    """Run a circuit and return the (real) final state as a :class:`QState`.

    Raises if the final vector has a non-negligible imaginary part — real
    targets prepared with Ry/CNOT circuits never do.
    """
    vec = simulate_circuit(circuit, initial)
    if np.max(np.abs(vec.imag)) > 1e-8:
        raise CircuitError("final state is not real; use simulate_circuit")
    return QState.from_vector(vec.real, atol=atol)
