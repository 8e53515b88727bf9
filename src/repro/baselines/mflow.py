"""Cardinality-reduction baseline — the paper's "m-flow" [15].

Reimplements the sparse state-preparation algorithm of Gleinig & Hoefler
(DAC 2021).  Working backward from the target, each step merges two basis
states until one remains (which free X/Ry gates map to ``|0...0>``):

1. ``dif_qubits`` — greedily pick literals ``(qubit, value)`` that restrict
   the index set until exactly two basis states ``b'``, ``b''`` remain.
   The literal cube then isolates the pair within the whole index set.
   The selection runs on the index set's ``n x m`` bit matrix in integer
   NumPy.
2. Align — pick a differing position ``p`` (never a cube qubit, since the
   pair agrees on those); for every other differing position ``r``, a CNOT
   ``CX(p -> r)`` makes the pair agree on ``r``.  These CNOTs touch only
   non-cube qubits, so the cube keeps isolating the (transformed) pair.
   They share their control, so the state takes them as one fan-out
   (:meth:`~repro.states.qstate.QState.apply_cx_fanout`).
3. Merge — one multi-controlled ``Ry`` on ``p``, controlled on the cube
   literals, folds the pair into one index (cost ``2**k`` for ``k``
   literals, Table I).  The cube selects exactly the aligned pair, so the
   fold touches those two entries only (:func:`_fold_pair`, entry for
   entry the state :meth:`~repro.core.moves.MergeMove.apply` returns).

The implementation emits :class:`~repro.core.moves.Move` objects, so circuit
reconstruction and verification reuse the exact-synthesis machinery.  The
seed's per-bit ``dif_qubits`` loop and per-CNOT alignment live on as test
oracles in ``tests/mflow_oracle.py``; both steps must stay move-identical
to them.

Between steps the reduction carries its state in one of two forms (see
:func:`carry`).  With the extension loaded and a register the kernel's
int64 indices hold, the state is a :class:`PackedSparse` (sorted index and
amplitude arrays), and a step is one ``_fastcore.gh_step`` call.
Otherwise it is a :class:`QState`, stepped by :func:`_merge_step`: the
Python twin, which the native step matches move for move and bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuits.circuit import QCircuit
from repro.constants import ATOL
from repro.core import fastcore as _fastcore
from repro.core.kernel import PACKED_MAX_QUBITS
from repro.core.moves import CXMove, MergeMove, Move, merge_angle, moves_to_circuit
from repro.exceptions import SynthesisError
from repro.states.qstate import QState

__all__ = [
    "dif_qubits",
    "mflow_reduction_moves",
    "mflow_synthesize",
    "mflow_cnot_count",
]


def dif_qubits(indices: list[int], num_qubits: int,
               minimize_literals: bool = False
               ) -> tuple[list[tuple[int, int]], list[int]]:
    """Greedy literal selection isolating two indices (GH Algorithm 1).

    Returns ``(literals, pair)`` where successively intersecting the index
    set with each ``(qubit, value)`` literal leaves exactly ``pair``.
    Prefers the smallest restriction that keeps at least two candidates, so
    literal counts stay near ``log2(m)``; ties go to the lowest qubit, then
    to value 0.

    ``minimize_literals`` adds a redundant-literal dropping pass that the
    original algorithm does not have; the faithful baseline leaves it off,
    while our improved reduction (:mod:`repro.qsp.reduction`) turns it on.

    Runs on the ``n x m`` bit matrix of the index set in integer NumPy
    (built from the indices' bytes, so any register width works).  A
    column that splits one index off a bucket of three or more still
    offers its other side, so "smallest side of two or more" is the whole
    rule.
    """
    if len(indices) < 2:
        raise SynthesisError("need at least two indices to isolate a pair")
    indices = list(indices)
    width = (num_qubits + 7) // 8
    raw = np.frombuffer(b"".join([i.to_bytes(width, "big") for i in indices]),
                        dtype=np.uint8).reshape(len(indices), width)
    # row q: qubit q's column (qubit 0 is the most significant bit)
    bits = np.unpackbits(raw, axis=1)[:, 8 * width - num_qubits:].T
    literals: list[tuple[int, int]] = []
    bucket, columns = np.arange(len(indices)), bits
    while len(bucket) > 2:
        size = len(bucket)
        ones = columns.sum(axis=1, dtype=np.int64)
        # side sizes in (qubit, value) order: q0=0, q0=1, q1=0, ...
        counts = np.column_stack((size - ones, ones)).ravel()
        usable = (counts >= 2) & (counts < size)
        if not usable.any():
            raise SynthesisError("identical indices in the bucket")
        q, value = divmod(int(np.argmin(np.where(usable, counts, size))), 2)
        literals.append((q, value))
        keep = columns[q] == value
        bucket, columns = bucket[keep], columns[:, keep]
    pair = sorted(indices[k] for k in bucket.tolist())
    if not minimize_literals:
        return literals, pair
    # Improvement over GH: drop literals that are no longer needed (each
    # dropped literal halves the merge rotation's cost).  Any subset of the
    # literals still selects the pair, so a literal is needed exactly when
    # the others also select an index outside it.
    outside = np.array([i not in pair for i in indices])
    kept: list[tuple[int, int]] = []
    for pos, lit in enumerate(literals):
        selected = outside.copy()
        for q, value in kept + literals[pos + 1:]:
            selected &= bits[q] == value
        if selected.any():
            kept.append(lit)
    return kept, pair


class PackedSparse:
    """A state between reduction steps as the kernel's sorted ``int64``
    indices and aligned ``float64`` amplitudes.

    Made by :func:`carry` while the extension is loaded; its steps run on
    the loaded extension even if :func:`repro.core.fastcore.set_enabled`
    turns it off mid-run, so a run keeps one carrier.  Its arrays come
    from a :class:`QState` or from native steps that make ``QState``'s
    checks, so they are sorted, in range, nonzero and normalized.
    """

    __slots__ = ("num_qubits", "idx", "amp")

    def __init__(self, num_qubits: int, idx: np.ndarray, amp: np.ndarray):
        self.num_qubits = num_qubits
        self.idx = idx
        self.amp = amp

    @property
    def cardinality(self) -> int:
        return len(self.idx)


#: The reduction's state between steps: packed arrays on the native path,
#: a ``QState`` on the Python twin and on registers past int64 indices.
Carrier = PackedSparse | QState


def carry(state: QState) -> Carrier:
    """``state`` in the form the reduction carries between steps."""
    if _fastcore.active is None or state.num_qubits > PACKED_MAX_QUBITS:
        return state
    return PackedSparse(state.num_qubits, *state.packed_arrays())


def as_qstate(current: Carrier) -> QState:
    """The ``QState`` a carrier holds."""
    if isinstance(current, PackedSparse):
        return QState.from_packed(current.num_qubits, current.idx,
                                  current.amp)
    return current


def _gh_step(current: Carrier, minimize_literals: bool = False
             ) -> tuple[list[Move], Carrier]:
    """One GH merge of the carried state: one ``_fastcore.gh_step`` call
    on packed arrays, :func:`_merge_step` on a ``QState``."""
    if not isinstance(current, PackedSparse):
        return _merge_step(current, minimize_literals)
    n = current.num_qubits
    literals, p, targets, theta, idx, amp = _fastcore._module.gh_step(
        n, current.idx, current.amp, minimize_literals)
    moves: list[Move] = [CXMove(control=p, phase=1, target=r)
                         for r in targets]
    moves.append(MergeMove(target=p, theta=theta, controls=literals))
    return moves, PackedSparse(n, idx, amp)


def _merge_step(state: QState, minimize_literals: bool = False
                ) -> tuple[list[Move], QState]:
    """One GH merge: isolate a pair, align it, fold it.  Returns the moves
    applied (backward direction) and the new state."""
    n = state.num_qubits
    indices = [i for i, _ in state.items()]
    literals, (b1, b2) = dif_qubits(indices, n, minimize_literals)

    diff = b1 ^ b2
    positions = [q for q in range(n) if (diff >> (n - 1 - q)) & 1]
    # Cube qubits agree on the pair, so differing positions avoid the cube.
    # The alignment CNOTs CX(p -> r) share their control and never target
    # it, so they apply as one fan-out; the pair member with p set becomes
    # its partner with only p flipped.
    p = positions[0]
    moves: list[Move] = [CXMove(control=p, phase=1, target=r)
                         for r in positions[1:]]
    current = state.apply_cx_fanout(p, positions[1:]) if moves else state
    pmask = 1 << (n - 1 - p)
    lo = b2 if b1 & pmask else b1
    a0 = current.amplitude(lo)
    a1 = current.amplitude(lo | pmask)
    theta = merge_angle(a0, a1, direction=0)
    moves.append(MergeMove(target=p, theta=theta, controls=tuple(literals)))
    return moves, _fold_pair(current, lo, lo | pmask, a0, a1, theta)


def _fold_pair(state: QState, lo: int, hi: int, a0: float, a1: float,
               theta: float) -> QState:
    """``Ry(theta)`` on the pair ``(lo, hi)`` (amplitudes ``a0``, ``a1``)
    of a state whose other entries its control cube leaves alone.

    :func:`~repro.core.moves.apply_controlled_ry` would test every index
    against every literal to find that pair; this folds it directly, with
    the same expressions and drop tolerance, and writes the entries in
    the same order (the pair where ``lo`` was), so the state is the same
    entry for entry.
    """
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    new0 = c * a0 - s * a1
    new1 = s * a0 + c * a1
    out: dict[int, float] = {}
    for idx, amp in state.items():
        if idx == lo:
            if abs(new0) > ATOL:
                out[lo] = new0
            if abs(new1) > ATOL:
                out[hi] = new1
        elif idx != hi:
            out[idx] = amp
    return QState(state.num_qubits, out, normalize=False)


def mflow_reduction_moves(state: QState,
                          stop_cardinality: int = 1,
                          minimize_literals: bool = False
                          ) -> tuple[list[Move], QState]:
    """Run merge steps until the cardinality reaches ``stop_cardinality``.

    ``stop_cardinality=1`` is the full baseline; larger values give the
    partial reduction used by the workflow's sparse path, which also turns
    on ``minimize_literals`` (our refinement over the faithful baseline).
    """
    if stop_cardinality < 1:
        raise SynthesisError("stop_cardinality must be >= 1")
    moves: list[Move] = []
    current = carry(state)
    while current.cardinality > stop_cardinality:
        step_moves, current = _gh_step(current, minimize_literals)
        moves.extend(step_moves)
    return moves, as_qstate(current) if moves else state


def mflow_synthesize(state: QState) -> QCircuit:
    """Prepare ``state`` with the full cardinality-reduction flow."""
    moves, final_state = mflow_reduction_moves(state)
    return moves_to_circuit(moves, final_state, state.num_qubits)


def mflow_cnot_count(state: QState) -> int:
    """CNOT cost of the m-flow circuit for ``state`` (without building the
    full gate-level circuit)."""
    moves, _ = mflow_reduction_moves(state)
    return sum(m.cost for m in moves)
