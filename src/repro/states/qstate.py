"""Sparse real-amplitude quantum states.

This is the paper's ``n x m`` classical-bit encoding (Sec. VI-D): a state is
stored as its index set — the ``m`` basis indices with nonzero amplitude —
together with the ``m`` signed real amplitudes.  Dense ``2**n`` vectors are
only materialized on demand (for simulation and verification).

Conventions
-----------
* Qubit 0 is the **most significant** bit of a basis index, matching the
  paper's ``|q1 q2 ... qn>`` notation (see :mod:`repro.utils.bits`).
* Amplitudes are real (the paper restricts transitions to the X-Z plane, so
  every single-qubit gate is an ``Ry`` and amplitudes stay real).
* Equality and hashing quantize amplitudes to
  :data:`repro.constants.AMP_DECIMALS` decimals.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping

import numpy as np

from repro.constants import AMP_DECIMALS, ATOL, quantize
from repro.exceptions import NormalizationError, StateError
from repro.utils.bits import (
    bit_mask,
    bit_of,
    flip_bit,
    index_to_bitstring,
    permute_index,
)

__all__ = ["QState", "StateKey"]

#: Hashable canonical key of a state: ``(num_qubits, ((index, amp), ...))``
#: with entries sorted by index and amplitudes quantized.
StateKey = tuple[int, tuple[tuple[int, float], ...]]


class QState:
    """An ``n``-qubit pure state with real amplitudes, stored sparsely.

    Parameters
    ----------
    num_qubits:
        Register width ``n``.
    amplitudes:
        Mapping from basis index to real amplitude.  Zero entries (below the
        library tolerance) are dropped.
    normalize:
        When true (default), rescale to unit norm; otherwise require the
        input to already be normalized.

    Examples
    --------
    >>> bell = QState(2, {0b00: 1.0, 0b11: 1.0})
    >>> bell.cardinality
    2
    >>> round(bell.amplitude(0), 6)
    0.707107
    """

    __slots__ = ("_n", "_amps", "_key", "_sorted")

    def __init__(self, num_qubits: int, amplitudes: Mapping[int, float],
                 normalize: bool = True):
        if num_qubits < 1:
            raise StateError(f"need at least one qubit, got {num_qubits}")
        dim = 1 << num_qubits
        amps: dict[int, float] = {}
        for idx, amp in amplitudes.items():
            if not 0 <= idx < dim:
                raise StateError(
                    f"basis index {idx} out of range for {num_qubits} qubits")
            a = float(amp)
            if abs(a) > ATOL:
                amps[int(idx)] = a
        if not amps:
            raise StateError("state has no nonzero amplitude")
        norm = math.sqrt(sum(a * a for a in amps.values()))
        if normalize:
            amps = {i: a / norm for i, a in amps.items()}
        elif abs(norm - 1.0) > 1e-6:
            raise NormalizationError(f"state norm {norm} != 1")
        self._n = num_qubits
        self._amps = amps
        self._key: StateKey | None = None
        self._sorted: tuple[tuple[int, float], ...] | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def ground(cls, num_qubits: int) -> "QState":
        """The all-zeros computational basis state ``|0...0>``."""
        return cls(num_qubits, {0: 1.0}, normalize=False)

    @classmethod
    def basis(cls, num_qubits: int, index: int) -> "QState":
        """The computational basis state ``|index>``."""
        return cls(num_qubits, {index: 1.0}, normalize=False)

    @classmethod
    def uniform(cls, num_qubits: int, indices: Iterable[int]) -> "QState":
        """Uniform superposition over the given basis indices."""
        idx = list(indices)
        if not idx:
            raise StateError("uniform state needs at least one index")
        return cls(num_qubits, {i: 1.0 for i in idx})

    @classmethod
    def from_vector(cls, vector: np.ndarray, atol: float = 1e-9) -> "QState":
        """Build a sparse state from a dense real (or real-valued complex)
        statevector of length ``2**n``."""
        vec = np.asarray(vector)
        if np.iscomplexobj(vec):
            if np.max(np.abs(vec.imag)) > 1e-8:
                raise StateError("QState holds real amplitudes only")
            vec = vec.real
        size = vec.shape[0]
        n = int(round(math.log2(size)))
        if 1 << n != size:
            raise StateError(f"vector length {size} is not a power of two")
        amps = {int(i): float(v) for i, v in enumerate(vec) if abs(v) > atol}
        return cls(n, amps)

    @classmethod
    def from_bitstring_weights(cls, weights: Mapping[str, float]) -> "QState":
        """Build a state from ``{'0110': w, ...}`` bitstring weights."""
        if not weights:
            raise StateError("no bitstrings given")
        lengths = {len(b) for b in weights}
        if len(lengths) != 1:
            raise StateError(f"inconsistent bitstring lengths: {lengths}")
        n = lengths.pop()
        return cls(n, {int(b, 2): w for b, w in weights.items()})

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Register width ``n``."""
        return self._n

    @property
    def cardinality(self) -> int:
        """``m = |S(psi)|``, the number of nonzero amplitudes."""
        return len(self._amps)

    @property
    def index_set(self) -> frozenset[int]:
        """The set ``S(psi)`` of basis indices with nonzero amplitude."""
        return frozenset(self._amps)

    def amplitude(self, index: int) -> float:
        """Amplitude of basis ``index`` (0.0 when absent)."""
        return self._amps.get(index, 0.0)

    def items(self) -> Iterator[tuple[int, float]]:
        """Iterate ``(index, amplitude)`` pairs in ascending index order."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self._amps.items()))
        return iter(self._sorted)

    def is_ground(self) -> bool:
        """True when this is ``|0...0>`` (up to global sign)."""
        return len(self._amps) == 1 and 0 in self._amps

    def is_basis_state(self) -> bool:
        """True when the state is a single computational basis state."""
        return len(self._amps) == 1

    def is_sparse(self) -> bool:
        """Paper's sparsity test (Sec. VI-A): ``n * m < 2**n``."""
        return self._n * self.cardinality < (1 << self._n)

    def norm(self) -> float:
        """Euclidean norm (1.0 by construction, up to float error)."""
        return math.sqrt(sum(a * a for a in self._amps.values()))

    # ------------------------------------------------------------------
    # Dense conversions
    # ------------------------------------------------------------------

    def to_vector(self) -> np.ndarray:
        """Dense ``2**n`` float64 statevector."""
        vec = np.zeros(1 << self._n, dtype=np.float64)
        for idx, amp in self._amps.items():
            vec[idx] = amp
        return vec

    # ------------------------------------------------------------------
    # Packed-array bridge (repro.core.kernel)
    # ------------------------------------------------------------------

    def packed_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The state as aligned ``(indices, amplitudes)`` arrays.

        Indices are the sorted 64-bit basis indices (``int64``; 62 qubits
        is far beyond any representable sparse working set), amplitudes the
        raw (unquantized) float64 values aligned with them.  This is the
        bridge into the packed search kernel; no validation is re-run.
        """
        if self._sorted is None:
            self._sorted = tuple(sorted(self._amps.items()))
        pairs = self._sorted
        idx = np.fromiter((i for i, _ in pairs), dtype=np.int64,
                          count=len(pairs))
        amp = np.fromiter((a for _, a in pairs), dtype=np.float64,
                          count=len(pairs))
        return idx, amp

    @classmethod
    def from_packed(cls, num_qubits: int, indices: np.ndarray,
                    amplitudes: np.ndarray) -> "QState":
        """Rebuild a ``QState`` from packed kernel arrays without checks.

        Trusted constructor for the kernel bridge: the caller guarantees the
        indices are sorted, in range and unique, and the amplitudes nonzero
        and normalized.  Skips ``__init__`` validation entirely and pre-seeds
        the sorted-items cache, so the round trip costs one dict build.
        """
        self = cls.__new__(cls)
        self._n = num_qubits
        pairs = tuple(zip((int(i) for i in indices),
                          (float(a) for a in amplitudes)))
        self._amps = dict(pairs)
        self._key = None
        self._sorted = pairs
        return self

    # ------------------------------------------------------------------
    # Hashing and equality
    # ------------------------------------------------------------------

    def key(self) -> StateKey:
        """Quantized, hashable representation (sorted by index)."""
        if self._key is None:
            entries = tuple(sorted(
                (idx, quantize(amp)) for idx, amp in self._amps.items()))
            self._key = (self._n, entries)
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QState):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def approx_equal(self, other: "QState", atol: float = 1e-7,
                     up_to_global_sign: bool = True) -> bool:
        """Float-tolerant comparison, optionally up to a global ``+-1`` phase.

        Real states prepared through ``Ry``-only circuits are only defined up
        to global sign, so verification uses ``up_to_global_sign=True``.
        """
        if self._n != other._n:
            return False
        if self.index_set != other.index_set:
            return False
        signs = [1.0]
        if up_to_global_sign:
            signs.append(-1.0)
        for sign in signs:
            if all(abs(self._amps[i] - sign * other._amps[i]) <= atol
                   for i in self._amps):
                return True
        return False

    # ------------------------------------------------------------------
    # Index-set structure
    # ------------------------------------------------------------------

    def cofactor_indices(self, qubit: int, value: int) -> frozenset[int]:
        """Index set of the cofactor ``psi | qubit=value``.

        Returned indices keep their full width (the selected bit is *not*
        removed), which makes cofactor comparison a simple set operation
        after masking.
        """
        return frozenset(i for i in self._amps
                         if bit_of(i, qubit, self._n) == value)

    def cofactor(self, qubit: int, value: int) -> dict[int, float]:
        """Sub-state amplitudes over indices with ``qubit == value``, keyed
        by the index *with the selected bit cleared* so the two cofactors of
        a qubit are directly comparable."""
        out: dict[int, float] = {}
        for i, a in self._amps.items():
            if bit_of(i, qubit, self._n) == value:
                out[flip_bit(i, qubit, self._n) if value else i] = a
        return out

    def qubit_column(self, qubit: int) -> tuple[int, ...]:
        """The bit column of ``qubit`` across the sorted index set.

        This is one column of the paper's ``n x m`` bit matrix.
        """
        return tuple(bit_of(i, qubit, self._n)
                     for i in sorted(self._amps))

    # ------------------------------------------------------------------
    # Zero-cost transformations (used by canonicalization and moves)
    # ------------------------------------------------------------------

    def apply_x(self, qubit: int) -> "QState":
        """Return the state with ``X`` applied on ``qubit`` (free gate)."""
        amps = {flip_bit(i, qubit, self._n): a for i, a in self._amps.items()}
        return QState(self._n, amps, normalize=False)

    def apply_cx(self, control: int, target: int, phase: int = 1) -> "QState":
        """Return the state after a CNOT with the given control ``phase``.

        ``phase=1`` is the ordinary CNOT (flip target when control is 1);
        ``phase=0`` is the negated-control variant (still 1 CNOT once free
        ``X`` conjugation is absorbed).
        """
        if control == target:
            raise StateError("control and target must differ")
        amps: dict[int, float] = {}
        for i, a in self._amps.items():
            j = flip_bit(i, target, self._n) \
                if bit_of(i, control, self._n) == phase else i
            amps[j] = a
        if len(amps) != len(self._amps):
            raise StateError("CNOT must permute the index set")
        return QState(self._n, amps, normalize=False)

    def apply_cx_fanout(self, control: int,
                        targets: Iterable[int]) -> "QState":
        """Return the state after ``apply_cx(control, t)`` for each ``t``
        in ``targets``, computed in one pass.

        The CNOTs share their control and never target it, so they commute
        and compose into one index map: every index with the ``control``
        bit set flips all the target bits.  The result equals the chain of
        single CNOTs entry for entry, in the same order.
        """
        flip = 0
        for target in targets:
            if target == control:
                raise StateError("control and target must differ")
            flip ^= bit_mask(target, self._n)
        cmask = bit_mask(control, self._n)
        amps = {(i ^ flip if i & cmask else i): a
                for i, a in self._amps.items()}
        return QState(self._n, amps, normalize=False)

    def permute(self, perm: Iterable[int]) -> "QState":
        """Return the state with qubits permuted.

        ``perm[i] = j``: output qubit ``i`` carries input qubit ``j``.
        """
        perm = list(perm)
        if sorted(perm) != list(range(self._n)):
            raise StateError(f"not a permutation of {self._n} qubits: {perm}")
        amps = {permute_index(i, perm, self._n): a
                for i, a in self._amps.items()}
        return QState(self._n, amps, normalize=False)

    def negate(self) -> "QState":
        """Return the state with all amplitudes negated (global sign)."""
        return QState(self._n, {i: -a for i, a in self._amps.items()},
                      normalize=False)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"QState(n={self._n}, m={self.cardinality})"

    def __str__(self) -> str:
        terms = []
        for idx, amp in self.items():
            terms.append(f"{amp:+.4f}|{index_to_bitstring(idx, self._n)}>")
        return " ".join(terms)

    def pretty(self, max_terms: int = 16) -> str:
        """Human-readable rendering, truncated to ``max_terms`` terms."""
        terms = list(self.items())
        shown = terms[:max_terms]
        body = " ".join(
            f"{amp:+.4f}|{index_to_bitstring(idx, self._n)}>"
            for idx, amp in shown)
        if len(terms) > max_terms:
            body += f" ... (+{len(terms) - max_terms} more)"
        return body
