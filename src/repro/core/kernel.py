"""Packed-array search kernel for the A* hot path.

The paper's tractability argument rests on the sparse ``n x m`` bit-matrix
encoding, but the seed implementation materialized every search node as a
Python dict and re-sorted it on each ``key()`` call.  This module is the
array-native twin of :mod:`repro.states.qstate` + :mod:`repro.core.transitions`
built for the search inner loop:

* :class:`PackedState` — a state as a sorted 64-bit index array plus an
  aligned float64 amplitude array, with the quantized amplitudes, the
  ``n x m`` bit matrix, and a 64-bit structural hash computed once.
* :class:`StatePool` — an interning pool: each distinct (quantized) state is
  materialized exactly once per search, so equality is identity and every
  per-state memo becomes an O(1) identity-keyed lookup.
* Vectorized successor enumeration — ``enumerate_cx_packed`` reads the bit
  matrix column-wise; ``enumerate_merges_packed`` prunes the control-cube
  lattice down to the qubit columns that actually distinguish the pair set
  (pattern-lattice pruning) and buckets pairs by precomputed bit codes.
  Both are proven move-set-identical to the reference enumeration in
  :mod:`repro.core.transitions` by the property tests in
  ``tests/test_kernel.py``.
* Canonicalization support — separable-qubit pinning and the X-flip /
  permutation minimization run as one batched array computation over all
  candidate orderings and translations.  The construction applies exactly
  the free transformations of :mod:`repro.core.canonical` (same class
  partition under the same caps, property-tested for soundness), but
  breaks representative ties kernel-natively, so kernel keys and legacy
  keys live in separate namespaces.
* :class:`HashKeyedMap` / :class:`HashStore` / :class:`BoundedCache` — the
  search-side containers: ``best_g`` keyed by the 64-bit canonical hash
  with an explicit collision spill, the state-keyed memo of canonical keys
  (and of a memory's heuristic values), and size-capped FIFO caches that
  report hit rates.

Indices use ``int64`` (62 usable qubit bits — far beyond any representable
sparse working set); quantization matches :func:`repro.constants.quantize`
elementwise via ``np.round``.

Enumeration and move-application arithmetic mirrors the reference
implementations operation-for-operation, so move sets, amplitudes, and
merge angles are bit-identical to the legacy path — the property tests in
``tests/test_kernel.py`` assert it, and the A* differential test asserts
that both paths prove the same optimal CNOT counts.
"""

from __future__ import annotations

import heapq
import math
from functools import partial
from itertools import combinations, islice, permutations
from itertools import product as iter_product
from time import perf_counter as _perf_counter

import numpy as np

from repro.constants import (
    AMP_DECIMALS,
    ATOL,
    MEMORY_STORE_CAP,
    MERGE_RATIO_RTOL,
)
from repro.core import fastcore as _fastcore
from repro.core.canonical import CanonLevel
from repro.core.moves import CXMove, MergeMove, Move, XMove, merge_angle
from repro.core.splitmix import (
    GOLDEN,
    MIX_A1,
    MIX_A2,
    MIX_B1,
    MIX_B2,
    ORBIT_MUL,
    U64_MASK,
)
from repro.states.qstate import QState

__all__ = [
    "PACKED_MAX_QUBITS",
    "PackedState",
    "StatePool",
    "CanonKey",
    "CanonContext",
    "HashKeyedMap",
    "HashStore",
    "BoundedCache",
    "state_hash64",
    "quantize_array",
    "qstate_payload",
    "enumerate_cx_packed",
    "enumerate_merges_packed",
    "successors_packed",
    "native_open_list",
    "apply_move_packed",
    "entangled_qubits_packed",
    "num_entangled_packed",
    "entanglement_h_packed",
    "canonical_key_packed",
]


#: Widest register a packed state represents: its basis indices are int64.
PACKED_MAX_QUBITS = 62


def state_hash64(payload: bytes) -> int:
    """64-bit structural hash of a serialized state (stable per process).

    Uses the interpreter's SipHash over the payload bytes — the cheapest
    strong 64-bit hash available and stable for the lifetime of a search.
    Module-level so tests can monkeypatch it to force collisions and verify
    the collision fallbacks in :class:`StatePool` and :class:`HashKeyedMap`.
    """
    return hash(payload)


#: the unpatched :func:`state_hash64`; the native expansion hashes payloads
#: itself unless a test has replaced the module global
_SIPHASH64 = state_hash64

_QUANT_SCALE = 10.0 ** AMP_DECIMALS


def quantize_array(amp: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.constants.quantize` (with ``-0.0 -> 0.0``).

    The compiled path computes ``rint(x * scale) / scale`` per element —
    verified bit-identical to ``np.round`` (the division form; a
    multiply-by-reciprocal variant is *not* identical).
    """
    fc = _fastcore.active
    if fc is not None:
        q = np.empty_like(amp)
        fc.quantize(amp, q, _QUANT_SCALE)
        return q
    q = np.round(amp, AMP_DECIMALS)
    q[q == 0.0] = 0.0
    return q


def _payload(num_qubits: int, idx: np.ndarray, qamp: np.ndarray) -> bytes:
    fc = _fastcore.active
    if fc is not None:
        return fc.payload(num_qubits, idx, qamp)
    return num_qubits.to_bytes(2, "little") + idx.tobytes() + qamp.tobytes()


# ----------------------------------------------------------------------
# Packed state + interning pool
# ----------------------------------------------------------------------

class PackedState:
    """One interned sparse state: sorted index array + aligned amplitudes.

    Instances are only created by :class:`StatePool`, which guarantees one
    object per distinct quantized state, so ``a is b`` is the equality fast
    path and ``hash()`` returns the precomputed 64-bit structural hash.

    Every slot holds an int, bytes, a numeric ndarray, a list of ints or a
    tuple of ints, so a state can never be part of a reference cycle.  With
    the extension loaded, states (and their ``_counts``) are therefore
    taken out of CPython's cyclic collector, which would otherwise
    re-traverse every pooled state on each full collection; reference
    counting still frees them.
    """

    __slots__ = ("n", "idx", "amp", "qamp", "payload", "hash64",
                 "_bits", "_counts", "_entangled")

    def __init__(self, n: int, idx: np.ndarray, amp: np.ndarray,
                 qamp: np.ndarray, payload: bytes, hash64: int):
        self.n = n
        self.idx = idx
        self.amp = amp
        self.qamp = qamp
        self.payload = payload
        self.hash64 = hash64
        self._bits: np.ndarray | None = None
        self._counts: list[int] | None = None
        self._entangled: tuple[int, ...] | None = None
        fc = _fastcore.active
        if fc is not None:
            fc.untrack(self)

    @property
    def m(self) -> int:
        """Cardinality ``m = |S(psi)|``."""
        return len(self.idx)

    @property
    def bits(self) -> np.ndarray:
        """The paper's ``n x m`` bit matrix (row ``q`` = column of qubit
        ``q`` across the sorted index set), computed once."""
        if self._bits is None:
            shifts = np.arange(self.n - 1, -1, -1,
                               dtype=np.int64)[:, None]
            self._bits = ((self.idx[None, :] >> shifts) & 1).astype(np.int64)
        return self._bits

    @property
    def column_counts(self) -> list[int]:
        """Per-qubit column weight of the bit matrix, computed once.

        Derived from the index list directly (not via :attr:`bits`), so
        states that are generated but never expanded — the bulk of any A*
        frontier — never materialize the bit matrix at all.
        """
        if self._counts is None:
            fc = _fastcore.active
            if fc is not None:
                # an untracked list: see the class docstring
                self._counts = fc.column_counts(self.n, self.idx)
            elif self._bits is not None:
                self._counts = self._bits.sum(axis=1).tolist()
            else:
                il = self.idx.tolist()
                self._counts = [
                    sum((i >> shift) & 1 for i in il)
                    for shift in range(self.n - 1, -1, -1)]
        return self._counts

    def to_qstate(self) -> QState:
        """Rebuild the dict-backed view (raw amplitudes, no re-validation)."""
        return QState.from_packed(self.n, self.idx, self.amp)

    def __hash__(self) -> int:
        return self.hash64

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PackedState):
            return NotImplemented
        return self.n == other.n and self.payload == other.payload

    def __repr__(self) -> str:
        return f"PackedState(n={self.n}, m={self.m})"


class StatePool:
    """Interning pool keyed by the 64-bit structural hash.

    Hash collisions chain into a short list and are resolved by payload
    comparison, so two distinct states never alias even if the 64-bit hash
    collides (exercised by the regression test that pins the hash).
    """

    __slots__ = ("_table", "interned", "hits", "hash_collisions")

    def __init__(self) -> None:
        self._table: dict[int, object] = {}
        self.interned = 0
        self.hits = 0
        self.hash_collisions = 0

    def __len__(self) -> int:
        return self.interned

    def intern(self, n: int, idx: np.ndarray, amp: np.ndarray,
               qamp: np.ndarray | None = None) -> PackedState:
        """Return the unique :class:`PackedState` for sorted ``(idx, amp)``.

        ``qamp`` may be supplied when the caller already holds the quantized
        amplitudes (e.g. a CX/X move only permutes the parent's), skipping
        the per-intern rounding pass.
        """
        if qamp is None:
            qamp = quantize_array(amp)
        payload = _payload(n, idx, qamp)
        return self._intern(n, idx, amp, qamp, payload, copy=False)

    def _intern(self, n: int, idx: np.ndarray, amp: np.ndarray,
                qamp: np.ndarray, payload: bytes, copy: bool) -> PackedState:
        """Lookup-or-insert by payload; ``copy`` copies the arrays of a new
        state out of a caller's scratch.  The native expansion runs its
        own twin of this method over ``_table`` (``_fastcore.successors``)."""
        h = state_hash64(payload)
        entry = self._table.get(h)
        if entry is None:
            if copy:
                idx, amp, qamp = idx.copy(), amp.copy(), qamp.copy()
            state = PackedState(n, idx, amp, qamp, payload, h)
            self._table[h] = state
            self.interned += 1
            return state
        if isinstance(entry, PackedState):
            if entry.n == n and entry.payload == payload:
                self.hits += 1
                return entry
            chain = [entry]
            self._table[h] = chain
            self.hash_collisions += 1
        else:
            chain = entry  # type: ignore[assignment]
            for state in chain:
                if state.n == n and state.payload == payload:
                    self.hits += 1
                    return state
            self.hash_collisions += 1
        if copy:
            idx, amp, qamp = idx.copy(), amp.copy(), qamp.copy()
        state = PackedState(n, idx, amp, qamp, payload, h)
        chain.append(state)
        self.interned += 1
        return state

    def from_qstate(self, state: QState) -> PackedState:
        """Bridge a dict-backed state into the pool."""
        idx, amp = state.packed_arrays()
        return self.intern(state.num_qubits, idx, amp)


def qstate_payload(state: QState) -> bytes:
    """The quantized payload :meth:`StatePool.from_qstate` keys ``state``
    by, without interning it: the identity of a state for the request
    cache and the exact-core and batch dedupe."""
    idx, amp = state.packed_arrays()
    return _payload(state.num_qubits, idx, quantize_array(amp))


# ----------------------------------------------------------------------
# Search-side containers
# ----------------------------------------------------------------------

class BoundedCache:
    """Insertion-ordered cache with size-capped FIFO eviction + hit stats."""

    __slots__ = ("cap", "data", "hits", "misses", "evictions")

    def __init__(self, cap: int):
        self.cap = max(1, int(cap))
        self.data: dict = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        val = self.data.get(key)
        if val is None:
            self.misses += 1
        else:
            self.hits += 1
        return val

    def put(self, key, value) -> None:
        if len(self.data) >= self.cap:
            drop = max(1, self.cap // 8)
            for stale in list(islice(iter(self.data), drop)):
                del self.data[stale]
            self.evictions += drop
        self.data[key] = value


_EVICT_DENOM = 8  # drop 1/8 of the cap per eviction sweep (cf. BoundedCache)


class HashStore:
    """Persistent value store keyed by the 64-bit structural state hash.

    Values attach to *states* (payload-verified), not to interned objects,
    so entries remain valid when the owning :class:`SearchMemory` rotates
    its :class:`~repro.core.kernel.StatePool` and are shared by searches
    whose pools intern different objects for the same state.  A genuine
    64-bit collision spills the newcomer into a payload-keyed secondary
    dict, preserving exact-map semantics.

    Eviction is *hit-weighted* (the ROADMAP open item): each entry carries
    a hit counter, and an eviction sweep drops the least-hit entries
    instead of FIFO order — the states repeated traffic keeps asking about
    are exactly the ones worth keeping, while a one-shot frontier state
    from an old search is the cheapest to recompute.  Dropping any entry
    is always sound (stores only deduplicate recomputation).
    """

    __slots__ = ("cap", "_primary", "_spill", "hits", "misses",
                 "collisions", "evictions")

    def __init__(self, cap: int = MEMORY_STORE_CAP):
        self.cap = max(1, int(cap))
        #: hash64 -> [payload, value, entry_hits]; the native open-addressing
        #: U64Map when the extension is loaded (insertion-order-preserving,
        #: like dict), a plain dict otherwise
        fc = _fastcore.active
        self._primary = fc.U64Map() if fc is not None else {}
        self._spill: dict[bytes, object] = {}
        self.hits = 0
        self.misses = 0
        self.collisions = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._primary) + len(self._spill)

    def get(self, ps: PackedState):
        entry = self._primary.get(ps.hash64)
        if entry is None:
            self.misses += 1
            return None
        if entry[0] == ps.payload:
            self.hits += 1
            entry[2] += 1
            return entry[1]
        value = self._spill.get(ps.payload)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, ps: PackedState, value) -> None:
        entry = self._primary.get(ps.hash64)
        if entry is not None and entry[0] != ps.payload:
            self.collisions += 1
            self._spill[ps.payload] = value
            return
        if entry is not None:
            entry[1] = value  # refresh in place, keep the hit history
            return
        if len(self._primary) >= self.cap:
            drop = max(1, self.cap // _EVICT_DENOM)
            victims = heapq.nsmallest(drop, self._primary.items(),
                                      key=lambda kv: kv[1][2])
            for stale, _ in victims:
                del self._primary[stale]
            self.evictions += len(victims)
        row = [ps.payload, value, 0]
        fc = _fastcore.active
        if fc is not None:
            # a row is referenced by this store only and no value refers
            # back to it, so it is never on a cycle: keep the collector
            # from re-traversing it
            fc.untrack(row)
        self._primary[ps.hash64] = row

    def put_payload(self, payload: bytes, value) -> None:
        """Insert by raw payload, recomputing this process's 64-bit hash.

        The structural hash is SipHash over the payload and therefore
        *per-process*: entries crossing a process boundary (a snapshot
        load) must be re-keyed here rather than trusting the hash they
        were written under.
        """
        self.put(_PayloadKey(state_hash64(payload), payload), value)

    def get_payload(self, payload: bytes):
        """Look up by raw payload (the twin of :meth:`put_payload`)."""
        return self.get(_PayloadKey(state_hash64(payload), payload))

    def items_payload(self):
        """Iterate ``(payload, value)`` pairs (process-portable form).

        Spill entries (genuine 64-bit collisions) are included; iteration
        order is insertion order of the primary tier first.
        """
        for entry in self._primary.values():
            yield entry[0], entry[1]
        yield from self._spill.items()

    def snapshot(self) -> dict:
        return {"entries": len(self), "hits": self.hits,
                "misses": self.misses, "collisions": self.collisions,
                "evictions": self.evictions}


class _PayloadKey:
    """Minimal stand-in carrying the two fields :class:`HashStore` keys on."""

    __slots__ = ("hash64", "payload")

    def __init__(self, hash64: int, payload: bytes):
        self.hash64 = hash64
        self.payload = payload


class CanonKey:
    """Canonical-class key: a 64-bit lookup hash plus full identity data.

    ``h`` is the 64-bit fast-lookup hash; ``full`` carries the complete
    identity — the exact serialized state payload at ``CanonLevel.NONE``,
    or the 128-bit orbit hash (as an int) for the U2/PU2 levels (see
    :class:`CanonContext` for the collision discussion).  Equality always
    compares ``full``, so the 64-bit hash never merges keys on its own.
    Keys hold ints and bytes only, so like :class:`PackedState` they leave
    the cyclic collector when the extension is loaded.
    """

    __slots__ = ("n", "h", "full")

    def __init__(self, n: int, h: int, full):
        self.n = n
        self.h = h
        self.full = full
        fc = _fastcore.active
        if fc is not None:
            fc.untrack(self)

    def __hash__(self) -> int:
        return self.h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, CanonKey):
            return NotImplemented
        return self.n == other.n and self.full == other.full

    def __repr__(self) -> str:
        return f"CanonKey(n={self.n}, h={self.h:#018x})"


class HashKeyedMap:
    """Map keyed by the 64-bit hash of a :class:`CanonKey`.

    The primary map is int-keyed (cheapest possible lookup — the native
    ``U64Map`` when the extension is loaded, a plain dict otherwise); a
    genuine 64-bit collision spills the newcomer into a secondary dict
    keyed by the full :class:`CanonKey`, preserving exact-map semantics.
    """

    __slots__ = ("_primary", "_spill", "collisions")

    def __init__(self) -> None:
        fc = _fastcore.active
        self._primary = fc.U64Map() if fc is not None else {}
        self._spill: dict[CanonKey, object] = {}
        self.collisions = 0

    def __len__(self) -> int:
        return len(self._primary) + len(self._spill)

    def get(self, key: CanonKey, default=None):
        entry = self._primary.get(key.h)
        if entry is None:
            return default
        holder, value = entry
        if holder is key or holder == key:
            return value
        return self._spill.get(key, default)

    def put(self, key: CanonKey, value) -> None:
        entry = self._primary.get(key.h)
        if entry is None:
            self._primary[key.h] = (key, value)
            return
        holder, _ = entry
        if holder is key or holder == key:
            self._primary[key.h] = (holder, value)
            return
        if key not in self._spill:
            # count distinct spilled keys, not re-puts of already-spilled
            # ones — re-putting is an update, not a new collision
            self.collisions += 1
        self._spill[key] = value


# ----------------------------------------------------------------------
# Vectorized state transforms
# ----------------------------------------------------------------------

def apply_x_packed(pool: StatePool, ps: PackedState, qubit: int) -> PackedState:
    mask = 1 << (ps.n - 1 - qubit)
    out = ps.idx ^ mask
    order = np.argsort(out)
    # an X move permutes amplitudes, so the parent's quantized values carry
    return pool.intern(ps.n, out[order], ps.amp[order], ps.qamp[order])


def apply_cx_packed(pool: StatePool, ps: PackedState, control: int,
                    target: int, phase: int) -> PackedState:
    n = ps.n
    cshift = n - 1 - control
    tmask = 1 << (n - 1 - target)
    flip = ((ps.idx >> cshift) & 1) == phase
    out = np.where(flip, ps.idx ^ tmask, ps.idx)
    order = np.argsort(out)
    return pool.intern(n, out[order], ps.amp[order], ps.qamp[order])


def _cx_move_arrays(moves: list[CXMove]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(controls, phases, targets)`` int64 arrays of a CX move list."""
    controls = np.fromiter((mv.control for mv in moves), dtype=np.int64,
                           count=len(moves))
    phases = np.fromiter((mv.phase for mv in moves), dtype=np.int64,
                         count=len(moves))
    targets = np.fromiter((mv.target for mv in moves), dtype=np.int64,
                          count=len(moves))
    return controls, phases, targets


def _batch_cx_successors(pool: StatePool, ps: PackedState,
                         moves: list[CXMove],
                         arrays: tuple[np.ndarray, np.ndarray,
                                       np.ndarray] | None = None
                         ) -> list[PackedState]:
    """Apply every CX move of one expansion in a single array pass.

    One ``where`` / ``argsort`` / ``take_along_axis`` over the ``(K, m)``
    move-by-index matrix replaces ``K`` per-move NumPy round trips; the
    per-row results are interned individually (CX permutes amplitudes, so
    the parent's quantized values are reused).  The Python twin of the CX
    part of the native expansion.
    """
    n = ps.n
    if arrays is None:
        arrays = _cx_move_arrays(moves)
    controls, phases, targets = arrays
    idx, bits = ps.idx, ps.bits
    flip = bits[controls] == phases[:, None]            # (K, m)
    tmasks = np.int64(1) << (n - 1 - targets)
    out = np.where(flip, idx[None, :] ^ tmasks[:, None], idx[None, :])
    order = np.argsort(out, axis=1)
    sorted_idx = np.take_along_axis(out, order, axis=1)
    amps = ps.amp[order]
    qamps = ps.qamp[order]
    return [pool.intern(n, sorted_idx[k], amps[k], qamps[k])
            for k in range(len(moves))]


#: Below this cardinality the scalar merge application beats the NumPy one.
_SCALAR_MERGE_LIMIT = 64


def _merge_arrays_scalar(ps: PackedState, cmask: int, cval: int,
                         target: int, theta: float
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Plain-Python merge application for sparse cardinalities.

    Arithmetic is operation-identical to the NumPy path (same ``c*a0 -
    s*a1`` expressions on the same float64 values), so the two paths
    produce bit-identical states and may be mixed freely.
    """
    n = ps.n
    tmask = 1 << (n - 1 - target)
    out: list[tuple[int, float]] = []
    group0: dict[int, float] = {}
    group1: dict[int, float] = {}
    for i, a in zip(ps.idx.tolist(), ps.amp.tolist()):
        if (i & cmask) != cval:
            out.append((i, a))
        elif i & tmask:
            group1[i ^ tmask] = a
        else:
            group0[i] = a
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    for i, a0 in group0.items():
        a1 = group1.pop(i, 0.0)
        new0 = c * a0 - s * a1
        new1 = s * a0 + c * a1
        if abs(new0) > ATOL:
            out.append((i, new0))
        if abs(new1) > ATOL:
            out.append((i | tmask, new1))
    for i, a1 in group1.items():  # lone |1> partners
        new0 = c * 0.0 - s * a1
        new1 = s * 0.0 + c * a1
        if abs(new0) > ATOL:
            out.append((i, new0))
        if abs(new1) > ATOL:
            out.append((i | tmask, new1))
    out.sort()
    m = len(out)
    idx_arr = np.fromiter((i for i, _ in out), dtype=np.int64, count=m)
    amp_arr = np.fromiter((a for _, a in out), dtype=np.float64, count=m)
    return idx_arr, amp_arr


def _merge_arrays_numpy(ps: PackedState, cmask: int, cval: int,
                        target: int, theta: float
                        ) -> tuple[np.ndarray, np.ndarray]:
    """NumPy merge application for dense cardinalities."""
    n = ps.n
    idx, amp = ps.idx, ps.amp
    if cmask:
        sel = (idx & cmask) == cval
        keep_idx, keep_amp = idx[~sel], amp[~sel]
        ci, ca = idx[sel], amp[sel]
    else:
        keep_idx = idx[:0]
        keep_amp = amp[:0]
        ci, ca = idx, amp
    tshift = n - 1 - target
    tmask = 1 << tshift
    b1 = ((ci >> tshift) & 1).astype(bool)
    partner = ci ^ tmask
    if len(ci):
        pos = np.searchsorted(ci, partner)
        pos_c = np.minimum(pos, len(ci) - 1)
        found = ci[pos_c] == partner
    else:
        pos_c = np.zeros(0, dtype=np.int64)
        found = np.zeros(0, dtype=bool)
    m0 = ~b1
    a1_of_m0 = np.where(found[m0], ca[pos_c[m0]], 0.0)
    lone1 = b1 & ~found
    i0 = np.concatenate([ci[m0], partner[lone1]])
    a0 = np.concatenate([ca[m0], np.zeros(int(lone1.sum()))])
    a1 = np.concatenate([a1_of_m0, ca[lone1]])
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    new0 = c * a0 - s * a1
    new1 = s * a0 + c * a1
    k0 = np.abs(new0) > ATOL
    k1 = np.abs(new1) > ATOL
    out_idx = np.concatenate([keep_idx, i0[k0], i0[k1] ^ tmask])
    out_amp = np.concatenate([keep_amp, new0[k0], new1[k1]])
    order = np.argsort(out_idx)
    return out_idx[order], out_amp[order]


def _merge_arrays(ps: PackedState, controls: tuple[tuple[int, int], ...],
                  target: int, theta: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``(idx, amp)`` of a merge result, not yet interned.

    Kept separate from the interning wrapper so the frontier-batched
    expansion can quantize all merge results of one expansion in a single
    array pass before interning.
    """
    n = ps.n
    cmask = 0
    cval = 0
    for q, p in controls:
        shift = n - 1 - q
        cmask |= 1 << shift
        cval |= p << shift
    if ps.m <= _SCALAR_MERGE_LIMIT:
        return _merge_arrays_scalar(ps, cmask, cval, target, theta)
    return _merge_arrays_numpy(ps, cmask, cval, target, theta)


def apply_merge_packed(pool: StatePool, ps: PackedState,
                       controls: tuple[tuple[int, int], ...], target: int,
                       theta: float) -> PackedState:
    """Vectorized twin of :func:`repro.core.moves.apply_controlled_ry`."""
    idx, amp = _merge_arrays(ps, controls, target, theta)
    return pool.intern(ps.n, idx, amp)


def apply_move_packed(pool: StatePool, ps: PackedState,
                      move: Move) -> PackedState:
    """Apply any backward move to a packed state (vectorized dispatch)."""
    if isinstance(move, CXMove):
        return apply_cx_packed(pool, ps, move.control, move.target, move.phase)
    if isinstance(move, MergeMove):
        return apply_merge_packed(pool, ps, move.controls, move.target,
                                  move.theta)
    if isinstance(move, XMove):
        return apply_x_packed(pool, ps, move.qubit)
    return pool.from_qstate(move.apply(ps.to_qstate()))


# ----------------------------------------------------------------------
# Separability / heuristic
# ----------------------------------------------------------------------

def _ratio_balanced(idx: np.ndarray, amp: np.ndarray, shift: int
                    ) -> float | None:
    """Cofactor proportionality for a qubit whose column is balanced.

    Mirrors the tail of :func:`repro.states.analysis._cofactor_ratio`: the
    two cofactor index sets must match and the amplitude ratios agree with
    the first one to ``1e-8`` relative tolerance.  Runs as plain Python
    loops — at sparse cardinalities the array round trips cost more than
    the arithmetic they replace.
    """
    bit = 1 << shift
    i0: list[int] = []
    a0: list[float] = []
    i1: list[int] = []
    a1: list[float] = []
    for i, a in zip(idx.tolist(), amp.tolist()):
        if i & bit:
            i1.append(i ^ bit)
            a1.append(a)
        else:
            i0.append(i)
            a0.append(a)
    if i0 != i1:
        return None
    ref = a1[0] / a0[0]
    tol = 1e-8 * max(1.0, abs(ref))
    for x, y in zip(a0, a1):
        if abs(y / x - ref) > tol:
            return None
    return ref


def entangled_qubits_packed(ps: PackedState) -> tuple[int, ...]:
    """The non-separable qubits (cached on the interned object).

    The topology-aware heuristic needs the *set*, not just the count —
    its matching bound lives on the coupling subgraph these qubits induce.
    """
    if ps._entangled is None:
        fc = _fastcore.active
        if fc is not None:
            ps._entangled = fc.entangled_qubits(ps.n, ps.idx, ps.amp)
            return ps._entangled
        counts = ps.column_counts
        m = ps.m
        entangled = []
        for q, ones in enumerate(counts):
            if ones == 0 or ones == m:
                continue  # pinned at |0> / |1>: separable
            if 2 * ones != m or _ratio_balanced(
                    ps.idx, ps.amp, ps.n - 1 - q) is None:
                entangled.append(q)
        ps._entangled = tuple(entangled)
    return ps._entangled


def num_entangled_packed(ps: PackedState) -> int:
    """Count of non-separable qubits (cached on the interned object)."""
    return len(entangled_qubits_packed(ps))


def entanglement_h_packed(ps: PackedState) -> float:
    """The paper's admissible ``ceil(k/2)`` bound on a packed state."""
    return float((num_entangled_packed(ps) + 1) // 2)


# ----------------------------------------------------------------------
# Canonicalization
# ----------------------------------------------------------------------

def _pin_separable_arrays(ps: PackedState
                          ) -> tuple[np.ndarray, np.ndarray, bool]:
    """Array twin of :func:`repro.core.canonical.pin_separable_qubits`.

    Returns ``(idx, amp, pinned_any)``; when nothing was pinned the input
    arrays are returned as-is so the caller can keep reusing the state's
    cached bit matrix.  The first sweep runs off the cached column counts,
    which rejects the (typical) nothing-separable state in one pass of
    integer comparisons.  The native canonical key (``_fastcore.canon_key``)
    runs the same sweep.
    """
    n = ps.n
    idx, amp = ps.idx, ps.amp
    counts = ps.column_counts
    changed = True
    pinned_any = False
    while changed:
        changed = False
        m = len(idx)
        for q in range(n):
            shift = n - 1 - q
            if counts is not None:
                ones = counts[q]
            else:
                ones = int(((idx >> shift) & 1).sum())
            if ones == 0:
                continue  # already pinned at |0>
            if ones == m:
                out = idx ^ (1 << shift)
                order = np.argsort(out)
                idx, amp = out[order], amp[order]
                changed = pinned_any = True
                counts = None  # stale after any change
                continue
            if 2 * ones != m:
                continue  # entangled
            ratio = _ratio_balanced(idx, amp, shift)
            if ratio is None:
                continue  # entangled
            scale = math.sqrt(1.0 + ratio * ratio)
            keep = ((idx >> shift) & 1) == 0
            idx, amp = idx[keep], amp[keep] * scale
            changed = pinned_any = True
            counts = None
            m = len(idx)
    return idx, amp, pinned_any


def _rowwise_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise-lexicographic ``a[r] < b[r]`` over matching 2-D rows."""
    neq = a != b
    any_neq = neq.any(axis=1)
    first = np.argmax(neq, axis=1)
    rows = np.arange(len(a))
    return any_neq & (a[rows, first] < b[rows, first])


def _cell_symmetric_arrays(idx: np.ndarray, qamp: np.ndarray, n: int,
                           cell: list[int]) -> bool:
    """Array twin of ``canonical._cell_symmetric``: exact invariance under
    every adjacent transposition of the cell (hence its full symmetric
    group).

    The test is a *shortcut*, not a class decision: when it fires, the one
    emitted ordering produces the same minimized key as enumerating every
    intra-cell permutation would (a U(2)-symmetric cell makes all of them
    equivalent), so class members that fail the exact test and enumerate
    instead still arrive at the identical key.  It must never be used to
    steer anything else (e.g. whether refinement runs) — that would leak
    its flip-sensitivity into the class partition."""
    for a, b in zip(cell, cell[1:]):
        sa = n - 1 - a
        sb = n - 1 - b
        diff = ((idx >> sa) ^ (idx >> sb)) & 1
        swapped = idx ^ (diff * ((1 << sa) | (1 << sb)))
        order = np.argsort(swapped)
        if not np.array_equal(swapped[order], idx):
            return False
        if not np.array_equal(qamp[order], qamp):
            return False
    return True


def _partition_of(tags: list) -> list[tuple[int, ...]]:
    groups: dict = {}
    for q, tag in enumerate(tags):
        groups.setdefault(tag, []).append(q)
    return sorted(tuple(cell) for cell in groups.values())


def _wl_refine(idx: np.ndarray, bits: np.ndarray | None, ranks: np.ndarray,
               n: int, sig_tags: list) -> list[int]:
    """Iterated pairwise refinement of the qubit-signature partition.

    The analogue of ``canonical._pair_signature`` pushed to a fixpoint
    (Weisfeiler-Lehman style): for every ordered qubit pair, a count table
    over ``(|amp| rank, bit_a, bit_b)`` minimized over the four flip
    combinations; each round re-tags a qubit with the sorted multiset of
    ``(pair table, partner tag)`` blobs.  Every ingredient is permutation-
    and flip-covariant, so the final tags are class invariants — refining
    cells with them never splits an equivalence class, it only shrinks the
    candidate-ordering enumeration.  ``bits`` is read only without the
    extension, whose pair tables derive from ``idx``.
    """
    fc = _fastcore.active
    if fc is not None:
        pair_ids = fc.wl_pair_ids(n, idx, ranks)
    else:
        width = 4 * (int(ranks.max()) + 1)
        key3 = (ranks[None, None, :] * 4 + bits[:, None, :] * 2
                + bits[None, :, :])
        pair_base = (np.arange(n * n) * width).reshape(n, n, 1)
        table = np.bincount((pair_base + key3).ravel(),
                            minlength=n * n * width).reshape(n, n, width)
        cols = np.arange(width)
        best = table
        for flip in (1, 2, 3):
            variant = table[..., cols ^ flip]
            less = _rowwise_less(variant.reshape(-1, width),
                                 best.reshape(-1, width)).reshape(n, n)
            best = np.where(less[..., None], variant, best)
        # Content-derived integer tags: equal content always folds
        # equally, so tag equality — and the final sort of cells by tag —
        # is class covariant.  Each row's counts are folded by splitmix64,
        # not by the seeded ``hash`` of their bytes, so the cell order
        # (and every capped ordering behind a key) is the same in every
        # process.
        rows = best.reshape(n * n, width).T.astype(np.uint64)
        fold = np.zeros(n * n, dtype=np.uint64)
        for counts in rows:
            fold = _mix64(fold ^ counts, _MIX_A1, _MIX_A2)
        pair_ids = fold.reshape(n, n).tolist()
    tags = [hash(tag) for tag in sig_tags]
    partition = _partition_of(tags)
    for _round in range(n):
        new_tags = []
        for q in range(n):
            rows = sorted((pair_ids[q][p], tags[p])
                          for p in range(n) if p != q)
            new_tags.append(hash((tags[q], tuple(rows))))
        new_partition = _partition_of(new_tags)
        tags = new_tags
        if new_partition == partition:
            break  # stable: further rounds cannot split anything
        partition = new_partition
    return tags


def _refine_tags(n: int, idx: np.ndarray, absamp: np.ndarray,
                 sig_tags: list[int]) -> list[int]:
    """The refinement the native ordering step calls back for oversized
    ties: :func:`_wl_refine` over the dense ``|amp|`` ranks."""
    return _wl_refine(idx, None, _dense_ranks(absamp), n, sig_tags)


def _dense_ranks(absamp: np.ndarray) -> np.ndarray:
    """Dense integer ranks of ``absamp`` (order- and equality-preserving)."""
    if (absamp == absamp[0]).all():
        # uniform-magnitude state (the whole Dicke family): one rank
        return np.zeros(len(absamp), dtype=np.int64)
    order = np.argsort(absamp, kind="stable")
    sorted_vals = absamp[order]
    steps = np.empty(len(absamp), dtype=np.int64)
    steps[0] = 0
    np.cumsum(sorted_vals[1:] != sorted_vals[:-1], out=steps[1:])
    ranks = np.empty(len(absamp), dtype=np.int64)
    ranks[order] = steps
    return ranks


#: Refine the tie partition whenever the ordering enumeration would touch
#: more candidate elements than this (orderings x masks x entries); the
#: native ordering step compiles in the same value (REFINE_WORK_LIMIT).
_REFINE_WORK_LIMIT = 600


def _orderings_packed(idx: np.ndarray, qamp: np.ndarray, n: int,
                      perm_cap: int, bits: np.ndarray,
                      absamp: np.ndarray,
                      num_heavy: int = 1) -> list[list[int]]:
    """Candidate qubit orderings (vectorized analogue of
    ``canonical._permutation_candidates``).

    Same construction — flip-invariant qubit signatures, pairwise
    refinement of oversized tied cells, symmetric-cell shortcut, capped
    enumeration inside residual ties — with every fingerprint a count
    table (an exact stand-in for the reference's sorted multisets) and
    cells ordered by byte serialization (a kernel-native but equally
    class-invariant total order).  The Python twin of the ordering step
    inside ``_fastcore.canon_key``, which calls back only for refinement
    (:func:`_refine_tags`)."""
    m = len(idx)
    # fast path: pairwise-distinct flip-invariant column weights already
    # order the qubits completely — no histograms, no ties, one ordering
    counts = bits.sum(axis=1)
    weights = np.minimum(counts, m - counts).tolist()
    if len(set(weights)) == n:
        return [sorted(range(n), key=weights.__getitem__)]
    # per-qubit signature: commutative hash of the column's |amp| multiset,
    # flip-normalized by taking the smaller of (bit=1 sum, bit=0 sum).
    # A hash tie can only merge cells — covariant, hence still sound; the
    # enumeration below just visits a few extra orderings.
    with np.errstate(over="ignore"):
        mixed = _mix64(absamp.view(np.uint64), _MIX_A1, _MIX_A2)
        column_sums = bits.astype(np.uint64) @ mixed
        total = mixed.sum()
        flip_sums = total - column_sums
    sig_tags = [min(int(a), int(b))
                for a, b in zip(column_sums.tolist(), flip_sums.tolist())]

    cells: dict[int, list[int]] = {}
    for q in range(n):
        cells.setdefault(sig_tags[q], []).append(q)

    product = 1
    for cell in cells.values():
        for i in range(2, len(cell) + 1):
            product *= i
    small = product <= perm_cap
    est_work = min(product, perm_cap) * num_heavy * m
    if n > 2 and (not small or est_work > _REFINE_WORK_LIMIT) and \
            product > 1:
        # Iterated pairwise refinement splits most oversized ties, so the
        # capped permutation enumeration below rarely fires.  The trigger
        # (tie structure, heavy-mask count, cardinality) is a class
        # invariant; per-cell shortcuts below must not feed back into it.
        ranks = _dense_ranks(absamp)
        tags = _wl_refine(idx, bits, ranks, n, sig_tags)
        refined: dict[bytes, list[int]] = {}
        for q in range(n):
            refined.setdefault(tags[q], []).append(q)
        cells = refined
    ordered_cells = [cells[tag] for tag in sorted(cells)]

    per_cell_options: list[list[tuple[int, ...]]] = []
    multi = False
    total = 1
    probe_symmetry = not small or est_work > _REFINE_WORK_LIMIT // 2
    for cell in ordered_cells:
        if len(cell) == 1:
            per_cell_options.append([tuple(cell)])
            continue
        # Enumerating a symmetric cell's orderings is harmless (the orbit
        # hash deduplicates equivalent orderings), so the exact-symmetry
        # probe is only worth its cost when the cube would be expensive.
        if probe_symmetry and _cell_symmetric_arrays(idx, qamp, n, cell):
            per_cell_options.append([tuple(cell)])
            continue
        budget = max(1, perm_cap // total)
        options = list(islice(permutations(cell), budget))
        per_cell_options.append(options)
        total *= len(options)
        multi = True

    if not multi:
        return [[q for cell in ordered_cells for q in cell]]
    candidates: list[list[int]] = []
    for combo in iter_product(*per_cell_options):
        candidates.append([q for part in combo for q in part])
        if len(candidates) >= perm_cap:
            break
    return candidates


_IDENTITY_ORDERING: dict[int, list[int]] = {}


def _identity(n: int) -> list[int]:
    ordering = _IDENTITY_ORDERING.get(n)
    if ordering is None:
        ordering = _IDENTITY_ORDERING[n] = list(range(n))
    return ordering


# splitmix64 finalizer constants for the two independent orbit-hash lanes,
# single-sourced from repro.core.splitmix (shared with the C extension)
_MIX_A1 = np.uint64(MIX_A1)
_MIX_A2 = np.uint64(MIX_A2)
_MIX_B1 = np.uint64(MIX_B1)
_MIX_B2 = np.uint64(MIX_B2)
_GOLDEN = np.uint64(GOLDEN)
_ORBIT_MUL = np.uint64(ORBIT_MUL)
_U64 = U64_MASK


def _mix64(z: np.ndarray, c1: np.uint64, c2: np.uint64) -> np.ndarray:
    """Vectorized splitmix64-style finalizer (wraps modulo 2^64)."""
    z = (z + _GOLDEN) & np.uint64(_U64)
    z = ((z ^ (z >> np.uint64(30))) * c1)
    z = ((z ^ (z >> np.uint64(27))) * c2)
    return z ^ (z >> np.uint64(31))


def _mix_scalar_a(z: int, _g=GOLDEN, _c1=MIX_A1, _c2=MIX_A2) -> int:
    """Scalar twin of :func:`_mix64` with lane-A constants (mod 2^64)."""
    z = (z + _g) & _U64
    z = ((z ^ (z >> 30)) * _c1) & _U64
    z = ((z ^ (z >> 27)) * _c2) & _U64
    return z ^ (z >> 31)


def _mix_scalar_b(z: int, _g=GOLDEN, _c1=MIX_B1, _c2=MIX_B2) -> int:
    """Scalar twin of :func:`_mix64` with lane-B constants (mod 2^64)."""
    z = (z + _g) & _U64
    z = ((z ^ (z >> 30)) * _c1) & _U64
    z = ((z ^ (z >> 27)) * _c2) & _U64
    return z ^ (z >> 31)


def _orbit_hash_scalar(permuted_rows: list[list[int]], heavy_pos: np.ndarray,
                       fb_plus: list[int], fb_minus: list[int],
                       neg_mask: list[bool]) -> int:
    """Scalar twin of the batched orbit hash for tiny candidate sets.

    Bit-for-bit identical to the NumPy path (all arithmetic mod 2^64, the
    splitmix rounds inlined), so mixing the two paths within one search —
    class members can take different paths when their candidate counts
    differ — still produces identical keys.
    """
    heavy = heavy_pos.tolist()
    # bind the shared splitmix constants as locals for the inlined rounds
    g, a1c, a2c = GOLDEN, MIX_A1, MIX_A2
    b1c, b2c, omul = MIX_B1, MIX_B2, ORBIT_MUL
    distinct = set()
    for row in permuted_rows:
        # covariant mask prefilter: keep translations minimizing the
        # second-smallest translated index (ties all kept)
        if len(row) > 1:
            best_second = None
            kept: list[int] = []
            for h, hp in enumerate(heavy):
                mask = row[hp]
                lo = hi = None
                for value in row:
                    t = value ^ mask
                    if lo is None or t < lo:
                        lo, hi = t, lo
                    elif hi is None or t < hi:
                        hi = t
                if best_second is None or hi < best_second:
                    best_second = hi
                    kept = [h]
                elif hi == best_second:
                    kept.append(h)
        else:
            kept = list(range(len(heavy)))
        acc_a = 0
        acc_b = 0
        for h in kept:
            mask = row[heavy[h]]
            fb = fb_minus if neg_mask[h] else fb_plus
            cand_a = 0
            cand_b = 0
            for j, value in enumerate(row):
                z = ((((value ^ mask) * omul) & _U64)
                     ^ fb[j])
                z = (z + g) & _U64
                z = ((z ^ (z >> 30)) * a1c) & _U64
                z = ((z ^ (z >> 27)) * a2c) & _U64
                a = z ^ (z >> 31)
                cand_a = (cand_a + a) & _U64
                z = (a + g) & _U64
                z = ((z ^ (z >> 30)) * b1c) & _U64
                z = ((z ^ (z >> 27)) * b2c) & _U64
                cand_b = (cand_b + (z ^ (z >> 31))) & _U64
            # finalize per candidate so sums do not telescope across the
            # candidate grouping (the star/non-star counterexample)
            acc_a = (acc_a + _mix_scalar_a(cand_a)) & _U64
            acc_b = (acc_b + _mix_scalar_b(cand_b)) & _U64
        distinct.add((acc_a, acc_b))
    total_a = 0
    total_b = 0
    for a, b in distinct:
        # finalize per ordering for the same reason, one level up
        total_a = (total_a + _mix_scalar_a(a)) & _U64
        total_b = (total_b + _mix_scalar_b(b)) & _U64
    return (total_a << 64) | total_b


#: Below this many candidate elements (orderings x masks x entries) the
#: scalar orbit hash beats the NumPy kernel-launch overhead.
_SCALAR_ORBIT_LIMIT = 64


def _orbit_hash(idx: np.ndarray, qamp: np.ndarray, absamp: np.ndarray,
                orderings: list[list[int]], n: int, tie_cap: int,
                bits: np.ndarray | None,
                heavy_pos: np.ndarray | None = None) -> int:
    """128-bit commutative hash of the class-covariant candidate set.

    Every candidate is ``perm(S) ^ mask`` for a heavy-amplitude mask (the
    flip-covariant rule of ``canonical._xflip_min_raw``) with amplitudes
    sign-fixed by the mask element's sign.  Instead of sorting candidates
    and taking a lexicographic minimum, each candidate contributes a
    *commutative* (order-free) sum of per-element mixes, and the key is the
    sum over the *distinct* per-ordering hashes — no per-candidate sort is
    ever performed.  The candidate set is a class invariant, hence so is
    the hash; two different classes only share a key on a 128-bit hash
    collision (see :class:`CanonContext`).

    Distinct-ordering deduplication matters: a U(2)-symmetric qubit cell
    contributes one ordering when the symmetric shortcut fires and ``k!``
    equivalent orderings when a flipped class member enumerates them — as
    a *set* of per-ordering hashes both collapse to the same value.
    """
    m = len(idx)
    identity_only = len(orderings) == 1 and orderings[0] == _identity(n)
    if heavy_pos is None:
        heavy_pos = np.flatnonzero(absamp == absamp.max())[:max(1, tie_cap)]
    num_masks = len(heavy_pos)
    if len(orderings) * num_masks * m <= _SCALAR_ORBIT_LIMIT:
        if identity_only:
            rows = [idx.tolist()]
        else:
            weights = 1 << np.arange(n - 1, -1, -1)
            perms = np.asarray(orderings, dtype=np.intp)
            rows = np.einsum("i,kim->km", weights, bits[perms]).tolist()
        return _orbit_hash_scalar(
            rows, heavy_pos,
            qamp.view(np.uint64).tolist(),
            (-qamp).view(np.uint64).tolist(),
            (qamp[heavy_pos] < 0.0).tolist())
    if identity_only:
        permuted = idx.view(np.uint64)[None, :]
    else:
        weights = 1 << np.arange(n - 1, -1, -1)
        perms = np.asarray(orderings, dtype=np.intp)
        permuted = np.einsum("i,kim->km", weights,
                             bits[perms]).view(np.uint64)
    num_orderings = len(orderings)
    masks = permuted[:, heavy_pos]                      # (K, H)
    neg_mask = qamp[heavy_pos] < 0.0                    # (H,)
    fb_plus = qamp.view(np.uint64)
    fb_minus = (-qamp).view(np.uint64)
    cand = permuted[:, None, :] ^ masks[:, :, None]     # (K, H, m)
    if m > 1:
        # covariant mask prefilter: keep translations minimizing the
        # second-smallest translated index (ties all kept)
        second = np.partition(cand, 1, axis=2)[:, :, 1]
        keep = second == second.min(axis=1, keepdims=True)
        if num_orderings == 1:
            hsel = np.flatnonzero(keep[0])
            cand_sel = cand[0, hsel]
        else:
            ksel, hsel = np.nonzero(keep)
            cand_sel = cand[ksel, hsel]                 # (S, m)
    else:
        ksel = np.repeat(np.arange(num_orderings), num_masks)
        hsel = np.tile(np.arange(num_masks), num_orderings)
        cand_sel = cand.reshape(-1, m)
    fb_sel = np.where(neg_mask[hsel][:, None], fb_minus, fb_plus)
    with np.errstate(over="ignore"):
        lane_a = _mix64(cand_sel * _ORBIT_MUL ^ fb_sel,
                        _MIX_A1, _MIX_A2)
        # second lane: an independent per-element finalization of lane a
        # (a joint collision then needs both element-sums to coincide)
        lane_b = _mix64(lane_a, _MIX_B1, _MIX_B2)
        # finalize per candidate so sums do not telescope across the
        # candidate grouping (the star/non-star counterexample)
        cand_fin_a = _mix64(lane_a.sum(axis=1), _MIX_A1, _MIX_A2)
        cand_fin_b = _mix64(lane_b.sum(axis=1), _MIX_B1, _MIX_B2)
        if num_orderings == 1:
            ord_a = int(cand_fin_a.sum())
            ord_b = int(cand_fin_b.sum())
            return ((_mix_scalar_a(ord_a) << 64) | _mix_scalar_b(ord_b))
        # per-ordering sums: nonzero() emits rows in ordering-major order,
        # so segment boundaries come from one searchsorted
        bounds = np.searchsorted(ksel, np.arange(num_orderings))
        acc_a = np.add.reduceat(cand_fin_a, bounds)
        acc_b = np.add.reduceat(cand_fin_b, bounds)
    distinct = set(zip(acc_a.tolist(), acc_b.tolist()))
    total_a = 0
    total_b = 0
    for a, b in distinct:
        # finalize per ordering for the same reason, one level up
        total_a = (total_a + _mix_scalar_a(a)) & _U64
        total_b = (total_b + _mix_scalar_b(b)) & _U64
    return (total_a << 64) | total_b


class CanonContext:
    """Per-run canonicalization engine: one key memo and a U(2)-class tier.

    ``key`` looks a state up in one memo, a :class:`HashStore`: ``store``
    (an attached memory's ``canon_store``, shared across searches) or else
    a per-run ``HashStore(cache_cap)``, and computes and stores the key on
    a miss; ``hits``/``misses`` count this run's lookups only.  A*'s native
    open list runs the same lookup, computation and tier on a popped
    child's rows and updates these counters in place
    (:func:`native_open_list`); beam and IDA* call ``key``.  The U(2)-class
    tier exploits that the U(2) orbit hash (pin + X-translations of the
    identity ordering) is cheaper than the full permutation enumeration:
    the full PU2 key is computed once per *U(2) class* and shared by every
    member state, which in Dicke-family searches cuts full computations
    several-fold.  Both only deduplicate identical key computations, so
    the class partition is unchanged.

    Class identity at the U2/PU2 levels is the 128-bit orbit hash —
    transposition-table style (Zobrist hashing): two inequivalent classes
    share a key only on a 128-bit collision (probability < 2**-90 for any
    realistic search), while state identity, parent chains, and circuit
    verification remain exact.  ``CanonLevel.NONE`` keys stay fully exact.

    ``topology`` restricts the PU2 permutation freedom to coupling-graph
    *automorphisms*: on a restricted device, relabeling qubits is free
    exactly when conjugating a native circuit by the permutation keeps
    every CNOT on a coupled pair, i.e. for graph automorphisms.  The
    candidate set then ranges over the (capped) automorphism group instead
    of the signature-guided orderings — a fixed, state-independent list,
    so class covariance is immediate, and truncation at ``perm_cap`` can
    only split classes (sound).  ``None`` (all-to-all, normalized by
    :func:`repro.arch.topologies.native_topology`) keeps the seed-exact
    path.  Keys produced under different topologies are different
    namespaces; :class:`repro.core.memory.SearchMemory` separates them by
    fingerprint.
    """

    __slots__ = ("level", "tie_cap", "perm_cap", "memo", "hits", "misses",
                 "u2_cache", "full_computations", "topology",
                 "_auto_orderings", "timers")

    def __init__(self, level: CanonLevel, tie_cap: int, perm_cap: int,
                 cache_cap: int, store=None, topology=None):
        self.level = level
        self.tie_cap = tie_cap
        self.perm_cap = perm_cap
        self.memo = HashStore(cache_cap) if store is None else store
        self.hits = self.misses = 0
        self.u2_cache = BoundedCache(cache_cap)
        self.topology = topology
        self._auto_orderings: list[list[int]] | None = None
        self.full_computations = 0
        #: optional profiling sink: a mutable mapping whose "hashing" entry
        #: accrues the orbit-hash seconds (set by the engine runtime under
        #: ``SearchConfig(profile=True)``; None = no timing overhead)
        self.timers = None

    def key(self, ps: PackedState) -> CanonKey:
        val = self.memo.get(ps)
        if val is None:
            self.misses += 1
            val = self._compute(ps)
            self.memo.put(ps, val)
        else:
            self.hits += 1
        return val

    def _compute(self, ps: PackedState) -> CanonKey:
        n = ps.n
        level = self.level
        if level is CanonLevel.NONE:
            return CanonKey(n, ps.hash64, ps.payload)
        pu2 = level is CanonLevel.PU2
        fc = _fastcore.active
        if fc is not None:
            # one native call: pinning, requantization, the U(2) hash and,
            # on a U(2)-class miss, the orderings and the full hash; the
            # tier's bookkeeping stays here
            key, u2_miss, seconds = fc.canon_key(
                ps, pu2, self.tie_cap, self.perm_cap,
                self.u2_cache.data if pu2 else None,
                None if self.topology is None else self._automorphisms(n),
                self.timers is not None, _QUANT_SCALE)
            if seconds is not None:
                self.timers["hashing"] = self.timers.get("hashing", 0.0) \
                    + seconds
            if pu2:
                if u2_miss is None:
                    self.u2_cache.hits += 1
                else:
                    self.u2_cache.misses += 1
                    self.full_computations += 1
                    self.u2_cache.put(u2_miss, key)
            return key
        idx, amp, pinned = _pin_separable_arrays(ps)
        if pinned:
            qamp = quantize_array(amp)
        else:
            qamp = ps.qamp
        absamp = np.abs(qamp)
        heavy_pos = np.flatnonzero(
            absamp == absamp.max())[:max(1, self.tie_cap)]
        u2_hash = self._timed_hash(idx, qamp, absamp, [_identity(n)], n,
                                   None, heavy_pos)
        if not pu2:
            return CanonKey(n, u2_hash & _U64, u2_hash)
        full = self.u2_cache.get(u2_hash)
        if full is None:
            full = self._compute_full(n, idx, qamp, absamp, pinned, ps,
                                      u2_hash, heavy_pos)
            self.u2_cache.put(u2_hash, full)
        return full

    def _timed_hash(self, idx, qamp, absamp, orderings, n, bits,
                    heavy_pos) -> int:
        """:func:`_orbit_hash`, timed into ``timers`` when profiling."""
        if self.timers is None:
            return _orbit_hash(idx, qamp, absamp, orderings, n,
                               self.tie_cap, bits, heavy_pos)
        t0 = _perf_counter()
        value = _orbit_hash(idx, qamp, absamp, orderings, n, self.tie_cap,
                            bits, heavy_pos)
        self.timers["hashing"] = self.timers.get("hashing", 0.0) \
            + _perf_counter() - t0
        return value

    def _automorphisms(self, n: int) -> list[list[int]]:
        if self._auto_orderings is None:
            self._auto_orderings = \
                self.topology.automorphism_orderings(self.perm_cap)
        return self._auto_orderings

    def _compute_full(self, n: int, idx: np.ndarray, qamp: np.ndarray,
                      absamp: np.ndarray, pinned: bool, ps: PackedState,
                      u2_hash: int, heavy_pos: np.ndarray) -> CanonKey:
        self.full_computations += 1
        if pinned:
            shifts = np.arange(n - 1, -1, -1, dtype=np.int64)[:, None]
            bits = (idx[None, :] >> shifts) & 1
        else:
            bits = ps.bits
        if self.topology is not None:
            # restricted PU2: the free relabelings are exactly the coupling
            # automorphisms — a fixed ordering list shared by every state
            orderings = self._automorphisms(n)
        else:
            orderings = _orderings_packed(idx, qamp, n, self.perm_cap,
                                          bits, absamp,
                                          num_heavy=len(heavy_pos))
        if len(orderings) == 1 and orderings[0] == _identity(n):
            # the identity ordering's candidate set IS the U(2) orbit
            return CanonKey(n, u2_hash & _U64, u2_hash)
        full_hash = self._timed_hash(idx, qamp, absamp, orderings, n, bits,
                                     heavy_pos)
        return CanonKey(n, full_hash & _U64, full_hash)


def canonical_key_packed(ps: PackedState, level: CanonLevel,
                         tie_cap: int, perm_cap: int) -> CanonKey:
    """Canonical-class key of a packed state (paper Sec. V-B).

    Applies the same free transformations as
    :func:`repro.core.canonical.canonical_key` — separable-qubit pinning,
    X-translation by heavy-amplitude masks, signature-guided qubit
    permutation, global-sign fix — with equivalent class partitioning
    under the same caps, but identified by a 128-bit orbit hash instead of
    a minimized representative (see :class:`CanonContext` for the
    collision discussion).  A shared key certifies equivalence up to that
    hash; keys are not interchangeable with the legacy tuple keys.

    Stateless convenience wrapper; searches use :class:`CanonContext`,
    which adds its key memo and U(2)-class tier on top of the same
    computation.
    """
    return CanonContext(level, tie_cap, perm_cap, cache_cap=2).key(ps)


# ----------------------------------------------------------------------
# Vectorized successor enumeration
# ----------------------------------------------------------------------

_CX_MOVES_MEMO: dict[tuple, tuple] = {}
_X_MOVES_MEMO: dict[int, list[XMove]] = {}


def _cx_moves_entry(ps: PackedState, topology=None) -> tuple:
    """Memoized ``(moves, controls, phases, targets)`` for one expansion.

    The move arrays ride in the memo next to the move list so the batched
    applier never rebuilds them — almost every expanded state shares the
    all-polarities column pattern, making this one dict hit.
    """
    n = ps.n
    m = ps.m
    h0mask = 0
    h1mask = 0
    for q, ones in enumerate(ps.column_counts):
        if ones < m:
            h0mask |= 1 << q
        if ones > 0:
            h1mask |= 1 << q
    if topology is None:
        memo_key = (n, h0mask, h1mask)
        masks = None
    else:
        memo_key = (n, h0mask, h1mask, topology.canonical_key())
        masks = topology.neighbor_masks()
    entry = _CX_MOVES_MEMO.get(memo_key)
    if entry is None:
        moves = []
        for control in range(n):
            h0 = (h0mask >> control) & 1
            h1 = (h1mask >> control) & 1
            cmask = -1 if masks is None else masks[control]
            for target in range(n):
                if target == control:
                    continue
                if not (cmask >> target) & 1:
                    continue  # uncoupled pair: not a native CNOT
                if h0:
                    moves.append(CXMove(control=control, phase=0,
                                        target=target))
                if h1:
                    moves.append(CXMove(control=control, phase=1,
                                        target=target))
        fc = _fastcore.active
        if fc is not None:
            for move in moves:
                fc.untrack(move)  # a frozen dataclass of three ints
        entry = (moves, *_cx_move_arrays(moves))
        _CX_MOVES_MEMO[memo_key] = entry
    return entry


def _x_moves(n: int) -> list[XMove]:
    """The ``n`` free X moves, memoized per width for the native call."""
    moves = _X_MOVES_MEMO.get(n)
    if moves is None:
        moves = _X_MOVES_MEMO[n] = [_fastcore.active.untrack(XMove(qubit=q))
                                    for q in range(n)]
    return moves


def enumerate_cx_packed(ps: PackedState, topology=None) -> list[CXMove]:
    """Twin of :func:`repro.core.transitions.enumerate_cx`: the cached
    column counts decide which polarities fire, and the (frozen) move list
    is memoized per ``(n, has-zero, has-one)`` column pattern — almost every
    expanded state shares the all-polarities pattern, so enumeration is one
    dict hit.  A ``topology`` restricts emission to coupled pairs and joins
    the memo key by its canonical identity; ``None`` is the identity fast
    path (bit-identical to seed behavior)."""
    return _cx_moves_entry(ps, topology)[0]


def _pairs_and_singles_packed(ps: PackedState, target: int
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                         np.ndarray, np.ndarray]:
    """Split the index set by the ``target`` pairing (vectorized).

    Returns ``(i0, a0, a1, pair_mask, single_mask)`` with ``i0`` ascending —
    the ordering the reference ``_pairs_and_singles`` produces — and the
    masks locating pair-0 members and singles within the sorted index set.
    """
    n = ps.n
    tshift = n - 1 - target
    tmask = 1 << tshift
    idx, amp = ps.idx, ps.amp
    partner = idx ^ tmask
    pos = np.searchsorted(idx, partner)
    pos_c = np.minimum(pos, len(idx) - 1)
    found = idx[pos_c] == partner
    is0 = ((idx >> tshift) & 1) == 0
    pair0 = is0 & found
    i0 = idx[pair0]
    a0 = amp[pair0]
    a1 = amp[pos_c[pair0]]
    return i0, a0, a1, pair0, ~found


def _merge_representatives(bits: np.ndarray, pair_mask: np.ndarray,
                           single_mask: np.ndarray,
                           other: list[int]) -> list[int]:
    """Pattern-lattice pruning: drop control qubits that cannot refine the
    pair/single partition.

    A qubit whose combined bit column over ``pairs + singles`` is constant,
    or equal (up to complement) to an earlier qubit's column, induces the
    same cube partitions as a smaller/earlier subset, so the reference
    enumeration's dedup discards every cube it appears in.  Restricting
    subsets to one representative per distinct column is therefore exactly
    move-set-preserving (including the recorded control cubes, because the
    first-achieving cube of any merge never contains a redundant qubit).
    """
    combined = np.concatenate(
        [bits[:, pair_mask], bits[:, single_mask]], axis=1)
    combined ^= combined[:, :1]  # complement-normalize: first bit 0
    reps: list[int] = []
    seen: set[bytes] = set()
    for q in other:
        col = combined[q]
        if not col.any():
            continue  # constant column: never splits anything
        key = col.tobytes()
        if key in seen:
            continue  # duplicate/complement column of an earlier qubit
        seen.add(key)
        reps.append(q)
    return reps


def enumerate_merges_packed(ps: PackedState, target: int,
                            max_controls: int | None = None,
                            topology=None) -> list[MergeMove]:
    """Twin of :func:`repro.core.transitions.enumerate_merges`.

    Move-set-identical to the reference (property-tested), but pairs and
    singles are split vectorized, the control-cube lattice is restricted to
    pattern-distinguishing qubit columns, and cube bucketing runs on
    per-pair bit codes precomputed from the bit matrix.  A ``topology``
    restricts control qubits to coupled neighbors of ``target`` (the
    multiplexor decomposition only emits control-target CNOTs), mirroring
    the reference enumeration.  Its native counterpart has no entry point
    of its own: it runs inside ``_fastcore.successors`` (every target of
    an expansion) and ``_fastcore.best_merge`` (the sparse reduction).
    """
    n = ps.n
    if max_controls is None:
        max_controls = n - 1
    max_controls = min(max_controls, n - 1)
    if topology is None:
        other = [q for q in range(n) if q != target]
    else:
        tmask = topology.neighbor_masks()[target]
        other = [q for q in range(n) if q != target and (tmask >> q) & 1]
    i0, a0, a1, pair_mask, single_mask = _pairs_and_singles_packed(ps, target)
    num_pairs = len(i0)
    if num_pairs == 0:
        return []
    bits = ps.bits
    reps = _merge_representatives(bits, pair_mask, single_mask, other)
    num_reps = len(reps)
    kmax = min(max_controls, num_reps)

    # per-pair / per-single rep-bit codes (bit j of the code <-> reps[j])
    pcodes = np.zeros(num_pairs, dtype=np.int64)
    scodes = np.zeros(int(single_mask.sum()), dtype=np.int64)
    for j, q in enumerate(reps):
        pcodes |= bits[q, pair_mask].astype(np.int64) << j
        scodes |= bits[q, single_mask].astype(np.int64) << j
    pcl = pcodes.tolist()
    scl = scodes.tolist()
    i0l = i0.tolist()
    a0l = a0.tolist()
    a1l = a1.tolist()

    moves: list[MergeMove] = []
    emitted: set[tuple[tuple[int, ...], int]] = set()
    pair_range = range(num_pairs)

    for k in range(0, kmax + 1):
        for subset in combinations(range(num_reps), k):
            # bucketing by the masked rep-code is injective per subset, so
            # compressing codes to contiguous bits would change nothing
            smask = 0
            for j in subset:
                smask |= 1 << j
            buckets: dict[int, list[int]] = {}
            for p in pair_range:
                code = pcl[p] & smask
                group = buckets.get(code)
                if group is None:
                    buckets[code] = [p]
                else:
                    group.append(p)
            single_set = {c & smask for c in scl}
            for code, members in buckets.items():
                if code in single_set:
                    continue  # the cube would split a lone index
                ref = members[0]
                ra0 = a0l[ref]
                ra1 = a1l[ref]
                if len(members) > 1:
                    scale = abs(ra0) + abs(ra1)
                    consistent = True
                    for p in members[1:]:
                        pa0 = a0l[p]
                        pa1 = a1l[p]
                        if abs(pa1 * ra0 - ra1 * pa0) > \
                                MERGE_RATIO_RTOL * scale * (abs(pa0) +
                                                            abs(pa1)):
                            consistent = False
                            break
                    if not consistent:
                        continue
                ref_idx = i0l[ref]
                controls = tuple(
                    (reps[j], (ref_idx >> (n - 1 - reps[j])) & 1)
                    for j in subset)
                selected = tuple(i0l[p] for p in members)
                for direction in (0, 1):
                    dedupe = (selected, direction)
                    if dedupe in emitted:
                        continue  # same effect, cheaper cube already found
                    emitted.add(dedupe)
                    theta = merge_angle(ra0, ra1, direction)
                    moves.append(MergeMove(target=target, theta=theta,
                                           controls=controls))
    return moves


def successors_packed(pool: StatePool, ps: PackedState,
                      max_merge_controls: int | None = None,
                      include_x_moves: bool = False,
                      topology=None) -> list[tuple[Move, PackedState]]:
    """Enumerate ``(move, next_state)`` arcs leaving a packed state.

    Emission order matches :func:`repro.core.transitions.successors`
    (property-tested), so successor-level tie-breaking is identical to the
    reference enumeration.  ``topology`` restricts the move set to native
    moves, exactly as in the reference.

    With the extension loaded the whole expansion is one native call
    (``_fastcore.successors``): it materializes every X, CX and merge
    child, builds the ``MergeMove``s, quantizes, serializes, hashes and
    interns each child into ``pool`` (collision chains included), and
    returns the arcs plus the pool counter deltas.  A*'s native open list
    (:func:`native_open_list`) runs the same expansion code but interns
    only the children it pops.  The Python path below
    is its bit-identical twin: CX successors are materialized in one
    batched array pass, and all merge results of the expansion are
    quantized in a single frontier-batched pass before interning
    (elementwise rounding, so the produced states are bit-identical to
    per-move quantization).
    """
    fc = _fastcore.active
    if fc is not None:
        n = ps.n
        cx_moves, controls, phases, targets = _cx_moves_entry(ps, topology)
        arcs, interned, hits, collisions = fc.successors(
            pool._table,
            None if state_hash64 is _SIPHASH64 else state_hash64,
            ps, _x_moves(n) if include_x_moves else None,
            cx_moves, controls, phases, targets,
            n - 1 if max_merge_controls is None
            else min(max_merge_controls, n - 1),
            None if topology is None else topology.neighbor_masks(),
            ATOL, MERGE_RATIO_RTOL, _QUANT_SCALE)
        pool.interned += interned
        pool.hits += hits
        pool.hash_collisions += collisions
        return arcs
    out: list[tuple[Move, PackedState]] = []
    if include_x_moves:
        for q in range(ps.n):
            nxt = apply_x_packed(pool, ps, q)
            if nxt is not ps:
                out.append((XMove(qubit=q), nxt))
    cx_entry = _cx_moves_entry(ps, topology)
    cx_moves = cx_entry[0]
    if cx_moves:
        for move, nxt in zip(cx_moves, _batch_cx_successors(pool, ps,
                                                            cx_moves,
                                                            cx_entry[1:])):
            if nxt is not ps:
                out.append((move, nxt))
    merge_moves: list[MergeMove] = []
    merge_arrays: list[tuple[np.ndarray, np.ndarray]] = []
    for target in range(ps.n):
        for move in enumerate_merges_packed(ps, target, max_merge_controls,
                                            topology):
            merge_moves.append(move)
            merge_arrays.append(_merge_arrays(ps, move.controls,
                                              move.target, move.theta))
    if merge_moves:
        amps = [amp for _, amp in merge_arrays]
        qcat = quantize_array(amps[0] if len(amps) == 1
                              else np.concatenate(amps))
        off = 0
        for move, (midx, mamp) in zip(merge_moves, merge_arrays):
            end = off + len(midx)
            out.append((move, pool.intern(ps.n, midx, mamp,
                                          qcat[off:end])))
            off = end
    return out


def native_open_list(pool: StatePool, n: int, weight: float,
                     canon: CanonContext, transposition=None,
                     max_merge_controls: int | None = None,
                     include_x_moves: bool = False, topology=None):
    """A*'s native open list over ``pool`` (``_fastcore.OpenList``), or
    ``None`` when the extension is not active.

    It takes the move set :func:`successors_packed` takes, and its
    ``expand`` runs the same native expansion: the children of a
    ``successors_packed`` call, in its order, but kept as rows until the
    open list pops them (see ``core/astar.py``).  Its ``pop`` runs the
    class tier on a popped child's rows: the canonical key of ``canon``
    (its memo, U(2)-class tier and counters, updated in place), a fresh
    ``best_g`` and the unconditional entries of ``transposition``.  A
    patched :func:`state_hash64` is passed through, as the expansion
    passes it.
    """
    fc = _fastcore.active
    if fc is None:
        return None
    level = canon.level
    return fc.OpenList(
        pool, n, None if state_hash64 is _SIPHASH64 else state_hash64,
        _cx_moves_entry if topology is None
        else partial(_cx_moves_entry, topology=topology),
        _x_moves(n) if include_x_moves else None,
        n - 1 if max_merge_controls is None
        else min(max_merge_controls, n - 1),
        None if topology is None else topology.neighbor_masks(),
        weight, ATOL, MERGE_RATIO_RTOL, _QUANT_SCALE,
        canon, level.value,
        canon._automorphisms(n) if level is CanonLevel.PU2
        and canon.topology is not None else None,
        HashKeyedMap(), transposition)


if _fastcore.available():
    # the native expansion, open list and canonical key build kernel
    # objects themselves, the open list's class tier updates the memo
    # containers in place, and the canonical key calls back for tie
    # refinement
    _fastcore._module.bind_kernel(PackedState, MergeMove, CanonKey,
                                  StatePool, CanonContext, HashStore,
                                  BoundedCache, HashKeyedMap, _PayloadKey,
                                  _refine_tags)
