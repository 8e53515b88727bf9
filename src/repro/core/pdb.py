"""Abstraction-keyed pattern database over entanglement signatures.

The service's traffic flywheel (ROADMAP open item 2): every settled
request leaves evidence — proven-optimal costs and exhaustion lower
bounds — keyed not by the exact state (the transposition table and the
request cache already own that) but by the state's *entanglement
signature*, an abstraction under which structurally similar targets
collide:

    (register size,
     entangled-qubit count,
     Schmidt-rank profile over the canonical cut family,
     MI-cluster shape)

all computed via :mod:`repro.states.analysis` with thresholds pinned in
:mod:`repro.constants` (``MI_PAIR_THRESHOLD``), so two processes always
agree on a state's signature.

**Two bound tiers, one admissibility line.**  The signature determines a
*structural* lower bound that is admissible for every state of the
class, because both components are per-state theorems evaluated on
signature data alone: the paper's entangled-qubit bound ``ceil(k/2)``
(:func:`repro.states.analysis.entanglement_lower_bound`) and the
Schmidt-cut bound ``max_cut ceil(log2 rank)`` (a CNOT at most doubles
the rank across any cut — :mod:`repro.core.heuristic`).
:meth:`PatternDatabase.admissible_bound` memoizes it per signature, so a
family of same-shaped targets pays the SVD sweep once — and exact modes
may seed IDA*'s deepening bound with it without changing any cost.

Observed *evidence* — a member's proven-optimal cost or exhaustion lower
bound — is deliberately **not** folded into the admissible tier: a proof
about one member of an abstraction class says nothing admissible about
an unseen member (the class is not cost-equivalent).  Evidence instead
powers:

* :meth:`PatternDatabase.learned_bound` — the *inadmissible* tier behind
  the service's ``fast`` request mode: seed the deepening bound with the
  cheapest solved member cost, reach a feasible circuit in fewer rounds,
  and let the simulator verify the served output (which is never marked
  optimal unless the sound lower bound actually reaches its cost);
* :meth:`PatternDatabase.audit` — the admissibility self-check: for
  every signature holding a proven-optimal member cost, the structural
  bound must not exceed it (gated by ``bench_nearhit``).

Persistence rides the memory snapshot/WAL exactly like the other stores
(improve-only merge, delta markers), behind the same regime fingerprint.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

from repro.constants import (
    MI_PAIR_THRESHOLD,
    PDB_CAP,
    PDB_IMPROVE_LOG_CAP,
    PDB_SIGNATURE_CUT_CAP,
)
from repro.exceptions import MemoryCompatibilityError
from repro.states.qstate import QState

__all__ = [
    "entanglement_signature",
    "coarse_signature",
    "structural_bound",
    "signature_to_list",
    "signature_from_list",
    "state_from_payload",
    "PatternDatabase",
]


def entanglement_signature(state: QState) -> tuple:
    """The abstraction key: ``(n, k, rank_profile, cluster_shape)``.

    * ``n`` — register size;
    * ``k`` — entangled (non-separable) qubit count;
    * ``rank_profile`` — multiset of Schmidt ranks over the canonical cut
      family (:func:`repro.core.heuristic._cut_family` capped at
      :data:`~repro.constants.PDB_SIGNATURE_CUT_CAP` random cuts, seed
      0), encoded as ``((rank, count), ...)`` sorted by rank;
    * ``cluster_shape`` — sizes of the connected components of the
      mutual-information pair graph
      (:func:`repro.states.analysis.entangled_pairs_mi` at the pinned
      :data:`~repro.constants.MI_PAIR_THRESHOLD`), sorted descending.

    Every component is invariant under qubit relabeling *of equal
    structure* and fully determined by the state, so equal states always
    collide and the key is portable across processes.
    """
    from repro.core.heuristic import _cut_family
    from repro.states.analysis import (
        entangled_pairs_mi,
        entangled_qubits,
        schmidt_rank,
    )

    n = state.num_qubits
    entangled = entangled_qubits(state)
    k = len(entangled)
    rank_counts: dict[int, int] = {}
    if k >= 2 and state.cardinality > 1:
        for cut in _cut_family(n, PDB_SIGNATURE_CUT_CAP, 0):
            rank = schmidt_rank(state, list(cut))
            rank_counts[rank] = rank_counts.get(rank, 0) + 1
    rank_profile = tuple(sorted(rank_counts.items()))
    cluster_shape = _cluster_shape(n, entangled_pairs_mi(
        state, MI_PAIR_THRESHOLD))
    return (n, k, rank_profile, cluster_shape)


def _cluster_shape(n: int, pairs: list[tuple[int, int]]) -> tuple[int, ...]:
    """Connected-component sizes of the MI pair graph (descending)."""
    parent = list(range(n))

    def find(q: int) -> int:
        while parent[q] != q:
            parent[q] = parent[parent[q]]
            q = parent[q]
        return q

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    sizes: dict[int, int] = {}
    for q in range(n):
        root = find(q)
        sizes[root] = sizes.get(root, 0) + 1
    return tuple(sorted((s for s in sizes.values() if s > 1), reverse=True))


def coarse_signature(signature: tuple) -> tuple:
    """The near-hit index key: the signature minus its rank profile.

    Schmidt ranks are the one component that moves under small amplitude
    perturbations (a rank can split at the quantization tolerance), so
    the request cache's similarity index falls back to this coarser key
    — ``(n, k, cluster_shape)`` — when no donor shares the full
    signature.  A coarse collision still only nominates *candidates*;
    every adapted circuit is simulator-verified before serving.
    """
    n, k, _ranks, clusters = signature
    return (n, k, clusters)


def structural_bound(signature: tuple) -> int:
    """Admissible CNOT lower bound as a pure function of the signature.

    ``max(ceil(k/2), max over the rank profile of ceil(log2 rank))`` —
    both components are admissible for every state carrying this
    signature (see the module docstring), and both are evaluated on
    signature data alone, so the value may be cached per signature and
    shared across processes.
    """
    _n, k, rank_profile, _clusters = signature
    bound = (int(k) + 1) // 2
    for rank, _count in rank_profile:
        if rank > 1:
            bound = max(bound, int(math.ceil(math.log2(int(rank)))))
    return bound


def signature_to_list(signature: tuple) -> list:
    """JSON-portable encoding of a signature (inverse below)."""
    n, k, rank_profile, clusters = signature
    return [int(n), int(k),
            [[int(r), int(c)] for r, c in rank_profile],
            [int(s) for s in clusters]]


def signature_from_list(enc: list) -> tuple:
    """Inverse of :func:`signature_to_list`; raises on corruption."""
    try:
        n, k, rank_profile, clusters = enc
        return (int(n), int(k),
                tuple((int(r), int(c)) for r, c in rank_profile),
                tuple(int(s) for s in clusters))
    except (ValueError, TypeError) as exc:
        raise MemoryCompatibilityError(
            f"corrupted PDB signature {enc!r}: {exc}") from exc


def state_from_payload(payload: bytes) -> QState:
    """Decode a packed-kernel payload back into a :class:`QState`.

    The inverse of the kernel's payload packing (``n`` as 2 little-endian
    bytes, then the int64 index array, then the aligned quantized float64
    amplitudes) — what lets ``repro-qsp distill`` recover target states
    from a request-cache snapshot's payload keys.
    """
    if len(payload) < 2 or (len(payload) - 2) % 16:
        raise MemoryCompatibilityError(
            f"malformed state payload of {len(payload)} bytes")
    n = int.from_bytes(payload[:2], "little")
    body = payload[2:]
    m = len(body) // 16
    idx = np.frombuffer(body[: 8 * m], dtype=np.int64)
    amp = np.frombuffer(body[8 * m:], dtype=np.float64)
    return QState.from_packed(n, idx.copy(), amp.copy())


#: Evidence row layout: [lb_max, solved_min, optimal_min, count].
_LB, _SOLVED, _OPTIMAL, _COUNT = range(4)


class PatternDatabase:
    """Signature → structural bound memo + observed cost evidence.

    Rides :class:`~repro.core.memory.SearchMemory` as the ``pdb`` slot;
    mergeable improve-only (so WAL replay is idempotent) and persisted in
    the memory snapshot behind the regime fingerprint.
    """

    __slots__ = ("cap", "_structural", "_evidence", "_touched",
                 "touched_overflows", "hits", "misses", "evictions")

    def __init__(self, cap: int = PDB_CAP):
        self.cap = max(1, int(cap))
        #: signature -> memoized structural bound (recomputable; never
        #: persisted, so a stale memo can't outlive a formula change)
        self._structural: dict[tuple, int] = {}
        #: signature -> [lb_max, solved_min, optimal_min, count]
        self._evidence: dict[tuple, list] = {}
        #: signatures whose pre-existing evidence changed since the last
        #: delta marker (mirrors the transposition improvement logs)
        self._touched: list[tuple] = []
        self.touched_overflows = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._evidence)

    # -- bound tiers ----------------------------------------------------

    def admissible_bound(self, signature: tuple) -> int:
        """Structural admissible bound, memoized per signature."""
        bound = self._structural.get(signature)
        if bound is None:
            bound = structural_bound(signature)
            if len(self._structural) >= self.cap:
                self._structural.clear()  # memo only: refilling is free
            self._structural[signature] = bound
        self._note(signature)
        return bound

    def learned_bound(self, signature: tuple) -> int:
        """Inadmissible tier: evidence-raised bound for ``fast`` mode.

        ``max(structural, cheapest solved member cost, strongest member
        exhaustion bound)`` — a deepening seed, never a proof: results
        reached through it are only marked optimal when the *sound*
        lower bound catches up, and the service verifies them with the
        simulator before serving.
        """
        bound = self.admissible_bound(signature)
        row = self._evidence.get(signature)
        if row is not None:
            if row[_SOLVED] is not None:
                bound = max(bound, int(row[_SOLVED]))
            if row[_LB] is not None:
                bound = max(bound, int(row[_LB]))
        return bound

    def _note(self, signature: tuple) -> None:
        if signature in self._evidence:
            self.hits += 1
        else:
            self.misses += 1

    # -- evidence -------------------------------------------------------

    def observe(self, signature: tuple, *, solved_cost: int | None = None,
                optimal: bool = False,
                lower_bound: int | None = None) -> None:
        """Record one member's settled evidence (improve-only).

        ``solved_cost`` keeps the minimum (the learned tier's seed);
        proven-optimal costs additionally keep ``optimal_min`` — the
        audit anchor, since an optimal member cost is an exact distance
        the structural bound must stay under.  ``lower_bound`` (an
        exhaustion proof) keeps the maximum.
        """
        row = self._evidence.get(signature)
        if row is None:
            if len(self._evidence) >= self.cap:
                victim = next(iter(self._evidence))
                del self._evidence[victim]
                self.evictions += 1
            row = self._evidence[signature] = [None, None, None, 0]
        else:
            # every observation moves the count, so the row ships in the
            # next delta even when no bound improved (replay then
            # reproduces the count too)
            self._log_touch(signature)
        if lower_bound is not None:
            lb = int(lower_bound)
            if row[_LB] is None or lb > row[_LB]:
                row[_LB] = lb
        if solved_cost is not None:
            cost = int(solved_cost)
            if row[_SOLVED] is None or cost < row[_SOLVED]:
                row[_SOLVED] = cost
            if optimal and (row[_OPTIMAL] is None or cost < row[_OPTIMAL]):
                row[_OPTIMAL] = cost
        row[_COUNT] = row[_COUNT] + 1

    def _log_touch(self, signature: tuple) -> None:
        if len(self._touched) >= PDB_IMPROVE_LOG_CAP:
            self._touched.clear()
            self.touched_overflows += 1
        self._touched.append(signature)

    def audit(self) -> list[dict]:
        """Admissibility self-check: structural bound vs optimal members.

        Returns one violation dict per signature whose structural bound
        exceeds a member's proven-optimal cost — always empty unless a
        bound component's proof is wrong (the ``bench_nearhit`` gate).
        """
        violations = []
        for signature, row in self._evidence.items():
            if row[_OPTIMAL] is None:
                continue
            bound = structural_bound(signature)
            if bound > row[_OPTIMAL]:
                violations.append({
                    "signature": signature_to_list(signature),
                    "structural_bound": bound,
                    "optimal_cost": row[_OPTIMAL],
                })
        return violations

    # -- persistence ----------------------------------------------------

    def marker(self) -> tuple:
        """Position marker for delta snapshots (see :meth:`to_dict`)."""
        return (len(self._evidence), len(self._touched),
                self.touched_overflows, self.evictions)

    def to_dict(self, since: tuple | None = None) -> dict:
        """Portable evidence dump; ``since`` (a :meth:`marker`) restricts
        it to signatures added or changed afterwards.  Evictions or a
        touch-log overflow invalidate the positional skip, in which case
        the whole (capped) database ships — the same fallback rule as the
        transposition delta."""
        skip = 0
        touched: list[tuple] = []
        if since is not None:
            count, touch_len, overflows, evictions = since
            if int(overflows) == self.touched_overflows and \
                    int(evictions) == self.evictions:
                skip = int(count)
                touched = list(dict.fromkeys(
                    islice(self._touched, int(touch_len), None)))
        items = list(islice(self._evidence.items(), skip, None))
        if touched:
            suffix = {signature for signature, _ in items}
            items.extend((signature, self._evidence[signature])
                         for signature in touched
                         if signature not in suffix
                         and signature in self._evidence)
        return {"entries": [[signature_to_list(signature), list(row)]
                            for signature, row in items]}

    @staticmethod
    def decode_dict(data: dict) -> list[tuple]:
        """Decode a dump into ``(signature, lb, solved, optimal, count)``
        rows, merging nothing (raises on any malformed row)."""
        try:
            entries = data["entries"]
        except (KeyError, TypeError) as exc:
            raise MemoryCompatibilityError(
                f"corrupted PDB snapshot section: {exc!r}") from exc
        rows = []
        for enc, row in entries:
            signature = signature_from_list(enc)
            try:
                rows.append((
                    signature,
                    None if row[_LB] is None else int(row[_LB]),
                    None if row[_SOLVED] is None else int(row[_SOLVED]),
                    None if row[_OPTIMAL] is None else int(row[_OPTIMAL]),
                    int(row[_COUNT])))
            except (ValueError, TypeError, IndexError) as exc:
                raise MemoryCompatibilityError(
                    f"corrupted PDB evidence row {row!r}: {exc}") from exc
        return rows

    def merge_dict(self, data: dict) -> None:
        """Pour a dump in (improve-only, idempotent — WAL replay safe)."""
        self.merge_rows(self.decode_dict(data))

    def merge_rows(self, rows: list[tuple]) -> None:
        """Pour :meth:`decode_dict` rows in (improve-only, idempotent)."""
        for signature, lb, solved, optimal_cost, count in rows:
            mine = self._evidence.get(signature)
            before = None if mine is None else list(mine)
            if mine is None:
                if len(self._evidence) >= self.cap:
                    victim = next(iter(self._evidence))
                    del self._evidence[victim]
                    self.evictions += 1
                mine = self._evidence[signature] = [None, None, None, 0]
            if lb is not None and (mine[_LB] is None or lb > mine[_LB]):
                mine[_LB] = lb
            if solved is not None and (mine[_SOLVED] is None
                                       or solved < mine[_SOLVED]):
                mine[_SOLVED] = solved
            if optimal_cost is not None and (mine[_OPTIMAL] is None
                                             or optimal_cost < mine[_OPTIMAL]):
                mine[_OPTIMAL] = optimal_cost
            # max-merge, not add: replaying the same WAL delta twice (the
            # crash-recovery path) must not inflate the count
            mine[_COUNT] = max(mine[_COUNT], count)
            if before is not None and mine != before:
                self._log_touch(signature)

    def snapshot(self) -> dict:
        """JSON-safe counters (stats responses, benches, obs gauges)."""
        queries = self.hits + self.misses
        return {"entries": len(self._evidence),
                "structural_memo": len(self._structural),
                "hits": self.hits, "misses": self.misses,
                "hit_rate": round(self.hits / queries, 4) if queries else 0.0,
                "evictions": self.evictions,
                "touched_overflows": self.touched_overflows}
