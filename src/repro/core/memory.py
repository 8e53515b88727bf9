"""Persistent cross-search memory: canon keys, heuristics, transpositions.

A single search already memoizes aggressively (interned states, bounded
canonical-key and heuristic caches), but every call to a search engine
starts cold: the same Dicke row searched twice recomputes every orbit hash
from scratch, and IDA* even threw its transposition table away at each
deepening round.  :class:`SearchMemory` is the process-lifetime answer —
one object shared across searches in a batch (the paper's family sweeps,
the repeated-traffic regime of the ROADMAP) holding everything that is
*state-intrinsic* or otherwise search-independent:

* a shared :class:`~repro.core.kernel.StatePool` (rotated when it outgrows
  its cap), so interned states and their on-object memos survive calls;
* :class:`HashStore` tiers for canonical keys and heuristic values, keyed
  by the 64-bit structural hash with payload verification, so entries
  survive pool rotation and are shared by searches whose pools differ.
  They are caches (every value is recomputable): explicit snapshots
  carry them, the service WAL and worker deltas do not;
* a :class:`TranspositionTable` for IDA*: ``class -> max remaining cost
  budget proven exhausted``.

**Soundness invariant of the transposition table.**  Every search runs
backward from its target to the *shared* ground class, so an
unconditional entry ``table[C] = r`` is the target-independent claim "no
ground-reaching path of cost ``<= r`` leaves any state of class ``C``".
That claim may only be written unconditionally if it was proven
*independent of the writing search's current path*: a subtree whose
exploration skipped children via the DFS path-class set (cycle
avoidance) has only been exhausted *relative to that path*, and
recording it as universal would let a later probe with a different
prefix prune a subtree that still hides the goal.  Writers therefore
track the set of path classes their proof leaned on through the probe
(propagated upward, because a truncated child leaves its parent's claim
path-dependent too) and record truncated subtrees as *conditional*
entries that name that set; see :class:`TranspositionTable` for the
reuse contract.  (Recording them unconditionally is the bug the old
per-round IDA* table worked around by clearing itself at every
deepening — and got wrong anyway whenever two probes of the same round
reached a class via different prefixes.)

Entries additionally depend on the move set (``max_merge_controls``,
``include_x_moves``), the class partition (canon level and enumeration
caps), and — via the ``f``-pruning inside the probe — on the heuristic
being admissible.  :meth:`SearchMemory.attach` pins this *regime
fingerprint* on first use and rejects incompatible reuse, so a memory
object can never silently mix entries from incompatible searches.

All engines accept ``memory=None`` (the default) and then behave exactly
as before with fresh per-call structures; passing a memory changes which
computations are *reused*, never which values they produce, so results
are bit-identical warm or cold (asserted by the equivalence tests).
"""

from __future__ import annotations

import heapq

from repro.constants import (
    MEMORY_POOL_ROTATE_CAP,
    MEMORY_STORE_CAP,
    MEMORY_TRANSPOSITION_CAP,
    TRANSPOSITION_AGE_PENALTY,
    TRANSPOSITION_IMPROVE_LOG_CAP,
)
from repro.core import fastcore as _fastcore
from repro.core.kernel import PackedState, StatePool, state_hash64
from repro.core.pdb import PatternDatabase
from repro.exceptions import MemoryCompatibilityError

__all__ = [
    "HashStore",
    "TranspositionTable",
    "SearchMemory",
]

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
    is always sound (stores only deduplicate recomputation).  Per-search
    shares of the hit traffic surface in
    :class:`~repro.core.astar.SearchStats`.
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
        self._primary[ps.hash64] = [ps.payload, value, 0]

    def put_payload(self, payload: bytes, value) -> None:
        """Insert by raw payload, recomputing this process's 64-bit hash.

        The structural hash is SipHash over the payload and therefore
        *per-process*: entries crossing a process boundary (a snapshot
        load) must be re-keyed here rather than trusting the hash they
        were written under.
        """
        self.put(_PayloadKey(state_hash64(payload), payload), value)

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


#: Shared empty condition — the unconditional entries' ``required`` set.
_NO_CONDITION: frozenset = frozenset()


class TranspositionTable:
    """IDA* exhaustion records: ``class -> (remaining budget, condition)``.

    An *unconditional* entry (empty condition) asserts that no
    ground-reaching path of cost at most the stored value leaves any state
    of the class — a path- and target-independent claim, reusable by any
    probe of any round of any search under the same regime fingerprint.

    A *conditional* entry additionally names the set of path classes its
    exhaustion proof leaned on (the classes strictly above the recording
    node whose path pruning truncated the subtree): it asserts that every
    ground-reaching path of cost at most the stored value passes through
    one of those classes.  A probe whose own DFS path contains all of them
    may reuse it, because a goal routed through one's own path ancestors
    is redundant — the ancestor's probe finds an equal-or-cheaper goal
    (exactly the argument that makes path pruning itself admissible) —
    and must fold the condition into its own truncation set, keeping the
    claim chain honest.  The pre-fix code recorded such entries *without*
    the condition, which is the unsoundness this table exists to fix.

    One entry of each kind per class, capped per kind with *budget-weighted,
    age-discounted* replacement: an eviction sweep drops the entries whose
    ``proven budget - age penalty`` is smallest, because a large-budget
    entry prunes every probe a small-budget one would and more (dropping
    any entry is always sound — the subtree is merely re-probed), while a
    proof untouched for many snapshot *generations* belongs to a workload
    the service no longer sees and is the cheapest to let drain out.
    Re-recording only ever improves an entry (larger budget, or equal
    budget with a weaker condition) but always refreshes its generation
    stamp — an entry the current workload keeps re-proving is young, not
    stale.

    **Generations.**  ``generation`` is a monotone counter bumped by
    :func:`repro.service.persistence.save_memory_snapshot` after every
    full snapshot — the natural epoch boundary of a long-lived service.
    Entries record the generation they were last written under; snapshots
    persist both the per-entry stamps and the table counter, so relative
    ages survive the disk round trip and a rebooted service keeps aging
    where the previous incarnation stopped.
    """

    __slots__ = ("cap", "data", "cond", "data_gen", "cond_gen",
                 "generation", "hits", "misses", "writes", "evictions",
                 "improved_data", "improved_cond", "improve_overflows")

    def __init__(self, cap: int = MEMORY_TRANSPOSITION_CAP):
        self.cap = max(1, int(cap))
        self.data: dict = {}
        self.cond: dict = {}
        #: per-entry generation stamps (parallel to data/cond so the entry
        #: payloads — and every test/serializer that reads them — keep
        #: their shape)
        self.data_gen: dict = {}
        self.cond_gen: dict = {}
        self.generation = 0
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        #: append-only logs of keys whose entry was *improved in place*
        #: (larger budget / weaker condition).  Delta snapshots ship a
        #: suffix slice of the insertion-ordered tables, which misses
        #: exactly these in-place updates — the WAL folds the logged keys'
        #: current entries back in so a replayed boot is state-equivalent
        #: to a full snapshot.  Bounded: past the cap the logs reset and
        #: ``improve_overflows`` bumps, and a delta whose baseline saw a
        #: different overflow count ships the whole (capped) table — the
        #: same safe fallback the eviction counter already triggers.
        self.improved_data: list = []
        self.improved_cond: list = []
        self.improve_overflows = 0

    def _log_improvement(self, log: list, key) -> None:
        if len(log) >= TRANSPOSITION_IMPROVE_LOG_CAP:
            del self.improved_data[:]
            del self.improved_cond[:]
            self.improve_overflows += 1
            return
        log.append(key)

    def bump_generation(self) -> int:
        """Advance the aging epoch (called after each full snapshot save)."""
        self.generation += 1
        return self.generation

    def improve_marker(self) -> tuple[int, int, int]:
        """Marker over the in-place-improvement logs (delta shipping).

        Captured into :func:`repro.utils.serialization.memory_baseline`;
        a later delta ships the entries improved past the marker (or the
        whole table when the logs overflowed in between).
        """
        return (len(self.improved_data), len(self.improved_cond),
                self.improve_overflows)

    def __len__(self) -> int:
        return len(self.data) + len(self.cond)

    def lookup(self, key, remaining: float, path_classes) -> frozenset | None:
        """Condition under which the class is exhausted within
        ``remaining``, or ``None`` when no applicable entry exists.

        Returns the (possibly empty) ``required`` class set of the entry
        that fired; the caller must treat a non-empty set as a truncation
        against those path classes.  ``path_classes`` must support ``in``
        over canonical keys (the probe's path-class container).
        """
        prev = self.data.get(key)
        if prev is not None and prev >= remaining:
            self.hits += 1
            # a hit prevents the re-probe that would re-record the entry,
            # so the hit itself must refresh the aging stamp — the
            # entries pruning the current workload are the young ones
            self.data_gen[key] = self.generation
            return _NO_CONDITION
        entry = self.cond.get(key)
        if entry is not None:
            budget, required = entry
            if budget >= remaining and \
                    all(c in path_classes for c in required):
                self.hits += 1
                self.cond_gen[key] = self.generation
                return required
        self.misses += 1
        return None

    def exhausted_budget(self, key) -> float | None:
        """Unconditional proven budget of ``key`` (no path context needed).

        This is the entry an engine *without* a DFS path may consult — A*
        branch-and-bound pruning reads it once it holds an incumbent.
        Conditional entries are deliberately invisible here: their claim
        is relative to a DFS path set that a best-first search does not
        have.  Does not touch the hit/miss counters (the caller is not a
        probe), but a consult does refresh the aging stamp — an entry
        arming branch-and-bound prunes is in active service.
        """
        budget = self.data.get(key)
        if budget is not None:
            self.data_gen[key] = self.generation
        return budget

    def _evict_smallest(self, table: dict, budget_of, gen_table: dict) -> None:
        """Drop the entries with the smallest age-discounted budgets.

        Ranking key: ``proven budget - TRANSPOSITION_AGE_PENALTY * age``
        where ``age = generation - entry generation`` — among equal
        budgets the stalest proof goes first, and a generation of
        staleness costs one unit of proven budget.
        """
        drop = max(1, self.cap // _EVICT_DENOM)
        generation = self.generation

        def rank(kv):
            age = generation - gen_table.get(kv[0], generation)
            return budget_of(kv[1]) - TRANSPOSITION_AGE_PENALTY * age

        victims = heapq.nsmallest(drop, table.items(), key=rank)
        for stale, _ in victims:
            del table[stale]
            gen_table.pop(stale, None)
        self.evictions += len(victims)

    def record(self, key, remaining: float, required: frozenset,
               generation: int | None = None) -> None:
        """Record an exhaustion proof (improve-only; stamps a generation).

        ``generation`` defaults to the table's current epoch; snapshot
        loaders pass the stored stamp so relative entry ages survive the
        disk round trip.  Every touch refreshes the stamp *forward only*
        (``max``) — a claim the current workload keeps re-proving is not
        stale, and a worker delta replaying an entry it learned under an
        older epoch must not regress the parent's fresh stamp.
        """
        if generation is None:
            generation = self.generation

        def stamp(gen_table: dict) -> None:
            prev_gen = gen_table.get(key)
            if prev_gen is None or generation > prev_gen:
                gen_table[key] = generation

        if required:
            entry = self.cond.get(key)
            if entry is not None:
                stamp(self.cond_gen)
                budget, prev_req = entry
                if remaining < budget or \
                        (remaining == budget and
                         not (required < prev_req)):
                    return
                self.cond[key] = (remaining, required)
                self.writes += 1
                self._log_improvement(self.improved_cond, key)
                return
            if len(self.cond) >= self.cap:
                self._evict_smallest(self.cond, lambda v: v[0],
                                     self.cond_gen)
            self.cond[key] = (remaining, required)
            stamp(self.cond_gen)
            self.writes += 1
            return
        prev = self.data.get(key)
        if prev is not None:
            stamp(self.data_gen)
            if remaining > prev:
                self.data[key] = remaining
                self._log_improvement(self.improved_data, key)
            return
        if len(self.data) >= self.cap:
            self._evict_smallest(self.data, lambda v: v, self.data_gen)
        self.data[key] = remaining
        stamp(self.data_gen)
        self.writes += 1

    def snapshot(self) -> dict:
        return {"entries": len(self), "unconditional": len(self.data),
                "conditional": len(self.cond), "hits": self.hits,
                "misses": self.misses, "writes": self.writes,
                "evictions": self.evictions, "generation": self.generation}


class SearchMemory:
    """Process-lifetime memory shared across searches (see module docs).

    Create one per *regime* — the first :meth:`attach` pins the regime
    fingerprint (canon level + enumeration caps, move-set options,
    heuristic identity) and incompatible attaches raise
    :class:`~repro.exceptions.MemoryCompatibilityError` instead of
    silently mixing entries whose meaning differs.
    """

    __slots__ = ("pool", "canon_store", "h_store", "transposition", "pdb",
                 "pool_rotate_cap", "pool_rotations", "searches",
                 "lane_stats", "_fingerprint")

    def __init__(self, store_cap: int = MEMORY_STORE_CAP,
                 transposition_cap: int = MEMORY_TRANSPOSITION_CAP,
                 pool_rotate_cap: int = MEMORY_POOL_ROTATE_CAP):
        self.pool = StatePool()
        self.canon_store = HashStore(store_cap)
        self.h_store = HashStore(store_cap)
        self.transposition = TranspositionTable(transposition_cap)
        #: abstraction-keyed pattern database (entanglement signature ->
        #: structural bound memo + settled-cost evidence); distilled from
        #: the service's finished requests and consulted by IDA*'s root
        #: deepening bound — admissibly in exact modes, evidence-raised in
        #: the service's ``fast`` mode (`repro.core.pdb`)
        self.pdb = PatternDatabase()
        self.pool_rotate_cap = max(1, int(pool_rotate_cap))
        self.pool_rotations = 0
        self.searches = 0
        #: per-portfolio-lane outcome counters (lane name -> {"runs",
        #: "wins", "feasible", "timeouts"}), fed by the service portfolio
        #: and persisted in snapshots: the adaptive lane ordering sorts
        #: lanes by historical win rate (``repro.service.portfolio
        #: .order_specs``).  Counters are advisory — they steer lane
        #: *order*, never results — so merging them additively across
        #: worker deltas is always safe.
        self.lane_stats: dict[str, dict[str, int]] = {}
        self._fingerprint: tuple | None = None

    def record_lane_outcome(self, name: str, *, won: bool = False,
                            feasible: bool = False,
                            timeout: bool = False) -> None:
        """Accumulate one portfolio lane's outcome (adaptive ordering)."""
        row = self.lane_stats.setdefault(
            name, {"runs": 0, "wins": 0, "feasible": 0, "timeouts": 0})
        row["runs"] += 1
        if won:
            row["wins"] += 1
        if feasible:
            row["feasible"] += 1
        if timeout:
            row["timeouts"] += 1

    def attach(self, *, canon_level, tie_cap: int, perm_cap: int,
               max_merge_controls: int | None, include_x_moves: bool,
               heuristic, topology=None) -> StatePool:
        """Bind one search to this memory; returns the shared pool.

        The fingerprint covers everything the stored values depend on:
        the class partition (level + caps) for canon keys and
        transposition entries, the move set for transposition entries,
        the heuristic for the h store (admissibility of which the
        transposition probe relies on, exactly as IDA* optimality does),
        and the device topology — a restricted coupling map changes the
        move set, the class partition (automorphism-only relabeling),
        *and* the heuristic at once, so entries recorded under one device
        must never serve a search on another.  ``topology`` must already
        be normalized (``None`` for the unrestricted model); its canonical
        key is what lands in the fingerprint.
        """
        topo_key = None if topology is None else topology.canonical_key()
        self.pin((canon_level, int(tie_cap), int(perm_cap),
                  max_merge_controls, bool(include_x_moves), heuristic,
                  topo_key))
        self.searches += 1
        # Rotating the pool bounds the one structure interning cannot cap;
        # the hash-keyed stores survive rotation by construction.
        if len(self.pool) > self.pool_rotate_cap:
            self.pool = StatePool()
            self.pool_rotations += 1
        return self.pool

    @property
    def fingerprint(self) -> tuple | None:
        """The pinned regime fingerprint (``None`` until the first use)."""
        return self._fingerprint

    def pin(self, fingerprint: tuple) -> None:
        """Pin the regime without running a search (snapshot restore does
        this up front, so entries loaded from disk can never be served to
        a search under a different regime)."""
        if self._fingerprint is None:
            self._fingerprint = fingerprint
        elif fingerprint != self._fingerprint:
            raise MemoryCompatibilityError(
                f"SearchMemory was built under regime {self._fingerprint!r} "
                f"and cannot serve a search under {fingerprint!r}; use a "
                f"separate SearchMemory per regime")

    def snapshot(self) -> dict:
        """Counters for reports and benchmarks (JSON-serializable)."""
        return {
            "searches": self.searches,
            "pool_states": len(self.pool),
            "pool_rotations": self.pool_rotations,
            "canon_store": self.canon_store.snapshot(),
            "h_store": self.h_store.snapshot(),
            "transposition": self.transposition.snapshot(),
            "pdb": self.pdb.snapshot(),
            "lane_stats": {name: dict(row)
                           for name, row in self.lane_stats.items()},
        }
