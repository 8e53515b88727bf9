"""Stepwise engine runtime: pausable, resumable, cancellable searches.

Before this module, each search core (:mod:`repro.core.astar`,
:mod:`repro.core.idastar`, :mod:`repro.core.beam`) was a monolithic
run-to-completion function.  That shape forces the service portfolio into
a bad dichotomy: run lanes *sequentially* (a slow lane blocks every lane
behind it) or *race* them as one process per lane (pure overhead on the
single-CPU serving host — ``BENCH_service.json`` records it).  The missing
primitive is an engine that can be paused mid-search, resumed, fed a
better incumbent found by a sibling, and cancelled the moment a sibling
proves optimality.

This module provides that primitive:

* :class:`EngineContext` — the shared setup path every kernel engine used
  to duplicate: topology validation + normalization, default-heuristic
  resolution, memory attach (regime-fingerprint pinning) or fresh pool,
  canonicalization context, heuristic evaluator, and the stats lifecycle.
* :class:`EngineRun` — the stepwise run protocol.  A run is created
  "armed" and then driven by ``step(max_expansions)`` calls, each of which
  advances the underlying search by at most that many node expansions and
  returns a :class:`RunStatus`.  ``inject_incumbent(cost)`` threads a
  feasible cost found elsewhere into the run's branch-and-bound pruning
  *between* (and, for A*/beam, *within*) slices.  ``cancel()`` abandons a
  run; stats are finalized on **every** exit path — solved, exhausted,
  proven, cancelled — so no result or audit row ever carries a stale
  elapsed time or cache counters.
* The search-facing dataclasses (:class:`SearchConfig`,
  :class:`SearchStats`, :class:`SearchResult`) and the small helpers the
  engines share.  They are re-exported from :mod:`repro.core.astar` for
  compatibility — existing imports keep working unchanged.

**Differential identity.**  The engines implement their hot loops as
generators that yield exactly once per node expansion; ``step`` simply
resumes the generator.  Pausing and resuming therefore cannot change the
expansion order, the pruning decisions, or any counter: a run driven in
slices of any size is node-for-node identical to a run driven to
completion in one call, and the one-shot wrappers (``astar_search``,
``idastar_search``, ``beam_search``) are nothing but
``EngineRun`` + "drive to completion" — asserted by the differential
suite in ``tests/test_engine_runtime.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum

from repro.circuits.circuit import QCircuit
from repro.constants import (
    SEARCH_CACHE_CAP,
    SEARCH_PERM_CAP,
    SEARCH_TIE_CAP,
)
from repro.core.canonical import CanonLevel
from repro.core.heuristic import (
    CouplingHeuristic,
    HeuristicFn,
    default_heuristic,
    entanglement_heuristic,
)
from repro.core.kernel import (
    BoundedCache,
    CanonContext,
    PackedState,
    StatePool,
    entangled_qubits_packed,
    entanglement_h_packed,
)
from repro.core.moves import Move
from repro.exceptions import SynthesisError
from repro.states.qstate import QState
from repro.utils.timing import Stopwatch

__all__ = [
    "RunStatus",
    "SearchConfig",
    "SearchStats",
    "SearchResult",
    "EngineContext",
    "EngineRun",
    "StepwiseRun",
]


def _native_topology(topology, num_qubits: int):
    """Validate + normalize a search topology against the target register.

    Delegates the shared normalization to
    :func:`repro.arch.topologies.native_topology` — ``None`` and
    all-to-all maps (of *any* size) mean the unrestricted paper model and
    normalize to ``None``, the identity fast path that stays bit-identical
    to seed behavior; disconnected maps are rejected there (the native
    move set is only complete on a connected graph).  A restricted map
    must additionally cover exactly the register.
    """
    from repro.arch.topologies import native_topology

    topology = native_topology(topology)
    if topology is not None and topology.size != num_qubits:
        raise ValueError(
            f"topology covers {topology.size} physical qubits but the "
            f"target has {num_qubits}; synthesize on "
            f"topology.induced(...) for a sub-register")
    return topology


@dataclass
class SearchConfig:
    """Tuning knobs of the exact search.

    Attributes
    ----------
    max_nodes:
        Expansion budget; exceeding it raises
        :class:`~repro.exceptions.SearchBudgetExceeded`.
    time_limit:
        Wall-clock budget in seconds (``None`` = unlimited).
    canon_level:
        Equivalence used for pruning (paper Sec. V-B); ``PU2`` assumes a
        symmetric coupling graph, exactly as the paper discusses — under a
        restricted ``topology`` the permutation freedom automatically
        shrinks to the coupling graph's automorphisms, which keeps ``PU2``
        sound on any device.
    max_merge_controls:
        Cap on MCRy merge controls (``None`` = ``n - 1``, the complete set).
    weight:
        Heuristic weight; ``1.0`` is admissible/optimal, larger trades
        optimality for speed (results are flagged accordingly).
    include_x_moves:
        Explicit free X moves (redundant at ``canon_level >= U2``).
    tie_cap / perm_cap:
        Canonicalization enumeration caps (soundness never depends on them);
        defaults shared via :mod:`repro.constants`.
    cache_cap:
        Size cap of the canonical-key and heuristic caches (entries);
        exceeding it evicts oldest-first.  Hit rates land in
        :class:`SearchStats`.
    profile:
        Collect phase-level wall-clock timers (enumeration /
        canonicalization / hashing / heuristic / containers) into
        :attr:`SearchStats.phase_seconds`.  Off by default — the timers
        add a few ``perf_counter`` calls per expansion; they never change
        expansion order or any counter.  Surfaced by
        ``benchmarks/bench_kernel.py --profile``.
    topology:
        Optional :class:`repro.arch.topologies.CouplingMap` making the
        device a first-class search constraint: only moves whose CNOTs lie
        on coupled pairs are enumerated, canonicalization folds only
        coupling automorphisms, and the default heuristic becomes the
        matching-based coupling bound.  ``None`` or an all-to-all map
        (of any size) is the unrestricted paper model (bit-identical to
        seed behavior).  A restricted map's size must equal the target's
        qubit count and its graph must be connected.
    """

    max_nodes: int = 200_000
    time_limit: float | None = None
    canon_level: CanonLevel = CanonLevel.PU2
    max_merge_controls: int | None = None
    weight: float = 1.0
    include_x_moves: bool = False
    tie_cap: int = SEARCH_TIE_CAP
    perm_cap: int = SEARCH_PERM_CAP
    cache_cap: int = SEARCH_CACHE_CAP
    topology: object | None = None
    profile: bool = False


@dataclass
class SearchStats:
    """Counters reported with every search result."""

    nodes_expanded: int = 0
    nodes_generated: int = 0
    nodes_pruned: int = 0
    max_queue: int = 0
    elapsed_seconds: float = 0.0
    canon_cache_hits: int = 0
    canon_cache_misses: int = 0
    h_cache_hits: int = 0
    h_cache_misses: int = 0
    #: entries evicted from capped dedup containers (e.g. beam ``seen_g``)
    dedup_evictions: int = 0
    #: IDA* transposition-table counters (this search's probes only)
    transposition_hits: int = 0
    transposition_writes: int = 0
    #: A* branch-and-bound counters (active only with an incumbent):
    #: generated states pruned because ``g + h`` already reaches the
    #: incumbent cost, and popped classes pruned because an unconditional
    #: transposition exhaustion entry proves their remaining cost does
    incumbent_prunes: int = 0
    bnb_transposition_prunes: int = 0
    #: subtrees whose exhaustion proof was path-dependent: recorded only
    #: with their path condition (the pre-fix code wrote them as
    #: unconditional, universally reusable claims — the soundness bug)
    transposition_poisoned: int = 0
    #: persistent-store traffic attributable to this search (0 when no
    #: ``SearchMemory`` is attached); per-entry hit counts also drive the
    #: stores' hit-weighted eviction
    canon_store_hits: int = 0
    canon_store_misses: int = 0
    h_store_hits: int = 0
    h_store_misses: int = 0
    #: phase-level wall-clock breakdown of the hot loop (seconds), filled
    #: only under ``SearchConfig(profile=True)`` (beam lanes:
    #: ``BeamConfig(profile=True)``) by all three engines — A*, IDA*,
    #: and beam: "enumeration" (successor generation + move application +
    #: interning), "canonicalization" (canonical-key computation,
    #: inclusive), "hashing" (the orbit-hash portion of canonicalization,
    #: a sub-bucket), "heuristic" (h evaluation), "containers" (open-heap
    #: + dedup-map bookkeeping, A* only)
    phase_seconds: dict = field(default_factory=dict)

    def merge(self, other: "SearchStats") -> None:
        """Fold ``other`` in, field by field (so new counters fold too):
        ``max_queue`` maxes, ``phase_seconds`` sums per phase, the rest
        sum."""
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if f.name == "max_queue":
                setattr(self, f.name, max(mine, theirs))
            elif f.name == "phase_seconds":
                for phase, seconds in theirs.items():
                    mine[phase] = mine.get(phase, 0.0) + seconds
            else:
                setattr(self, f.name, mine + theirs)

    @property
    def canon_cache_hit_rate(self) -> float:
        """Hit rate of the canonical-key cache (0.0 when never queried)."""
        total = self.canon_cache_hits + self.canon_cache_misses
        return self.canon_cache_hits / total if total else 0.0

    @property
    def h_cache_hit_rate(self) -> float:
        """Hit rate of the heuristic cache (0.0 when never queried)."""
        total = self.h_cache_hits + self.h_cache_misses
        return self.h_cache_hits / total if total else 0.0

    @property
    def nodes_per_second(self) -> float:
        """Expanded-node throughput (the kernel benchmark's headline)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.nodes_expanded / self.elapsed_seconds


@dataclass
class SearchResult:
    """Outcome of a (possibly budgeted) search."""

    circuit: QCircuit
    cnot_cost: int
    optimal: bool
    moves: list[Move] = field(default_factory=list)
    stats: SearchStats = field(default_factory=SearchStats)


class RunStatus(Enum):
    """Lifecycle of a stepwise :class:`EngineRun`.

    ``RUNNING``
        The run has work left; call :meth:`EngineRun.step` again.
    ``SOLVED``
        The run holds a feasible circuit (:meth:`EngineRun.result`); its
        ``optimal`` flag says whether the cost is proven minimal.
    ``PROVEN``
        The run exhausted its space under an *injected* incumbent bound
        without holding a circuit of its own: no solution strictly
        cheaper than :attr:`EngineRun.incumbent_bound` exists, so the
        incumbent (held by whoever injected it) is optimal.
    ``EXHAUSTED``
        The run ran out of node/time budget (or move space) without a
        result; :attr:`EngineRun.error` carries the same
        :class:`~repro.exceptions.SearchBudgetExceeded` /
        :class:`~repro.exceptions.SynthesisError` the one-shot function
        would have raised, proven lower bound included.
    ``CANCELLED``
        :meth:`EngineRun.cancel` was called (scheduler decision: a
        sibling proved optimality, or a deadline expired).  Stats are
        finalized; partial results, if any, remain readable via
        :meth:`EngineRun.best_feasible`.
    """

    RUNNING = "running"
    SOLVED = "solved"
    PROVEN = "proven"
    EXHAUSTED = "exhausted"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self is not RunStatus.RUNNING


def _make_h_of(heuristic: HeuristicFn, h_cache: BoundedCache, h_store):
    """Packed-state heuristic evaluator shared by all kernel engines.

    The default entanglement bound is memoized on the interned state
    object, so it needs no cache layer; the coupling-aware bound reads the
    cached entangled set off the interned state and memoizes its matching
    per entangled support; any other heuristic goes through the per-search
    cache with an optional persistent
    :class:`repro.core.memory.HashStore` tier between cache and compute.
    """
    if heuristic is entanglement_heuristic:
        return entanglement_h_packed

    if isinstance(heuristic, CouplingHeuristic):
        def h_coupling(ps: PackedState) -> float:
            val = h_cache.get(ps)
            if val is None:
                if h_store is not None:
                    val = h_store.get(ps)
                if val is None:
                    val = heuristic.bound(entangled_qubits_packed(ps))
                    if h_store is not None:
                        h_store.put(ps, val)
                h_cache.put(ps, val)
            return val

        return h_coupling

    def h_of(ps: PackedState) -> float:
        val = h_cache.get(ps)
        if val is None:
            if h_store is not None:
                val = h_store.get(ps)
            if val is None:
                val = float(heuristic(ps.to_qstate()))
                if h_store is not None:
                    h_store.put(ps, val)
            h_cache.put(ps, val)
        return val

    return h_of


def _store_hit_marks(canon_store, h_store) -> tuple[int, int, int, int]:
    """Counter baseline so per-search store deltas can land in the stats."""
    return (canon_store.hits if canon_store is not None else 0,
            canon_store.misses if canon_store is not None else 0,
            h_store.hits if h_store is not None else 0,
            h_store.misses if h_store is not None else 0)


def _finish_store_stats(stats: SearchStats, canon_store, h_store,
                        marks: tuple[int, int, int, int]) -> None:
    """Record this search's share of the persistent-store traffic."""
    if canon_store is not None:
        stats.canon_store_hits = canon_store.hits - marks[0]
        stats.canon_store_misses = canon_store.misses - marks[1]
    if h_store is not None:
        stats.h_store_hits = h_store.hits - marks[2]
        stats.h_store_misses = h_store.misses - marks[3]


def _proven_bound(current_u: float, open_entries, u_index: int) -> int:
    """Integer lower bound from the unweighted ``g + h`` of the frontier.

    The optimal path must pass through the just-popped node or some open
    entry, so ``min`` of their unweighted ``f`` values is a true bound —
    regardless of the heuristic weighting used for ordering.
    """
    best = current_u
    for entry in open_entries:
        u = entry[u_index]
        if u < best:
            best = u
    return int(math.ceil(best - 1e-9))


class EngineContext:
    """The per-run setup every kernel engine shares.

    One construction performs, in order, exactly what the three engines
    each used to do inline: topology validation + normalization,
    default-heuristic resolution for that topology, memory attach (which
    pins the regime fingerprint and may rotate the interning pool) or a
    fresh :class:`~repro.core.kernel.StatePool`, the canonicalization
    context over the optional persistent store, the heuristic evaluator
    over the per-run cache + optional store tier, and the stats/stopwatch
    lifecycle.  :meth:`finalize_stats` flushes the cache/store counters
    and the elapsed time into :attr:`stats`; it is idempotent, so every
    exit path (normal, budget, cancellation) may call it safely.
    """

    __slots__ = ("target", "topology", "heuristic", "memory", "pool",
                 "canon_store", "h_store", "canon_ctx", "canon", "h_cache",
                 "h_of", "stats", "stopwatch", "start", "_store_marks",
                 "profile")

    def __init__(self, target: QState, *, canon_level, tie_cap: int,
                 perm_cap: int, max_merge_controls: int | None,
                 include_x_moves: bool, cache_cap: int, topology,
                 time_limit: float | None, heuristic: HeuristicFn | None,
                 memory=None, profile: bool = False):
        self.target = target
        self.topology = _native_topology(topology, target.num_qubits)
        if heuristic is None:
            heuristic = default_heuristic(self.topology)
        self.heuristic = heuristic
        self.stats = SearchStats()
        self.stopwatch = Stopwatch(time_limit)
        self.memory = memory
        if memory is not None:
            self.pool = memory.attach(
                canon_level=canon_level, tie_cap=tie_cap, perm_cap=perm_cap,
                max_merge_controls=max_merge_controls,
                include_x_moves=include_x_moves, heuristic=heuristic,
                topology=self.topology)
            self.canon_store = memory.canon_store
            self.h_store = memory.h_store
        else:
            self.pool = StatePool()
            self.canon_store = self.h_store = None
        self.canon_ctx = CanonContext(canon_level, tie_cap, perm_cap,
                                      cache_cap, store=self.canon_store,
                                      topology=self.topology)
        self.profile = profile
        if profile:
            # the hashing sub-bucket accrues directly into phase_seconds
            self.canon_ctx.timers = self.stats.phase_seconds
        self.canon = self.canon_ctx.key
        self.h_cache = BoundedCache(cache_cap)
        self.h_of = _make_h_of(heuristic, self.h_cache, self.h_store)
        self._store_marks = _store_hit_marks(self.canon_store, self.h_store)
        self.start = self.pool.from_qstate(target)

    @classmethod
    def from_search_config(cls, target: QState, config: SearchConfig,
                           heuristic: HeuristicFn | None = None,
                           memory=None) -> "EngineContext":
        """Build a context from the shared :class:`SearchConfig` fields."""
        return cls(target, canon_level=config.canon_level,
                   tie_cap=config.tie_cap, perm_cap=config.perm_cap,
                   max_merge_controls=config.max_merge_controls,
                   include_x_moves=config.include_x_moves,
                   cache_cap=config.cache_cap, topology=config.topology,
                   time_limit=config.time_limit, heuristic=heuristic,
                   memory=memory, profile=config.profile)

    def finalize_stats(self) -> None:
        """Flush elapsed time + cache/store counters into :attr:`stats`.

        Idempotent by construction (every field is recomputed from the
        live containers), so *every* exit path — normal return, budget
        exhaustion, incumbent-proven-optimal, deadline cancellation —
        calls it, and no run ever reports half-finished stats.
        """
        stats = self.stats
        stats.elapsed_seconds = self.stopwatch.elapsed()
        stats.canon_cache_hits = self.canon_ctx.cache.hits
        stats.canon_cache_misses = self.canon_ctx.cache.misses
        stats.h_cache_hits = self.h_cache.hits
        stats.h_cache_misses = self.h_cache.misses
        _finish_store_stats(stats, self.canon_store, self.h_store,
                            self._store_marks)


class StepwiseRun:
    """Generator-driven stepwise run protocol (engine-agnostic base).

    Subclasses implement ``_main()`` as a generator that yields exactly
    once per unit of work (a node expansion for the kernel engines, an
    inner-engine expansion for composite runs like the QSP workflow) and
    terminates by calling :meth:`_finish` (every terminal path) before
    returning.  The base class provides the driver surface the portfolio
    and request schedulers program against:

    ``step(max_expansions)``
        Resume the run for at most ``max_expansions`` work units;
        returns the (possibly terminal) :class:`RunStatus`.
    ``inject_incumbent(cost)``
        Tighten the run's branch-and-bound upper bound to ``cost`` (a
        feasible cost some sibling achieved).  Monotone: only ever
        tightens.  Consumed at the run's next sound opportunity
        (A*/beam immediately, IDA* at the next deepening round).
    ``result() / error / best_feasible()``
        The terminal artifacts; ``best_feasible()`` additionally exposes
        anytime intermediate results while still ``RUNNING``.
    ``cancel()``
        Abandon the run (``_finalize`` runs, status ``CANCELLED``).

    The optional ``stopwatch`` is the run's own compute-budget clock: it
    is suspended between slices so ``time_limit`` stays a per-run budget
    under interleaved scheduling, exactly as in a sequential line.
    ``_finalize()`` is the terminal hook (stats flushing for the kernel
    engines); the base default is a no-op.
    """

    #: subclass tag ("astar" / "idastar" / "beam" / "workflow") for audits
    engine = "run"

    def __init__(self, stopwatch: Stopwatch | None = None):
        self._status = RunStatus.RUNNING
        self._result = None
        self._error: Exception | None = None
        self._ub: int | None = None
        self._stopwatch = stopwatch
        self._gen = self._main()
        # scheduler hooks (no effect on the run itself): an opaque
        # owner tag a scheduler may stamp on the run for audit rows and
        # per-session accounting, and the expansion count of the most
        # recent step() slice for fair-share bookkeeping
        self.tag: object | None = None
        self.last_slice_expansions: int = 0
        # setup time (in the subclass constructor) has been charged; the
        # clock now waits for the first slice
        if stopwatch is not None:
            stopwatch.suspend()

    # -- driver surface --------------------------------------------------

    @property
    def status(self) -> RunStatus:
        return self._status

    @property
    def error(self) -> Exception | None:
        """The exception the one-shot wrapper would raise (terminal only)."""
        return self._error

    @property
    def incumbent_bound(self) -> int | None:
        """The tightest injected/initial incumbent cost bound (or None)."""
        return self._ub

    def result(self):
        if self._result is None:
            raise SynthesisError(
                f"run is {self._status.value} and holds no result")
        return self._result

    def best_feasible(self):
        """Best feasible result so far (anytime peek; None if none yet).

        Terminal ``SOLVED`` runs report their result; anytime runs
        (beam, workflow) override this to expose intermediate incumbents
        while still ``RUNNING`` so a scheduler can share them immediately.
        """
        return self._result

    def flush_feasible(self):
        """Best feasible result obtainable *right now*, computing a cheap
        completion if the run supports one (beam's m-flow tail over the
        current frontier; the workflow's reduction-only fallback).  Called
        by the scheduler at deadline expiry so an anytime run can still
        hand over a valid circuit; the default is just
        :meth:`best_feasible`."""
        return self.best_feasible()

    def inject_incumbent(self, cost: int) -> None:
        """Tighten the branch-and-bound bound to a sibling's feasible cost."""
        if self._ub is None or cost < self._ub:
            self._ub = cost

    def step(self, max_expansions: int,
             deadline: Stopwatch | None = None) -> RunStatus:
        """Advance by at most ``max_expansions`` work units.

        ``deadline`` (an expiring :class:`~repro.utils.timing.Stopwatch`)
        ends the slice early mid-way: the overshoot past a wall-clock
        cutoff is then bounded by a single expansion, not a whole slice —
        which on heavy instances can be the difference between a 100 ms
        and a multi-second deadline miss.
        """
        if self._status.terminal:
            return self._status
        # the run's own time_limit clock only ticks while the run holds
        # the CPU: suspended between slices, a lane's budget keeps
        # sequential-mode semantics under interleaved scheduling
        if self._stopwatch is not None:
            self._stopwatch.resume()
        expansions = 0
        try:
            for _ in range(max(1, max_expansions)):
                try:
                    next(self._gen)
                except StopIteration:
                    break
                expansions += 1
                if self._status.terminal:  # _finish precedes return
                    break
                if deadline is not None and deadline.expired():
                    break
        finally:
            self.last_slice_expansions = expansions
            if self._stopwatch is not None:
                self._stopwatch.suspend()
        return self._status

    def run_to_completion(self):
        """Drive to a terminal status; return or raise like the one-shot
        functions always did (this *is* their implementation)."""
        while not self.step(1 << 20).terminal:
            pass
        if self._status is RunStatus.SOLVED:
            assert self._result is not None
            return self._result
        assert self._error is not None
        raise self._error

    def cancel(self) -> None:
        """Abandon the run; ``_finalize`` runs, partials stay readable."""
        if self._status.terminal:
            return
        self._gen.close()  # GeneratorExit -> engine finally-blocks run
        self._finalize()
        self._status = RunStatus.CANCELLED

    # -- subclass protocol -----------------------------------------------

    def _main(self):
        raise NotImplementedError

    def _finalize(self) -> None:
        """Terminal hook (kernel engines flush stats here); default no-op."""

    def _finish(self, status: RunStatus, *, result=None,
                error: Exception | None = None) -> None:
        """Terminal transition: ``_finalize`` runs on *every* exit path."""
        self._finalize()
        self._status = status
        self._result = result
        self._error = error


class EngineRun(StepwiseRun):
    """Base class of the stepwise *kernel-engine* runs (see module
    docstring).  Adds to :class:`StepwiseRun` the pieces every kernel
    engine shares: the :class:`EngineContext` (whose stopwatch is the
    run's compute-budget clock) and the stats lifecycle — ``_finalize``
    flushes elapsed time and cache/store counters so no exit path ever
    reports half-finished stats.  Results are :class:`SearchResult`.
    """

    #: subclass tag ("astar" / "idastar" / "beam") for audit rows
    engine = "engine"

    def __init__(self, ctx: EngineContext):
        self._ctx = ctx
        super().__init__(stopwatch=ctx.stopwatch)

    @property
    def stats(self) -> SearchStats:
        return self._ctx.stats

    def _finalize(self) -> None:
        self._ctx.finalize_stats()
