"""A* search over the state transition graph (paper Algorithm 1).

The search runs *backward* from the target state to (any state equivalent
to) the ground state.  Key implementation points:

* **Concrete states, canonical pruning.**  The open list holds concrete
  states with concrete parent pointers, so path reconstruction directly
  yields a circuit.  Dominance checks use the canonical key of each state's
  equivalence class (``Pi(phi)`` in Algorithm 1): if a member of the class
  was already reached at an equal-or-lower ``g``, the new state is pruned.
  Class members are mutually convertible at zero CNOT cost, so the optimal
  *cost* always survives pruning.
* **Early goal.**  A fully separable state (``h = 0``) is a goal: the
  remaining work is one free ``Ry`` per qubit, emitted directly.
* **Re-expansion safe.**  A better ``g`` for an already-seen class re-opens
  it, which keeps the search optimal even if the heuristic were
  inconsistent.
* **Packed kernel.**  The hot loop runs on the packed-array kernel
  (:mod:`repro.core.kernel`): interned array states, vectorized
  successor enumeration, and two-tier *lazy* duplicate detection — the
  exact-state tier (the lowest ``g`` pushed per state) prunes at
  generation time for nearly free, while the canonical-class tier
  (``best_g`` keyed by the 64-bit canonical hash with a collision spill)
  runs only when a node is popped, so frontier states that are never
  expanded never pay for canonicalization.  The dict-based seed loop
  (eager per-generation canonicalization) lives on as the test oracle in
  ``tests/astar_oracle.py``; the kernel is move-set-identical to it by
  construction, the differential tests assert identical proven costs and
  optimality flags, and ``benchmarks/bench_kernel.py`` measures
  expansions/sec against it.
* **Children are materialized when they are expanded.**  The open list
  is picked once per run.  With the extension it is
  ``_fastcore.OpenList``: one ``expand`` call per expansion computes
  every child into scratch rows, keys the exact-state tier by the
  child's quantized payload, prices it with the default ``ceil(k/2)``
  bound, prunes it against the live incumbent and pushes a C struct.
  One ``pop`` call then runs the class tier on the popped child's rows:
  the goal test, the canonical key (the run's memo, else computed and
  stored, with the same counters as ``CanonContext.key``), ``best_g``
  and the transposition prune.  Only the entry it returns, the next
  state to expand or the goal, is interned into the run's pool and gets
  its ``MergeMove``, so the children a search pushes but never pops, and
  the popped ones their class prunes (most of them on budget-bound
  searches), never become Python objects.  Any other heuristic (the
  coupling bound under a topology, a custom one) is called back on a
  child interned first.  Without the extension :class:`_OpenList` is the
  twin: ``heapq`` over tuples, a ``g_pushed`` dict of interned states,
  ``successors_packed``, :func:`_push_children` and ``canon.key``.  Both
  pop the same entries in the same order, with the same counters and
  the same memo (``tests/test_fastcore.py``).
* **Proven lower bounds.**  On budget exhaustion the reported bound is
  ``min(g + h)`` over the open list with the *unweighted* heuristic, which
  stays a true lower bound even for ``weight > 1`` (the weighted ``f`` of a
  popped node proves nothing); the open list computes it
  (``proven_bound``).
* **Stepwise runtime.**  The kernel loop is implemented as
  :class:`AStarRun` on the shared :class:`~repro.core.engine.EngineRun`
  protocol — pausable/resumable in expansion slices, incumbent-injectable
  mid-run, cancellable.  :func:`astar_search` just drives a run to
  completion, so one-shot behavior (costs *and* expansion counts) is
  unchanged by construction; the interleaved portfolio scheduler drives
  the same run in time slices instead.
"""

from __future__ import annotations

import heapq
import itertools
import math
from time import perf_counter

from repro.core.engine import (
    EngineContext,
    EngineRun,
    RunStatus,
    SearchConfig,
    SearchResult,
    SearchStats,
    _proven_bound,
)
from repro.core.heuristic import HeuristicFn
from repro.core.kernel import (
    HashKeyedMap,
    PackedState,
    entanglement_h_packed,
    native_open_list,
    num_entangled_packed,
    successors_packed,
)
from repro.core.moves import Move, moves_to_circuit
from repro.exceptions import SearchBudgetExceeded, SynthesisError
from repro.states.qstate import QState

__all__ = ["SearchConfig", "SearchStats", "SearchResult", "AStarRun",
           "astar_search"]


def astar_search(target: QState, config: SearchConfig | None = None,
                 heuristic: HeuristicFn | None = None,
                 memory=None, incumbent=None) -> SearchResult:
    """Find a minimum-CNOT preparation circuit for ``target``.

    ``memory`` optionally plugs a process-lifetime
    :class:`repro.core.memory.SearchMemory` into the kernel loop: the
    interning pool, canonical keys, and heuristic values are then shared
    across calls, which only skips recomputation — results are identical
    warm or cold.

    ``incumbent`` optionally supplies a known-feasible solution (a
    :class:`SearchResult` for the same target, e.g. from a beam pass or a
    portfolio sibling, or a bare integer cost bound) and switches the
    loop into branch-and-bound mode: generated states whose unweighted
    ``g + h`` already reaches the incumbent cost are pruned, and — when a
    ``memory`` with a populated transposition table is attached — a
    popped class whose *unconditional* exhaustion entry proves its
    remaining cost cannot beat the incumbent is pruned too (the ROADMAP's
    incumbent-bounded reuse of IDA* proofs; conditional entries stay
    IDA*-only because their claim is relative to a DFS path this search
    does not have).  Pruning never discards a strictly better solution,
    so the returned cost is unchanged — if the whole space at or above
    the incumbent cost is pruned away, the incumbent itself is returned,
    proven optimal.  Expansions only shrink (the differential tests
    assert both properties).

    This is the one-shot wrapper over :class:`AStarRun` — identical to
    driving a run to completion in a single step.

    Raises
    ------
    SearchBudgetExceeded
        When ``max_nodes`` or ``time_limit`` is hit before the ground state
        is reached.  The exception carries the best proven lower bound
        (computed with the unweighted heuristic, so it is valid for any
        ``weight``) and the incumbent, when one was supplied.
    """
    return AStarRun(target, config, heuristic=heuristic, memory=memory,
                    incumbent=incumbent).run_to_completion()


# ----------------------------------------------------------------------
# Packed-kernel hot loop, as a stepwise engine run
# ----------------------------------------------------------------------

class AStarRun(EngineRun):
    """Stepwise A* over the packed kernel (best-first, branch-and-bound).

    The generator body below yields once per node expansion (between the
    budget check and successor generation) — slicing cannot change
    expansion order or any counter.  ``inject_incumbent`` tightens
    ``self._ub``, which the loop hands to every expansion's pushes and
    reads at every pop, so a sibling's feasible cost starts pruning
    immediately, mid-slice semantics included.
    """

    engine = "astar"

    def __init__(self, target: QState, config: SearchConfig | None = None,
                 heuristic: HeuristicFn | None = None, memory=None,
                 incumbent=None):
        config = config or SearchConfig()
        self.config = config
        self._incumbent_result: SearchResult | None = None
        self._transposition = memory.transposition \
            if memory is not None else None
        ctx = EngineContext(target, config, heuristic=heuristic,
                            memory=memory)
        super().__init__(ctx)
        # EngineRun.__init__ reset _ub; seed it from the incumbent now.
        if incumbent is not None:
            if isinstance(incumbent, int):
                self._ub = incumbent
            else:
                self._ub = incumbent.cnot_cost
                self._incumbent_result = incumbent

    def best_feasible(self) -> SearchResult | None:
        """The result, else the result incumbent the run was built with."""
        if self._result is not None:
            return self._result
        return self._incumbent_result

    def _main(self):
        ctx = self._ctx
        config = self.config
        weight = config.weight
        stats = ctx.stats
        stopwatch = ctx.stopwatch
        target = ctx.target
        h_of = ctx.h_of
        profile = config.profile
        phases = stats.phase_seconds
        if profile:
            phases.setdefault("enumeration", 0.0)
            phases.setdefault("canonicalization", 0.0)
            phases.setdefault("heuristic", 0.0)
            phases.setdefault("containers", 0.0)
        h_seconds = 0.0  # accrued by h_eval(); subtracted from blocks
        if profile:
            def h_eval(ps: PackedState) -> float:
                nonlocal h_seconds
                th = perf_counter()
                h = h_of(ps)
                h_seconds += perf_counter() - th
                return h
        else:
            h_eval = h_of
        # the open list evaluates the default bound itself (None) and
        # calls any other heuristic back
        h_arg = None if h_of is entanglement_h_packed else h_eval
        try:
            # Duplicate detection is two-tier and *lazy*: at generation
            # time only the (nearly free) exact-state tier prunes — the
            # open list keeps the lowest g pushed per state — while the
            # expensive canonical-class tier runs inside pop().  Frontier
            # states that are never popped therefore never pay for
            # canonicalization, which on budget-bound searches is the bulk
            # of all generated states.  Soundness is unchanged: a class is
            # expanded only with a strictly improving ``g`` (re-expansion
            # safe), exactly as the eager reference loop does.
            start = ctx.start
            move_set = (config.max_merge_controls, config.include_x_moves,
                        ctx.topology)
            open_list = native_open_list(ctx.pool, target.num_qubits,
                                         weight, ctx.canon_ctx,
                                         self._transposition, *move_set)
            if open_list is None:
                open_list = _OpenList(ctx.pool, weight, ctx.canon_ctx,
                                      self._transposition, *move_set)
            parent: dict = {}

            if open_list.start(start, h_eval(start), self._ub):
                stats.nodes_generated += 1
                stats.max_queue = max(stats.max_queue, 1)
            else:
                stats.incumbent_prunes += 1
            last_u = 0.0

            while True:
                if profile:
                    tp = perf_counter()
                g, u, state, prev, move, goal, pruned, bnb_prunes, \
                    key_s, hash_s = open_list.pop(self._ub)
                if profile:
                    # the pop's key seconds (memo, key and tier) are
                    # canonicalization, their orbit hashing a sub-bucket
                    # of it; the rest of the call is containers
                    phases["containers"] += perf_counter() - tp - key_s
                    phases["canonicalization"] += key_s
                    if hash_s:
                        phases["hashing"] = phases.get("hashing", 0.0) \
                            + hash_s
                stats.nodes_pruned += pruned
                stats.bnb_transposition_prunes += bnb_prunes
                if u is not None:
                    last_u = u
                if state is None:
                    break
                if prev is not None:
                    parent[state] = (prev, move)

                if goal:
                    moves = _reconstruct_packed(parent, start, state)
                    circuit = moves_to_circuit(moves, state.to_qstate(),
                                               target.num_qubits)
                    self._finish(RunStatus.SOLVED, result=SearchResult(
                        circuit=circuit, cnot_cost=g,
                        optimal=(weight <= 1.0), moves=moves, stats=stats))
                    return

                stats.nodes_expanded += 1
                if stats.nodes_expanded > config.max_nodes or \
                        stopwatch.expired():
                    bound = open_list.proven_bound(u)
                    self._finish(
                        RunStatus.EXHAUSTED,
                        error=SearchBudgetExceeded(
                            f"search budget exhausted after "
                            f"{stats.nodes_expanded} expansions "
                            f"({stopwatch.elapsed():.1f}s); "
                            f"proven lower bound {bound}",
                            lower_bound=bound,
                            incumbent=self._incumbent_result, stats=stats))
                    return
                yield  # slice boundary: one yield per expansion

                if profile:
                    te = perf_counter()
                    h_mark = h_seconds
                pruned, prunes, generated = open_list.expand(
                    state, g, self._ub, h_arg)
                stats.nodes_pruned += pruned
                stats.incumbent_prunes += prunes
                if generated:
                    stats.nodes_generated += generated
                    stats.max_queue = max(stats.max_queue, len(open_list))
                if profile:
                    # successor generation and the pushes, with the
                    # heuristic time accrued inside h_eval() carved out
                    phases["enumeration"] += (perf_counter() - te) \
                        - (h_seconds - h_mark)

            inc = self._incumbent_result
            if inc is not None and self._ub >= inc.cnot_cost:
                # Everything at or above the incumbent cost was pruned and
                # nothing cheaper exists, so the incumbent's cost is the
                # optimum (under an admissible ordering; weighted runs
                # keep their anytime flag).
                self._finish(RunStatus.SOLVED, result=SearchResult(
                    circuit=inc.circuit, cnot_cost=inc.cnot_cost,
                    optimal=(weight <= 1.0), moves=list(inc.moves),
                    stats=stats))
                return
            if self._ub is not None:
                # Injected bound tighter than any circuit we hold: the
                # bound holder's cost is proven optimal.  The one-shot
                # wrapper surfaces this as the historical exception; the
                # scheduler reads the PROVEN status instead.
                self._finish(
                    RunStatus.PROVEN,
                    error=SearchBudgetExceeded(
                        f"incumbent bound {self._ub} proven optimal, but "
                        f"no circuit of that cost was supplied to return",
                        lower_bound=self._ub, stats=stats))
                return
            self._finish(
                RunStatus.EXHAUSTED,
                error=SearchBudgetExceeded(
                    "open list exhausted without reaching the ground state "
                    "(move set incomplete for this configuration)",
                    lower_bound=int(math.ceil(last_u - 1e-9)), stats=stats))
        finally:
            # cancellation (GeneratorExit) and every terminal path above
            # land here: stats are finalized no matter how the run ends
            if profile:
                phases["heuristic"] = h_seconds
            ctx.finalize_stats()


class _OpenList:
    """The Python twin of ``_fastcore.OpenList`` (A*'s open list).

    ``heap`` holds entries ``(weighted f, -g, tiebreak, unweighted
    g + h, state, prev, move)`` as floats, ints and kernel objects: among
    equal f the deepest entry pops first, which reaches a goal in the
    last f-layer before most of that layer is expanded.  ``g_pushed`` is
    the exact-state tier, the lowest g pushed per interned state, and
    ``best_g`` the canonical-class tier, the lowest g expanded per class
    (keyed by ``canon``'s keys).  The native list keeps the same tiers
    (its exact-state tier keyed by payload) and the same heap order, but
    holds a child as rows until it is popped and runs the class tier on
    those rows; both give the same counters and the same pops
    (``tests/test_fastcore.py``).
    """

    __slots__ = ("pool", "weight", "canon", "transposition",
                 "max_merge_controls", "include_x_moves", "topology", "heap",
                 "g_pushed", "best_g", "counter")

    def __init__(self, pool, weight, canon, transposition=None,
                 max_merge_controls: int | None = None,
                 include_x_moves: bool = False, topology=None):
        self.pool = pool
        self.weight = weight
        self.canon = canon
        self.transposition = transposition
        self.max_merge_controls = max_merge_controls
        self.include_x_moves = include_x_moves
        self.topology = topology
        self.heap: list = []
        self.g_pushed: dict = {}
        self.best_g = HashKeyedMap()
        self.counter = itertools.count()

    def __len__(self) -> int:
        return len(self.heap)

    def start(self, state: PackedState, h, ub) -> bool:
        """Record the start at g = 0; push it unless ``h`` reaches ``ub``
        (the start's push, with ``_push_children``'s expressions)."""
        self.g_pushed[state] = 0
        if ub is not None and 0 + h > ub - 1e-9:
            return False
        self.heap.append((float(0 + self.weight * h), 0, next(self.counter),
                          float(0 + h), state, None, None))
        return True

    def expand(self, state: PackedState, g: int, ub, h_of
               ) -> tuple[int, int, int]:
        """Push the children of one expansion (see ``_push_children``)."""
        arcs = successors_packed(self.pool, state, self.max_merge_controls,
                                 self.include_x_moves, self.topology)
        return _push_children(arcs, g, state, self.g_pushed, self.heap,
                              self.counter, h_of, ub, self.weight)

    def pop(self, ub) -> tuple:
        """The next entry to expand, or the goal: ``(g, u, state, prev,
        move, goal, pruned, bnb_prunes, key_s, hash_s)``.

        Entries superseded by a cheaper push of their state are dropped,
        and so is a popped state whose class ``best_g`` holds at most as
        cheaply (both count in ``pruned``), or, under an incumbent bound
        ``ub``, whose class an unconditional transposition entry proves
        cannot beat it (``bnb_prunes``): with integer move costs any
        completion through it costs at least ``g + floor(proven) + 1``.
        A fully separable state (no entangled qubit) is a goal and skips
        the class tier.  ``key_s`` is the time spent in ``canon.key``
        when ``canon`` is timed (its hashing seconds book themselves, so
        ``hash_s`` is 0.0 here).  An empty list answers ``state`` None,
        with ``u`` the last popped entry's (None when it popped none).
        """
        heap, g_pushed = self.heap, self.g_pushed
        canon, best_g = self.canon, self.best_g
        transposition = self.transposition
        timed = canon.timers is not None
        pruned = bnb_prunes = 0
        key_s = 0.0
        last_u = None
        while heap:
            _, neg_g, _, u, state, prev, move = heapq.heappop(heap)
            g = -neg_g
            if g > g_pushed.get(state, g):
                pruned += 1
                continue
            last_u = u
            if num_entangled_packed(state) == 0:
                return (g, u, state, prev, move, True, pruned, bnb_prunes,
                        key_s, 0.0)
            if timed:
                tk = perf_counter()
                ckey = canon.key(state)
                key_s += perf_counter() - tk
            else:
                ckey = canon.key(state)
            prev_g = best_g.get(ckey)
            if prev_g is not None and g >= prev_g:
                pruned += 1
                continue  # class already expanded at least this cheaply
            if ub is not None and transposition is not None and \
                    transposition.data:
                proven = transposition.exhausted_budget(ckey)
                # "no ground path of cost <= proven leaves this class"
                # (only unconditional entries — see astar_search)
                if proven is not None and \
                        g + math.floor(proven) + 1 > ub - 1e-9:
                    bnb_prunes += 1
                    continue
            best_g.put(ckey, g)
            return (g, u, state, prev, move, False, pruned, bnb_prunes,
                    key_s, 0.0)
        return (None, last_u, None, None, None, False, pruned, bnb_prunes,
                key_s, 0.0)

    def proven_bound(self, u) -> int:
        return _proven_bound(u, self.heap, u_index=3)


def _push_children(arcs, g: int, prev: PackedState, g_pushed: dict,
                   open_heap: list, counter, h_of, ub, weight
                   ) -> tuple[int, int, int]:
    """Push the children of one expansion onto the open list.

    The Python twin of ``_fastcore.OpenList.expand`` past the expansion
    itself (``h_of=None`` is the default :func:`entanglement_h_packed`
    bound); returns the counter deltas ``(pruned, incumbent_prunes,
    generated)``.  A child is pruned when ``g_pushed`` already holds it
    at most as cheaply, and (after ``g_pushed`` records it) when its
    unweighted ``g + h`` reaches the incumbent bound ``ub``: the
    admissible ``h`` proves no completion through it beats the
    incumbent.
    """
    if h_of is None:
        h_of = entanglement_h_packed
    pruned = prunes = generated = 0
    for move, nxt in arcs:
        g2 = g + move.cost
        if g2 >= g_pushed.get(nxt, math.inf):
            pruned += 1
            continue
        g_pushed[nxt] = g2
        h = h_of(nxt)
        if ub is not None and g2 + h > ub - 1e-9:
            prunes += 1
            continue
        heapq.heappush(open_heap, (float(g2 + weight * h), -g2,
                                   next(counter), float(g2 + h), nxt, prev,
                                   move))
        generated += 1
    return pruned, prunes, generated


def _reconstruct_packed(parent: dict, start: PackedState,
                        goal: PackedState) -> list[Move]:
    """Walk parent pointers between interned states (identity-keyed)."""
    moves: list[Move] = []
    current = goal
    guard = 0
    while current is not start:
        entry = parent.get(current)
        if entry is None:
            raise SynthesisError("broken parent chain (internal error)")
        prev, move = entry
        moves.append(move)
        current = prev
        guard += 1
        if guard > 1_000_000:
            raise SynthesisError("parent chain cycle (internal error)")
    moves.reverse()
    return moves
