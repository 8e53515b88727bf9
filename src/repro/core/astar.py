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
  exact-state tier (interned identity) prunes at generation time for
  nearly free, while the canonical-class tier (``best_g`` keyed by the
  64-bit canonical hash with a collision spill) runs only when a node is
  popped, so frontier states that are never expanded never pay for
  canonicalization.  The dict-based seed loop (eager per-generation
  canonicalization) lives on as the test oracle in
  ``tests/astar_oracle.py``; the kernel is move-set-identical to it by
  construction, the differential tests assert identical proven costs and
  optimality flags, and ``benchmarks/bench_kernel.py`` measures
  expansions/sec against it.
* **Proven lower bounds.**  On budget exhaustion the reported bound is
  ``min(g + h)`` over the open list with the *unweighted* heuristic, which
  stays a true lower bound even for ``weight > 1`` (the weighted ``f`` of a
  popped node proves nothing).
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

from repro.core import fastcore as _fastcore
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

    The generator body below is the former ``_astar_kernel`` loop, with
    one ``yield`` inserted per node expansion (between the budget check
    and successor generation) — slicing cannot change expansion order or
    any counter.  ``inject_incumbent`` tightens ``self._ub``, which the
    loop reads live at every push and pop, so a sibling's feasible cost
    starts pruning immediately, mid-slice semantics included.
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

    def _main(self):
        ctx = self._ctx
        config = self.config
        weight = config.weight
        stats = ctx.stats
        stopwatch = ctx.stopwatch
        target = ctx.target
        transposition = self._transposition
        canon = ctx.canon
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
        # the child push evaluates the default bound itself (h_of=None)
        # and calls any other heuristic back
        default_h = h_of is entanglement_h_packed
        # Open-list entries hold numbers, states and moves, none of which
        # can reach back to an entry: with the extension loaded they leave
        # the cyclic collector (see kernel.PackedState).
        fc = _fastcore.active
        untrack = fc.untrack if fc is not None else None
        try:
            counter = itertools.count()
            # entry: (weighted f, g, tiebreak, unweighted g + h, state,
            #         prev, move)
            open_heap: list = []
            # Duplicate detection is two-tier and *lazy*: at generation
            # time only the (nearly free) exact-state tier prunes —
            # ``g_pushed`` is keyed by interned identity — while the
            # expensive canonical-class tier runs at pop time.  Frontier
            # states that are never popped therefore never pay for
            # canonicalization, which on budget-bound searches is the bulk
            # of all generated states.  Soundness is unchanged: a class is
            # expanded only with a strictly improving ``g`` (re-expansion
            # safe), exactly as the eager reference loop does.
            g_pushed: dict = {}
            best_g = HashKeyedMap()
            parent: dict = {}

            start = ctx.start
            g_pushed[start] = 0
            # the start's push, with _push_children's expressions at g = 0
            h = h_eval(start)
            if self._ub is not None and 0 + h > self._ub - 1e-9:
                stats.incumbent_prunes += 1
            else:
                entry = (0 + weight * h, 0, next(counter), 0 + h, start,
                         None, None)
                if untrack is not None:
                    untrack(entry)
                open_heap.append(entry)
                stats.nodes_generated += 1
                stats.max_queue = max(stats.max_queue, 1)
            last_u = 0.0

            while open_heap:
                _, g, _, u, state, prev, move = heapq.heappop(open_heap)
                if g > g_pushed.get(state, g):
                    stats.nodes_pruned += 1
                    continue  # superseded by a cheaper push of the state
                last_u = u

                if num_entangled_packed(state) == 0:
                    if prev is not None:
                        parent[state] = (prev, move)
                    moves = _reconstruct_packed(parent, start, state)
                    circuit = moves_to_circuit(moves, state.to_qstate(),
                                               target.num_qubits)
                    self._finish(RunStatus.SOLVED, result=SearchResult(
                        circuit=circuit, cnot_cost=g,
                        optimal=(weight <= 1.0), moves=moves, stats=stats))
                    return

                if profile:
                    tc = perf_counter()
                    ckey = canon(state)
                    phases["canonicalization"] += perf_counter() - tc
                else:
                    ckey = canon(state)
                prev_g = best_g.get(ckey)
                if prev_g is not None and g >= prev_g:
                    stats.nodes_pruned += 1
                    continue  # class already expanded at least this cheaply
                if self._ub is not None and transposition is not None:
                    proven = transposition.exhausted_budget(ckey)
                    # "no ground path of cost <= proven leaves this
                    # class", so with integer move costs any completion
                    # costs >= g + floor(proven) + 1; prune when that
                    # reaches the incumbent (only unconditional entries —
                    # see astar_search)
                    if proven is not None and \
                            g + math.floor(proven) + 1 > self._ub - 1e-9:
                        stats.bnb_transposition_prunes += 1
                        continue
                best_g.put(ckey, g)
                if prev is not None:
                    parent[state] = (prev, move)

                stats.nodes_expanded += 1
                if stats.nodes_expanded > config.max_nodes or \
                        stopwatch.expired():
                    bound = _proven_bound(u, open_heap, u_index=3)
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
                arcs = successors_packed(
                    ctx.pool, state,
                    max_merge_controls=config.max_merge_controls,
                    include_x_moves=config.include_x_moves,
                    topology=ctx.topology)
                if profile:
                    tb = perf_counter()
                    phases["enumeration"] += tb - te
                    h_mark = h_seconds
                fc = _fastcore.active
                if fc is not None:
                    # one native call (its heuristic time, callbacks
                    # included, books under containers)
                    pruned, prunes, generated = fc.astar_push(
                        arcs, g, state, g_pushed, open_heap, counter,
                        None if default_h else h_of, self._ub, weight)
                else:
                    pruned, prunes, generated = _push_children(
                        arcs, g, state, g_pushed, open_heap, counter,
                        h_eval, self._ub, weight)
                stats.nodes_pruned += pruned
                stats.incumbent_prunes += prunes
                if generated:
                    stats.nodes_generated += generated
                    stats.max_queue = max(stats.max_queue, len(open_heap))
                if profile:
                    # heap + dedup-map bookkeeping of this expansion, with
                    # the heuristic time accrued inside h_eval() carved out
                    phases["containers"] += (perf_counter() - tb) \
                        - (h_seconds - h_mark)

            if self._incumbent_result is not None:
                # Everything at or above the incumbent cost was pruned and
                # nothing cheaper exists, so the incumbent's cost is the
                # optimum (under an admissible ordering; weighted runs
                # keep their anytime flag).
                inc = self._incumbent_result
                self._finish(RunStatus.SOLVED, result=SearchResult(
                    circuit=inc.circuit, cnot_cost=inc.cnot_cost,
                    optimal=(weight <= 1.0), moves=list(inc.moves),
                    stats=stats))
                return
            if self._ub is not None:
                # Injected bound, no circuit of our own: the incumbent
                # holder's cost is proven optimal.  The one-shot wrapper
                # surfaces this as the historical exception; the
                # scheduler reads the PROVEN status instead.
                self._finish(
                    RunStatus.PROVEN,
                    error=SearchBudgetExceeded(
                        f"incumbent bound {self._ub} proven optimal, but "
                        f"no incumbent circuit was supplied to return",
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


def _push_children(arcs, g: int, prev: PackedState, g_pushed: dict,
                   open_heap: list, counter, h_of, ub, weight
                   ) -> tuple[int, int, int]:
    """Push the children of one expansion onto the open list.

    The Python twin of ``_fastcore.astar_push``, with the same arguments
    (``h_of=None`` is the default :func:`entanglement_h_packed` bound) and
    the same result, the counter deltas ``(pruned, incumbent_prunes,
    generated)``.  A child is pruned when ``g_pushed`` already holds it
    at most as cheaply, and (after ``g_pushed`` records it) when its
    unweighted ``g + h`` reaches the incumbent bound ``ub``: the
    admissible ``h`` proves no completion through it beats the
    incumbent.  Entries are ``(weighted f, g, tiebreak, unweighted g + h,
    state, prev, move)``.
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
        heapq.heappush(open_heap, (g2 + weight * h, g2, next(counter),
                                   g2 + h, nxt, prev, move))
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
