"""Dict-based A* reference loop: the test oracle for the packed kernel.

The seed implementation of paper Algorithm 1, kept out of the package so
production code has one A* (:class:`repro.core.astar.AStarRun`).  It
canonicalizes every generated state eagerly and keys its containers by
``QState.key()``; the kernel is move-set-identical to it by
construction, so proven costs and optimality flags must agree on every
instance.  ``tests/test_kernel.py`` runs the differentials against it,
and ``benchmarks/bench_kernel.py`` times it as the ``legacy`` column.

Unrestricted topology only; no memory, no incumbent.

Usage::

    from astar_oracle import astar_reference
    result = astar_reference(state, SearchConfig(max_nodes=50_000))
"""

from __future__ import annotations

import heapq
import itertools
import math

from repro.core.canonical import canonical_key
from repro.core.engine import (
    SearchConfig,
    SearchResult,
    SearchStats,
    _proven_bound,
)
from repro.core.heuristic import HeuristicFn, entanglement_heuristic
from repro.core.kernel import BoundedCache
from repro.core.moves import Move, moves_to_circuit
from repro.core.transitions import successors
from repro.exceptions import SearchBudgetExceeded, SynthesisError
from repro.states.analysis import num_entangled_qubits
from repro.states.qstate import QState
from repro.utils.timing import Stopwatch

__all__ = ["astar_reference"]


def astar_reference(target: QState, config: SearchConfig | None = None,
                    heuristic: HeuristicFn = entanglement_heuristic
                    ) -> SearchResult:
    """Minimum-CNOT search on the dict-based loop; raises
    :class:`~repro.exceptions.SearchBudgetExceeded` on budget exhaustion
    like :func:`repro.core.astar.astar_search`."""
    return _astar_reference(target, config or SearchConfig(), heuristic)


def _astar_reference(target: QState, config: SearchConfig,
                     heuristic: HeuristicFn) -> SearchResult:
    weight = config.weight
    stopwatch = Stopwatch(config.time_limit)
    stats = SearchStats()

    canon_cache = BoundedCache(config.cache_cap)
    h_cache = BoundedCache(config.cache_cap)

    def canon(state: QState):
        key = state.key()
        val = canon_cache.get(key)
        if val is None:
            val = canonical_key(state, config.canon_level,
                                tie_cap=config.tie_cap,
                                perm_cap=config.perm_cap)
            canon_cache.put(key, val)
        return val

    def h_of(state: QState) -> float:
        key = state.key()
        val = h_cache.get(key)
        if val is None:
            val = heuristic(state)
            h_cache.put(key, val)
        return val

    def finish_stats() -> None:
        stats.elapsed_seconds = stopwatch.elapsed()
        stats.canon_cache_hits = canon_cache.hits
        stats.canon_cache_misses = canon_cache.misses
        stats.h_cache_hits = h_cache.hits
        stats.h_cache_misses = h_cache.misses

    counter = itertools.count()
    # entry: (weighted f, g, tiebreak, unweighted g + h, state)
    open_heap: list = []
    best_g: dict = {}
    parent: dict = {}

    def push(state: QState, g: int) -> None:
        h = h_of(state)
        heapq.heappush(open_heap,
                       (g + weight * h, g, next(counter), g + h, state))
        stats.nodes_generated += 1
        stats.max_queue = max(stats.max_queue, len(open_heap))

    start_key = canon(target)
    best_g[start_key] = 0
    push(target, 0)
    last_u = 0.0

    while open_heap:
        _, g, _, u, state = heapq.heappop(open_heap)
        ckey = canon(state)
        if g > best_g.get(ckey, g):
            stats.nodes_pruned += 1
            continue
        last_u = u

        if num_entangled_qubits(state) == 0:
            moves = _reconstruct(parent, target, state)
            circuit = moves_to_circuit(moves, state, target.num_qubits)
            finish_stats()
            return SearchResult(circuit=circuit, cnot_cost=g,
                                optimal=(weight <= 1.0), moves=moves,
                                stats=stats)

        stats.nodes_expanded += 1
        if stats.nodes_expanded > config.max_nodes or stopwatch.expired():
            finish_stats()
            bound = _proven_bound(u, open_heap, u_index=3)
            raise SearchBudgetExceeded(
                f"search budget exhausted after {stats.nodes_expanded} "
                f"expansions ({stats.elapsed_seconds:.1f}s); "
                f"proven lower bound {bound}",
                lower_bound=bound, stats=stats)

        for move, nxt in successors(
                state,
                max_merge_controls=config.max_merge_controls,
                include_x_moves=config.include_x_moves):
            g2 = g + move.cost
            nkey = canon(nxt)
            if g2 >= best_g.get(nkey, float("inf")):
                stats.nodes_pruned += 1
                continue
            best_g[nkey] = g2
            parent[nxt.key()] = (state, move)
            push(nxt, g2)

    finish_stats()
    raise SearchBudgetExceeded(
        "open list exhausted without reaching the ground state "
        "(move set incomplete for this configuration)",
        lower_bound=int(math.ceil(last_u - 1e-9)), stats=stats)


def _reconstruct(parent: dict, start: QState, goal: QState) -> list[Move]:
    """Walk parent pointers from the goal back to the start state."""
    moves: list[Move] = []
    current = goal
    start_key = start.key()
    guard = 0
    while current.key() != start_key:
        entry = parent.get(current.key())
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
