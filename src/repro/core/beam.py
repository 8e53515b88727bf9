"""Anytime beam search over the same transition graph as the A* engine.

The exact A* search is provably optimal but can exhaust its budget on
larger instances (deep Dicke states).  The beam variant keeps the ``width``
most promising states per level (scored by ``g + w*h``), always terminates,
and returns the best feasible circuit found — flagged ``optimal=False``.

It shares the packed-array kernel (moves, canonicalization, interning)
with the A* engine — successor order and scores are identical to the
dict-based reference, so beam trajectories are unchanged by the kernel
migration — and any circuit it returns is verified the same way.
A run takes its search regime (move set, canonicalization, topology)
from the :class:`~repro.core.engine.SearchConfig` of the exact engines
it falls back from, so it explores exactly their graph.  The per-level
dominance map ``seen_g`` is size-capped like every other search
container (eviction only weakens pruning, never feasibility).

**Stepwise runtime.**  :class:`BeamRun` implements the level loop on the
shared :class:`~repro.core.engine.EngineRun` protocol, yielding once per
node expansion; :func:`beam_search` drives a run to completion and is
trajectory-identical to the pre-refactor function.  Beam is the
portfolio's *anytime* lane: :meth:`BeamRun.best_feasible` exposes the
best circuit found so far while the run is still ``RUNNING``, so an
interleaved scheduler can hand that cost to the exact lanes'
branch-and-bound the moment it appears; an injected sibling incumbent in
turn tightens beam's own candidate pruning (a candidate whose admissible
``g + h`` reaches the portfolio-wide best is dead weight in the beam, and
is dropped before it is canonicalized).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter

from repro.core.engine import (
    EngineContext,
    EngineRun,
    RunStatus,
    SearchConfig,
    SearchResult,
)
from repro.core.heuristic import HeuristicFn
from repro.core.kernel import (
    BoundedCache,
    PackedState,
    num_entangled_packed,
    successors_packed,
)
from repro.core.moves import MergeMove, Move, moves_to_circuit
from repro.exceptions import SynthesisError
from repro.states.qstate import QState

__all__ = ["BeamConfig", "BeamRun", "beam_search"]


@dataclass
class BeamConfig:
    """Beam-only knobs (the search regime is a ``SearchConfig``).

    ``width`` states survive each level; ``heuristic_weight`` biases the
    score toward quickly-separable states; ``max_depth`` bounds the number
    of levels (a merge happens at least every few moves on any sensible
    path, so ``4 * n * m`` is generous); ``time_limit`` is the run's
    wall-clock budget in seconds (``None`` = unlimited).
    """

    width: int = 128
    heuristic_weight: float = 1.5
    max_depth: int | None = None
    time_limit: float | None = None


@dataclass
class _Node:
    state: PackedState
    g: int
    path: tuple[Move, ...]


def beam_search(target: QState, config: BeamConfig | None = None,
                heuristic: HeuristicFn | None = None,
                memory=None, *, search: SearchConfig | None = None
                ) -> SearchResult:
    """Best-effort synthesis; always returns a valid circuit.

    ``search`` is the search regime (see :class:`BeamRun`).  ``memory``
    optionally plugs a process-lifetime
    :class:`repro.core.memory.SearchMemory` (shared interning pool and
    canon/heuristic stores) — pure recomputation reuse, trajectories are
    identical warm or cold.

    This is the one-shot wrapper over :class:`BeamRun`.

    Raises :class:`~repro.exceptions.SynthesisError` only if no separable
    state is ever reached (which cannot happen with the complete move set
    and a sane depth bound).
    """
    return BeamRun(target, config, heuristic=heuristic, memory=memory,
                   search=search).run_to_completion()


class BeamRun(EngineRun):
    """Stepwise anytime beam search (see module docstring).

    ``search`` (default ``SearchConfig()``) is the search regime — pass
    the exact engine's config; its ``max_nodes``, ``weight`` and
    ``time_limit`` are never read (``config.time_limit`` is the budget).
    """

    engine = "beam"

    def __init__(self, target: QState, config: BeamConfig | None = None,
                 heuristic: HeuristicFn | None = None, memory=None, *,
                 search: SearchConfig | None = None):
        config = config or BeamConfig()
        search = search or SearchConfig()
        self.config = config
        self._best: SearchResult | None = None
        ctx = EngineContext(target,
                            replace(search, time_limit=config.time_limit),
                            heuristic=heuristic, memory=memory)
        # the dedup container is read by finalize-time stats, so it must
        # exist before the first step (and before any cancellation);
        # likewise the frontier starts at the target so a deadline flush
        # can m-flow-complete *something* even before the first slice
        self._seen_g = BoundedCache(search.cache_cap)
        self._beam: list[_Node] = [_Node(state=ctx.start, g=0, path=())]
        super().__init__(ctx)

    def best_feasible(self) -> SearchResult | None:
        """Best circuit found so far — readable *while running* (anytime)."""
        if self._result is not None:
            return self._result
        return self._best

    def flush_feasible(self) -> SearchResult | None:
        """Complete the *current* frontier into a feasible circuit now.

        A deadline can cut a beam run before any beam node turns
        separable; the frontier still encodes real progress, and the
        m-flow completion tail can finish its best nodes in polynomial
        time.  The scheduler calls this at deadline expiry so an anytime
        request gets a valid circuit instead of nothing.  A tail outside
        the run's move set (see :meth:`_complete_frontier`) is skipped,
        and the run just reports :meth:`best_feasible`.
        """
        self._complete_frontier(self._beam)
        return self.best_feasible()

    def _complete_frontier(self, beam: list[_Node]) -> None:
        """Flush separable frontier nodes and m-flow-complete the rest.

        Exactly the run's historical end-of-search completion, factored
        out so a deadline flush performs the identical computation on the
        current beam.  Only ever *improves* ``self._best``.
        """
        ctx = self._ctx
        config = self.config
        for node in beam:
            if num_entangled_packed(node.state) == 0:
                self._record(list(node.path), node.state.to_qstate(), node.g)

        # Completion: finish the most promising frontier nodes with
        # cardinality reduction, so the beam always returns a feasible
        # circuit even when it timed out before disentangling anything.
        # A tail is recorded only inside the run's move set: the m-flow
        # merges are not topology-native, so a restricted run skips the
        # tail (a native beam only ever returns circuits whose every CNOT
        # sits on a coupled pair), and a capped run skips a tail with a
        # merge over ``max_merge_controls``.
        if ctx.topology is None:
            from repro.baselines.mflow import mflow_reduction_moves

            cap = ctx.search.max_merge_controls
            frontier = sorted(beam, key=lambda nd: (
                nd.g + config.heuristic_weight * ctx.h_of(nd.state)))
            for node in frontier[:3] if frontier else []:
                if num_entangled_packed(node.state) == 0:
                    continue
                tail_moves, final_state = mflow_reduction_moves(
                    node.state.to_qstate())
                if cap is None or all(
                        len(m.controls) <= cap for m in tail_moves
                        if isinstance(m, MergeMove)):
                    self._record(list(node.path) + tail_moves, final_state,
                                 node.g + sum(m.cost for m in tail_moves))

    def _record(self, moves: list[Move], final_state: QState,
                cost: int) -> None:
        """Keep the circuit of ``moves`` if it beats the best so far."""
        if self._best is None or cost < self._best.cnot_cost:
            circuit = moves_to_circuit(moves, final_state,
                                       self._ctx.target.num_qubits)
            self._best = SearchResult(
                circuit=circuit, cnot_cost=cost, optimal=False,
                moves=moves, stats=self._ctx.stats)

    def _cost_limit(self) -> float:
        """Candidates whose ``g + h`` reaches this cost cannot improve
        anything."""
        limit = float("inf")
        if self._best is not None:
            limit = self._best.cnot_cost
        if self._ub is not None and self._ub < limit:
            limit = float(self._ub)
        return limit

    def _main(self):
        ctx = self._ctx
        config = self.config
        search = ctx.search
        stats = ctx.stats
        stopwatch = ctx.stopwatch
        canon = ctx.canon
        h_of = ctx.h_of
        target = ctx.target
        n = target.num_qubits
        max_depth = config.max_depth
        if max_depth is None:
            max_depth = 4 * n * max(2, target.cardinality)
        seen_g = self._seen_g
        profile = search.profile
        phases = stats.phase_seconds
        if profile:
            phases.setdefault("enumeration", 0.0)
            phases.setdefault("canonicalization", 0.0)
            phases.setdefault("heuristic", 0.0)
            untimed_h = h_of

            def h_of(state):
                th = perf_counter()
                h = untimed_h(state)
                phases["heuristic"] += perf_counter() - th
                return h
        try:
            start = ctx.start
            beam = self._beam  # the one-node frontier built in __init__
            # per-class best g, capped like every other search container:
            # an evicted entry merely lets a class re-enter a later level
            seen_g.put(canon(start), 0)

            for _depth in range(max_depth):
                if stopwatch.expired():
                    break
                candidates: list[tuple[float, int, _Node]] = []
                tiebreak = 0
                for node in beam:
                    if num_entangled_packed(node.state) == 0:
                        self._record(list(node.path),
                                     node.state.to_qstate(), node.g)
                        continue
                    stats.nodes_expanded += 1
                    yield  # slice boundary: one yield per expansion
                    # the pruning limit can only move at a yield (sibling
                    # injection between slices) or when a separable node
                    # earlier in this level improved best — both strictly
                    # before this expansion — so hoist it out of the
                    # successor loop
                    cost_limit = self._cost_limit()
                    # only an injected bound prunes on g + h; an
                    # unbounded beam keeps its g-only prune and pays h
                    # only for the children deduplication keeps
                    bounded = self._ub is not None
                    if profile:
                        te = perf_counter()
                        arcs = successors_packed(
                            ctx.pool, node.state,
                            max_merge_controls=search.max_merge_controls,
                            include_x_moves=search.include_x_moves,
                            topology=ctx.topology)
                        phases["enumeration"] += perf_counter() - te
                    else:
                        arcs = successors_packed(
                            ctx.pool, node.state,
                            max_merge_controls=search.max_merge_controls,
                            include_x_moves=search.include_x_moves,
                            topology=ctx.topology)
                    for move, nxt in arcs:
                        g2 = node.g + move.cost
                        if bounded:
                            # the admissible h proves no completion
                            # through it beats the limit: drop it before
                            # it pays for canonicalization
                            h = h_of(nxt)
                            if g2 + h > cost_limit - 1e-9:
                                continue
                        elif g2 >= cost_limit:
                            continue  # cannot improve the best circuit
                        if profile:
                            tc = perf_counter()
                            ckey = canon(nxt)
                            phases["canonicalization"] += \
                                perf_counter() - tc
                        else:
                            ckey = canon(nxt)
                        prev = seen_g.get(ckey)
                        if prev is not None and prev <= g2:
                            stats.nodes_pruned += 1
                            continue
                        seen_g.put(ckey, g2)
                        stats.nodes_generated += 1
                        if not bounded:
                            h = h_of(nxt)
                        score = g2 + config.heuristic_weight * h
                        tiebreak += 1
                        candidates.append(
                            (score, tiebreak,
                             _Node(state=nxt, g=g2,
                                   path=node.path + (move,))))
                if not candidates:
                    break
                candidates.sort(key=lambda item: (item[0], item[1]))
                beam = [node for _, _, node in candidates[:config.width]]
                self._beam = beam

            # Flush separable frontier nodes + m-flow-complete the rest.
            self._complete_frontier(beam)

            if self._best is None:
                self._finish(RunStatus.EXHAUSTED, error=SynthesisError(
                    "beam search produced no feasible circuit"))
                return
            self._finish(RunStatus.SOLVED, result=self._best)
        finally:
            stats.dedup_evictions = seen_g.evictions
            ctx.finalize_stats()
