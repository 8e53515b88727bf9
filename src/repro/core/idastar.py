"""Iterative-deepening A* over the state transition graph (extension).

IDA* trades the A* open list for repeated depth-first probes with an
increasing ``f``-bound.  It visits more nodes than A* but stores only the
current path, so it handles instances whose A* frontier would exhaust
memory — the regime the paper's Sec. VI-D scalability discussion worries
about.  With the same admissible heuristic it returns the same optimal
CNOT cost (asserted by the test suite on randomized instances).

The probe runs on the packed-array kernel (:mod:`repro.core.kernel`):
states are interned arrays, successors come from the vectorized
enumerator, and the path / transposition structures are keyed by the
canonical class.  Canonicalization is used *along the current path*
(cycle avoidance) and in a transposition table of ``class -> max
remaining cost budget proven exhausted`` entries.

**Transposition soundness.**  Skipping a child because its class sits on
the DFS path (cycle avoidance) is sound for the probe itself, but it
makes the enclosing exhaustion claim *path-relative*: a later probe
reaching the class via a different prefix could be pruned away from the
goal.  The pre-fix code recorded such truncated subtrees as plain
exhaustion and compensated by clearing the table at every deepening
round — which was still unsound whenever two probes of the *same* round
reached a class via different prefixes (``tests/test_memory.py`` injects
an entry of that shape and shows IDA* missing the optimum).

The fix records every exhausted subtree but tags it with the exact
*condition* its proof leaned on: the set of path classes strictly above
the node whose path pruning truncated exploration anywhere in the
subtree.  The probe threads this truncation set upward, dropping each
node's own class on the way — legitimate because class members share
their optimal remaining cost (free intra-class conversion), so a
minimum-cost goal path from a node can be chosen *class-acyclic* and in
particular never revisits the node's own class.  An empty set yields an
unconditional entry, reusable by any probe of any round — and, through
:class:`repro.core.memory.SearchMemory`, of any search, since every
search shares the ground class as its goal.  A non-empty set yields a
conditional entry reusable exactly by probes whose own path contains all
named classes (goals routed through one's own ancestors are redundant —
the same argument that makes path pruning admissible), which preserves
the aggressive intra-search pruning the old unsound table provided; see
:class:`repro.core.memory.TranspositionTable` for the reuse contract.
``stats.transposition_poisoned`` counts the records that the old rule
would have written unconditionally but are in fact path-dependent.

**Stepwise runtime.**  :class:`IDAStarRun` implements the probe as a
*recursive generator* (``yield from`` down the DFS, one ``yield`` per
expansion), so the run can be paused, resumed, and cancelled at any
expansion without touching the traversal order — the one-shot
:func:`idastar_search` drives a run to completion and is node-for-node
identical to the pre-refactor function.  An injected incumbent cost is
consumed at deepening-round boundaries: the next round's bound is capped
at ``incumbent - 1`` (with integer move costs any strictly better
solution fits under that bound), and once the proven lower bound reaches
the incumbent the run reports ``PROVEN`` instead of deepening further.
Round boundaries — never mid-round — keep every transposition record's
``remaining = bound - g`` claim exactly as proven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    PackedState,
    num_entangled_packed,
    successors_packed,
)
from repro.core.memory import TranspositionTable
from repro.core.moves import Move, moves_to_circuit
from repro.core.pdb import entanglement_signature
from repro.exceptions import SearchBudgetExceeded
from repro.states.qstate import QState

__all__ = ["IDAStarConfig", "IDAStarRun", "idastar_search"]

_FOUND = -1.0

#: size cap of a run's own table of ``(class -> exhausted remaining
#: budget)`` entries (a persistent ``SearchMemory`` supplies its own)
TRANSPOSITION_CAP = 200_000


@dataclass
class IDAStarConfig:
    """Tuning knobs of the iterative-deepening search.

    ``search`` carries the shared options (canonicalization level, move
    caps, budgets).
    """

    search: SearchConfig = field(default_factory=SearchConfig)
    #: Pattern-database root-bound tier (needs a ``SearchMemory`` with a
    #: ``pdb``; silently off otherwise).  ``"admissible"`` seeds the first
    #: deepening bound *and* the proven lower bound with the signature's
    #: structural bound — sound, so results are unchanged and rounds below
    #: it are skipped.  ``"learned"`` additionally seeds the *deepening
    #: bound only* with the class's observed evidence (cheapest solved
    #: member cost / strongest member exhaustion bound) — inadmissible, so
    #: the first found solution may be suboptimal; the run reports
    #: ``optimal`` only when the sound lower bound reaches the found cost.
    #: This is the service's ``fast`` mode; exact modes never use it.
    #: ``"off"`` ignores the PDB entirely.
    pdb_tier: str = "admissible"


def idastar_search(target: QState, config: IDAStarConfig | None = None,
                   heuristic: HeuristicFn | None = None,
                   memory=None) -> SearchResult:
    """Minimum-CNOT synthesis by iterative deepening (optimal).

    ``memory`` optionally plugs a process-lifetime
    :class:`repro.core.memory.SearchMemory`: the interning pool, canonical
    keys, heuristic values, *and* the transposition table then persist
    across calls (sound because entries are target-independent — see the
    module docstring), which makes repeated family searches dramatically
    warmer while provably returning the same optimal costs.

    This is the one-shot wrapper over :class:`IDAStarRun`.

    Raises :class:`SearchBudgetExceeded` when ``max_nodes`` (total expansions
    across all rounds) or the time limit runs out.
    """
    return IDAStarRun(target, config, heuristic=heuristic,
                      memory=memory).run_to_completion()


class IDAStarRun(EngineRun):
    """Stepwise IDA* (recursive-generator probe; see module docstring)."""

    engine = "idastar"

    def __init__(self, target: QState, config: IDAStarConfig | None = None,
                 heuristic: HeuristicFn | None = None, memory=None,
                 incumbent=None):
        config = config or IDAStarConfig()
        if config.pdb_tier not in ("off", "admissible", "learned"):
            raise ValueError(f"unknown pdb_tier {config.pdb_tier!r}")
        self.config = config
        shared = config.search
        ctx = EngineContext(target, shared, heuristic=heuristic,
                            memory=memory)
        if memory is not None:
            self._transposition = memory.transposition
        else:
            self._transposition = TranspositionTable(TRANSPOSITION_CAP)
        # Pattern-database root bounds (see ``IDAStarConfig.pdb_tier``):
        # the admissible one joins the *proven* lower bound, the hint only
        # seeds the deepening bound.  Computed once per run — the
        # signature is a property of the target, not of search state.
        self._pdb_admissible = 0
        self._pdb_hint = 0
        pdb = getattr(memory, "pdb", None)
        if pdb is not None and config.pdb_tier != "off":
            signature = entanglement_signature(target)
            self._pdb_admissible = pdb.admissible_bound(signature)
            self._pdb_hint = (pdb.learned_bound(signature)
                              if config.pdb_tier == "learned"
                              else self._pdb_admissible)
        super().__init__(ctx)
        if incumbent is not None:
            self.inject_incumbent(incumbent if isinstance(incumbent, int)
                                  else incumbent.cnot_cost)

    def _main(self):
        ctx = self._ctx
        shared = self.config.search
        stats = ctx.stats
        stopwatch = ctx.stopwatch
        canon = ctx.canon
        h_of = ctx.h_of
        transposition = self._transposition
        profile = shared.profile
        phases = stats.phase_seconds
        if profile:
            phases.setdefault("enumeration", 0.0)
            phases.setdefault("canonicalization", 0.0)
            phases.setdefault("heuristic", 0.0)

        path_moves: list[Move] = []
        path_stack: list = []
        path_class_set: set = set()
        goal_state: list = [None]  # cell: the probe generator writes it
        _NO_TRUNC: frozenset = frozenset()
        proven_lb = 0

        def probe(state: PackedState, g: int, bound: float):
            """DFS below ``state``; a generator yielding once per
            expansion, returning ``(value, trunc)`` where ``value`` is
            the smallest f that exceeded the bound (or ``_FOUND``) and
            ``trunc`` is the set of path classes strictly above this node
            that truncated exploration anywhere in the subtree (empty
            when the exhaustion proof is path-independent — see module
            docstring)."""
            if profile:
                th = perf_counter()
                f = g + h_of(state)
                phases["heuristic"] += perf_counter() - th
            else:
                f = g + h_of(state)
            if f > bound:
                # f-pruning is path-independent: the admissible h proves
                # no goal within the bound through this node from *any*
                # prefix
                return f, _NO_TRUNC
            if num_entangled_packed(state) == 0:
                goal_state[0] = state
                return _FOUND, _NO_TRUNC
            stats.nodes_expanded += 1
            if stats.nodes_expanded > shared.max_nodes or \
                    stopwatch.expired():
                raise SearchBudgetExceeded(
                    f"IDA* budget exhausted after {stats.nodes_expanded} "
                    f"expansions", lower_bound=proven_lb, stats=stats)
            yield  # slice boundary: one yield per expansion
            remaining = bound - g
            if profile:
                tc = perf_counter()
                ckey = canon(state)
                phases["canonicalization"] += perf_counter() - tc
            else:
                ckey = canon(state)
            condition = transposition.lookup(ckey, remaining,
                                             path_class_set)
            if condition is not None:
                # the entry's condition is the truncation debt this prune
                # inherits (empty for an unconditional, hence universal,
                # claim)
                stats.transposition_hits += 1
                return bound + 1.0, condition
            minimum = float("inf")
            trunc: set | frozenset = _NO_TRUNC
            if profile:
                te = perf_counter()
                arcs = successors_packed(
                    ctx.pool, state,
                    max_merge_controls=shared.max_merge_controls,
                    include_x_moves=shared.include_x_moves,
                    topology=ctx.topology)
                phases["enumeration"] += perf_counter() - te
            else:
                arcs = successors_packed(
                    ctx.pool, state,
                    max_merge_controls=shared.max_merge_controls,
                    include_x_moves=shared.include_x_moves,
                    topology=ctx.topology)
            for move, nxt in arcs:
                stats.nodes_generated += 1
                if profile:
                    tc = perf_counter()
                    nkey = canon(nxt)
                    phases["canonicalization"] += perf_counter() - tc
                else:
                    nkey = canon(nxt)
                if nkey in path_class_set:
                    # cycle avoidance: sound for this probe, but it
                    # truncates the subtree relative to the path class it
                    # skipped
                    stats.nodes_pruned += 1
                    if nkey != ckey:  # own-class skips discharged here
                        if type(trunc) is frozenset:
                            trunc = set(trunc)
                        trunc.add(nkey)
                    continue
                path_moves.append(move)
                path_stack.append(nkey)
                path_class_set.add(nkey)
                result, child_trunc = yield from probe(nxt, g + move.cost,
                                                       bound)
                if result == _FOUND:
                    return _FOUND, _NO_TRUNC
                path_moves.pop()
                path_class_set.discard(path_stack.pop())
                if child_trunc:
                    # fold the child's truncation debt, discharging this
                    # node's own class (a class-acyclic witness from here
                    # never revisits it)
                    if type(trunc) is frozenset:
                        trunc = set(trunc)
                    trunc.update(child_trunc)
                    trunc.discard(ckey)
                if result < minimum:
                    minimum = result
            trunc_frozen = frozenset(trunc) if type(trunc) is not frozenset \
                else trunc
            if trunc_frozen:
                stats.transposition_poisoned += 1
            transposition.record(ckey, remaining, trunc_frozen)
            stats.transposition_writes += 1
            return minimum, trunc_frozen

        try:
            start = ctx.start
            h_root = h_of(start)
            # The deepening bound may start above h(start) via the PDB
            # hint; for the learned tier the hint is inadmissible, so the
            # proven lower bound below only folds in the admissible PDB
            # bound — exhausting an inflated round is still a sound
            # ``OPT > bound`` proof (the probe is complete under its
            # f-cap), only the bound's *starting point* is unproven.
            bound = max(h_root, float(self._pdb_hint))
            # Proven lower bound, maintained round-by-round: admissibility
            # proves ``OPT >= max(h(start), pdb)`` up front (A*'s ceil
            # convention — the old code truncated ``int(bound)``); each
            # fully exhausted round then proves ``OPT > bound``, i.e.
            # ``OPT >= floor(bound) + 1`` with integer move costs.  The
            # *next-round* bound itself is not used as a claim: a
            # transposition hit reports ``bound + 1.0``, which with
            # fractional heuristics may overstate the subtree's true
            # minimal exceeded f.
            proven_lb = int(math.ceil(
                max(h_root, float(self._pdb_admissible)) - 1e-9))
            start_class = canon(start)
            while True:
                if self._ub is not None:
                    # An injected incumbent cost bounds the deepening:
                    # once the proven lower bound reaches it, the
                    # incumbent holder's cost is optimal; otherwise any
                    # strictly better solution (integer costs) fits under
                    # ``incumbent - 1``, so the round's bound is capped
                    # there — every transposition record stays exactly as
                    # proven, because the cap applies at round start, not
                    # mid-probe.
                    if proven_lb >= self._ub:
                        self._finish(
                            RunStatus.PROVEN,
                            error=SearchBudgetExceeded(
                                f"incumbent bound {self._ub} proven "
                                f"optimal by iterative deepening",
                                lower_bound=self._ub, stats=stats))
                        return
                    bound = min(bound, self._ub - 1)
                path_moves.clear()
                path_stack.clear()
                path_class_set.clear()
                path_class_set.add(start_class)
                outcome, _ = yield from probe(start, 0, bound)
                if outcome == _FOUND:
                    assert goal_state[0] is not None
                    moves = list(path_moves)
                    circuit = moves_to_circuit(
                        moves, goal_state[0].to_qstate(),
                        ctx.target.num_qubits)
                    cost = sum(m.cost for m in moves)
                    # With admissible bounds only, the find round's bound
                    # never exceeds the proven lower bound's round, so
                    # ``cost <= proven_lb`` always holds and this is the
                    # old unconditional ``optimal=True``.  A learned
                    # (inadmissible) PDB hint can inflate the first round
                    # past optimal; then the flag honestly reports whether
                    # the sound bound certifies the found cost.
                    self._finish(RunStatus.SOLVED, result=SearchResult(
                        circuit=circuit, cnot_cost=cost,
                        optimal=cost <= proven_lb,
                        moves=moves, stats=stats))
                    return
                proven_lb = max(proven_lb, int(bound) + 1)
                if outcome == float("inf"):
                    if self._ub is not None:
                        # nothing under the capped bound: no solution
                        # strictly beats the incumbent
                        self._finish(
                            RunStatus.PROVEN,
                            error=SearchBudgetExceeded(
                                f"incumbent bound {self._ub} proven "
                                f"optimal by iterative deepening",
                                lower_bound=self._ub, stats=stats))
                        return
                    self._finish(
                        RunStatus.EXHAUSTED,
                        error=SearchBudgetExceeded(
                            "IDA* exhausted the move space without "
                            "reaching ground (move set incomplete for "
                            "this configuration)",
                            lower_bound=proven_lb, stats=stats))
                    return
                bound = outcome
        except SearchBudgetExceeded as exc:
            self._finish(RunStatus.EXHAUSTED, error=exc)
            return
        finally:
            ctx.finalize_stats()
