"""Engine portfolio scheduling: race configurations, share the winnings.

No single engine dominates the synthesis workload: beam returns a
feasible circuit almost immediately but never proves optimality, A* is
the fastest prover on states whose frontier fits in memory, IDA* wins
when it does not (and its transposition proofs persist), and weighted
variants trade proof for speed.  The portfolio runs a request against a
set of :class:`EngineSpec` configurations instead of betting on one.

There is one portfolio: :class:`LaneScheduler`, built on the stepwise
:class:`~repro.core.engine.EngineRun` protocol, time-slices *all* lanes
round-robin inside one process.  Every lane advances a few hundred
expansions per round, any feasible cost one lane finds is injected into
every other lane's branch-and-bound **the moment it appears** (beam
exposes intermediate incumbents while still running), and the first
proven-optimal outcome — a lane solving, or a lane exhausting its space
under the shared incumbent bound — cancels the rest.  A wall-clock
``deadline_ms`` cancels the remaining lanes and returns the best feasible
circuit seen so far instead of raising.  The service's cross-request
scheduler (:mod:`repro.service.scheduler`) drives one instance per
in-flight request; :func:`interleaved_portfolio` drives one to
completion for one-shot callers (``op: fast``, benchmarks, oracles).

The portfolio is best-of over its lanes on the same budgets, so it is
never worse than the best single engine — the service tests and
``benchmarks/bench_portfolio.py`` assert exactly that.

**Adaptive lane ordering.**  When a :class:`~repro.core.memory
.SearchMemory` is supplied, lanes are ordered by historical win rate
(:func:`order_specs`): per-lane win/feasible/timeout counters accumulate
in ``memory.lane_stats``, persist inside memory snapshots, and ties
break by the caller's spec order, so runs stay reproducible.  Ordering
only changes *which lane gets CPU first* — the best-of result contract
is order-independent.  :func:`autotune_specs` turns the same counters
into per-lane slice budgets for scheduler sessions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.constants import PORTFOLIO_SLICE_EXPANSIONS
from repro.core.astar import AStarRun, SearchConfig, SearchResult
from repro.core.beam import BeamConfig, BeamRun
from repro.core.engine import EngineRun, RunStatus
from repro.core.idastar import IDAStarConfig, IDAStarRun
from repro.core.memory import SearchMemory
from repro.exceptions import SearchBudgetExceeded
from repro.states.qstate import QState
from repro.utils.timing import Stopwatch

__all__ = [
    "EngineSpec",
    "PortfolioOutcome",
    "LaneScheduler",
    "default_portfolio",
    "order_specs",
    "autotune_specs",
    "build_engine_run",
    "interleaved_portfolio",
]

_ENGINES = ("astar", "idastar", "beam")


@dataclass(frozen=True)
class EngineSpec:
    """One racing lane: an engine plus its lane-specific knobs.

    Everything regime-relevant (canon level, caps, move set, budgets)
    comes from the request's shared :class:`SearchConfig`, so every lane
    attaches to the same :class:`SearchMemory` fingerprint; ``weight``
    (A* heap weight / beam score weight) and ``width`` deliberately sit
    outside the fingerprint — they change which computations run, never
    what stored values mean.
    """

    name: str
    engine: str
    weight: float = 1.0
    width: int = 128

    def __post_init__(self) -> None:
        if self.engine not in _ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; "
                             f"choose from {_ENGINES}")


def default_portfolio() -> tuple[EngineSpec, ...]:
    """The standard four lanes, in their no-history round order.

    Beam takes the first slice of every round because it is cheap and
    its feasible cost arms the branch-and-bound pruning of the A* lanes
    before they step; IDA* covers the frontier-bound regime (and
    deposits reusable exhaustion proofs); weighted A* is the anytime
    last resort, also incumbent-bounded.  With lane history (see
    :func:`order_specs`) the order adapts to the traffic instead.
    """
    return (
        EngineSpec("beam", "beam", weight=1.5, width=128),
        EngineSpec("astar", "astar"),
        EngineSpec("idastar", "idastar"),
        EngineSpec("astar-w2", "astar", weight=2.0),
    )


def order_specs(specs: tuple[EngineSpec, ...],
                memory: SearchMemory | None) -> tuple[EngineSpec, ...]:
    """Order lanes by historical win rate (adaptive portfolio ordering).

    Win rate is the Laplace-smoothed ``(wins + 1) / (runs + 2)`` from
    ``memory.lane_stats``; the tie-break is the caller's original spec
    order, via a stable sort, so two runs over the same history schedule
    lanes identically — reproducibility is part of the contract.  The
    smoothing is what keeps the ordering *adaptive* rather than frozen:
    a spec added after the history began has no runs at all, and a raw
    ``wins / runs`` would have nothing to rank it by.  Smoothed, a
    never-run lane scores the neutral 0.5 — ahead of lanes that run and
    keep losing, behind a leader with a real winning record — so
    mediocre leaders get challenged and newly added specs are not born
    last.  Incumbents are injected live whatever the order, so no lane
    needs to stay ahead of the lanes it arms.

    Scope of the guarantee: with per-lane budgets fixed, ordering never
    changes any individual lane's *cost* and the portfolio stays best-of
    over the lanes that complete.  Whether a budget-*bound* exact lane
    completes can still depend on what earlier lanes deposited in a
    shared memory (e.g. IDA* exhaustion proofs arming A* pruning), so on
    such rows two different histories may prove different amounts within
    the same budgets — deterministically per history, never unsoundly.
    """
    if memory is None or not memory.lane_stats:
        return tuple(specs)

    def win_rate(spec: EngineSpec) -> float:
        row = memory.lane_stats.get(spec.name) or {}
        return (row.get("wins", 0) + 1.0) / (row.get("runs", 0) + 2.0)

    indexed = sorted(range(len(specs)),
                     key=lambda i: (-win_rate(specs[i]), i))
    return tuple(specs[i] for i in indexed)


@dataclass
class PortfolioOutcome:
    """Best result across the lanes plus the per-lane audit trail."""

    result: SearchResult | None
    winner: str | None
    attempts: list[dict] = field(default_factory=list)
    #: the wall-clock deadline expired (or a shutdown drain cut the
    #: schedule short) and the remaining lanes were cancelled —
    #: ``result`` is the best feasible circuit found before the cutoff
    #: (or ``None`` if none was)
    deadline_expired: bool = False

    @property
    def solved(self) -> bool:
        return self.result is not None

    @property
    def lower_bound(self) -> int:
        """Best proven lower bound across failed lanes (0 if none ran)."""
        return max((a.get("lower_bound", 0) or 0 for a in self.attempts),
                   default=0)


def build_engine_run(spec: EngineSpec, state: QState, search: SearchConfig,
                     memory: SearchMemory | None = None,
                     pdb_tier: str = "admissible") -> EngineRun:
    """Arm one lane as a stepwise :class:`~repro.core.engine.EngineRun`.

    Lane configs derive from the shared ``search`` so every lane attaches
    to the same memory regime; incumbents arrive live via
    ``inject_incumbent``.  ``pdb_tier`` selects the IDA* lane's
    pattern-database root-bound tier (``"learned"`` only for the
    service's ``fast`` mode — its inadmissible seed trades the optimality
    proof for fewer deepening rounds; exact modes keep the sound
    default).
    """
    if spec.engine == "astar":
        config = search if spec.weight == search.weight \
            else replace(search, weight=spec.weight)
        return AStarRun(state, config, memory=memory)
    if spec.engine == "idastar":
        return IDAStarRun(state,
                          IDAStarConfig(search=search, pdb_tier=pdb_tier),
                          memory=memory)
    beam_config = BeamConfig(
        width=spec.width, heuristic_weight=spec.weight,
        canon_level=search.canon_level, time_limit=search.time_limit,
        max_merge_controls=search.max_merge_controls,
        include_x_moves=search.include_x_moves,
        tie_cap=search.tie_cap, perm_cap=search.perm_cap,
        cache_cap=search.cache_cap, topology=search.topology,
        profile=search.profile)
    return BeamRun(state, beam_config, memory=memory)


def _better(candidate: SearchResult, best: SearchResult | None) -> bool:
    if best is None:
        return True
    if candidate.cnot_cost != best.cnot_cost:
        return candidate.cnot_cost < best.cnot_cost
    return candidate.optimal and not best.optimal


def _record_lane_outcomes(memory: SearchMemory | None, attempts: list[dict],
                          winner: str | None) -> None:
    """Feed the adaptive-ordering counters (no-op without a memory)."""
    if memory is None:
        return
    for attempt in attempts:
        memory.record_lane_outcome(
            attempt["name"],
            won=(winner is not None and attempt["name"] == winner),
            # feasible, not solved: anytime lanes can hold a circuit
            # without terminating SOLVED (cancelled beam after a harvest
            # or deadline flush)
            feasible=attempt["feasible"],
            timeout=bool(attempt.get("timeout")))


# ----------------------------------------------------------------------
# Interleaved in-process scheduler (anytime, deadline-aware)
# ----------------------------------------------------------------------

@dataclass
class _Lane:
    spec: EngineSpec
    run: EngineRun
    budget: int = PORTFOLIO_SLICE_EXPANSIONS
    seconds: float = 0.0
    slices: int = 0


class LaneScheduler:
    """The lane/slice/incumbent/settle machinery behind the interleaved
    portfolio, reusable one round at a time.

    :func:`interleaved_portfolio` drives an instance to completion for
    the single-request path; the cross-request scheduler
    (:mod:`repro.service.scheduler`) instead interleaves ``run_round``
    calls across many instances — one per in-flight request — so a heavy
    request no longer blocks the others.  Both drivers get identical
    semantics because all policy lives here:

    * every active lane advances ``budget`` node expansions per round
      (per-lane budgets; uniform by default);
    * the best feasible cost across lanes (including beam's *anytime*
      intermediates) is injected into every other lane's
      branch-and-bound the moment it improves;
    * the first proven-optimal outcome — a lane solving with a proof, or
      a lane exhausting its space under the shared incumbent bound
      (:class:`~repro.core.engine.RunStatus` ``PROVEN``) — ends the
      schedule;
    * when the wall-clock deadline expires first, ``run_round`` returns
      ``False`` with ``deadline_expired`` set and :meth:`finish` returns
      the best feasible circuit found so far (after letting lanes with a
      cheap completion tail flush) instead of raising.

    The deadline stopwatch starts at construction and is *never*
    suspended — under the cross-request scheduler a session's deadline
    keeps running while other sessions hold the CPU, which is exactly
    what a caller-facing latency bound means.  Lane runs are stamped
    with ``tag`` (an opaque owner token) for per-session accounting, and
    ``expansions`` accumulates the true per-slice expansion counts for
    fair-share bookkeeping.
    """

    def __init__(self, state: QState, search: SearchConfig,
                 specs: tuple[EngineSpec, ...],
                 memory: SearchMemory | None = None,
                 deadline_ms: float | None = None,
                 slice_expansions: int = PORTFOLIO_SLICE_EXPANSIONS,
                 slice_budgets: dict[str, int] | None = None,
                 tag: object | None = None, obs=None,
                 pdb_tier: str = "admissible") -> None:
        self.memory = memory
        #: :class:`repro.obs.ServiceObs` or ``None`` — slice/incumbent/
        #: settle hooks only; never consulted in the expansion hot loop
        self.obs = obs
        # no deadline -> no Stopwatch at all, so step() keeps its
        # deadline-is-None fast path in the per-expansion hot loop
        self.deadline = None if deadline_ms is None \
            else Stopwatch(max(0.0, deadline_ms) / 1000.0)
        self.lanes = []
        for spec in specs:
            run = build_engine_run(spec, state, search, memory=memory,
                                   pdb_tier=pdb_tier)
            run.tag = tag
            budget = max(1, int((slice_budgets or {}).get(
                spec.name, slice_expansions)))
            self.lanes.append(_Lane(spec, run, budget=budget))
        self.active: list[_Lane] = list(self.lanes)
        self.best: SearchResult | None = None
        self.winner: str | None = None
        self.attempts: list[dict] = []
        self.proven = False
        self.deadline_expired = False
        self.expansions = 0
        self.tag = tag

    @property
    def done(self) -> bool:
        """No further round would advance anything."""
        return not self.active or self.proven or self.deadline_expired

    def _expired(self) -> bool:
        return self.deadline is not None and self.deadline.expired()

    def _harvest(self, lane: _Lane) -> None:
        """Pull the lane's best feasible circuit; broadcast improvements."""
        feasible = lane.run.best_feasible()
        if feasible is not None and _better(feasible, self.best):
            self.best, self.winner = feasible, lane.spec.name
            injected = 0
            for other in self.lanes:
                if other is not lane and not other.run.status.terminal:
                    other.run.inject_incumbent(self.best.cnot_cost)
                    injected += 1
            if self.obs is not None and injected:
                self.obs.incumbent(self.tag, lane.spec.name,
                                   self.best.cnot_cost, injected=injected)

    def _settle(self, lane: _Lane, status: RunStatus) -> None:
        """Record one terminated (or cancelled) lane's audit row."""
        row: dict = {"name": lane.spec.name, "status": status.value,
                     "solved": False,
                     "feasible": lane.run.best_feasible() is not None,
                     "nodes_expanded": lane.run.stats.nodes_expanded,
                     "seconds": round(lane.seconds, 6),
                     "slices": lane.slices}
        if status is RunStatus.SOLVED:
            result = lane.run.result()
            row.update(solved=True, cnot_cost=result.cnot_cost,
                       optimal=result.optimal)
            if result.optimal:
                self.proven = True
        elif status is RunStatus.PROVEN:
            # the lane exhausted everything cheaper than the shared
            # incumbent: that incumbent is the optimum, and the proof is
            # this lane's win — crediting the lane that merely holds the
            # circuit would teach auto-tuning that provers never win
            bound = lane.run.incumbent_bound
            row["lower_bound"] = bound
            if self.best is not None and bound is not None and \
                    self.best.cnot_cost <= bound:
                self.best = replace(self.best, optimal=True)
                self.winner = lane.spec.name
                self.proven = True
        elif status is RunStatus.EXHAUSTED:
            error = lane.run.error
            row["timeout"] = isinstance(error, SearchBudgetExceeded)
            row["lower_bound"] = getattr(error, "lower_bound", 0)
        self.attempts.append(row)
        if self.obs is not None:
            # engine profiling promotion: the lane's SearchStats (and its
            # profile phase timers, when enabled) become span attributes
            self.obs.lane_settled(self.tag, lane.spec.name, status.value,
                                  stats=lane.run.stats,
                                  feasible=row["feasible"])

    def run_round(self) -> bool:
        """Advance every active lane one slice; ``True`` while running.

        Returns ``False`` once the schedule is over — proven, every lane
        settled, or the deadline expired — after which the caller must
        call :meth:`finish` exactly once to collect the outcome.
        """
        if not self.active or self.proven:
            return False
        if self._expired():
            self.deadline_expired = True
            return False
        for lane in list(self.active):
            start = time.perf_counter()
            # the deadline rides into the slice so a heavy instance
            # overshoots the cutoff by one expansion, not a whole slice
            status = lane.run.step(lane.budget, deadline=self.deadline)
            lane.seconds += time.perf_counter() - start
            lane.slices += 1
            self.expansions += lane.run.last_slice_expansions
            if self.obs is not None:
                self.obs.lane_slice(self.tag, lane.spec.name,
                                    lane.run.last_slice_expansions,
                                    status.value)
            self._harvest(lane)
            if status is RunStatus.RUNNING:
                if self._expired():
                    self.deadline_expired = True
                    return False
                continue
            self.active.remove(lane)
            self._settle(lane, status)
            if self.proven or self._expired():
                self.deadline_expired = not self.proven
                return False
        return bool(self.active) and not self.proven

    def finish(self) -> PortfolioOutcome:
        """Cancel what is left, settle the audit trail, build the outcome.

        Idempotent by construction only if called once — drivers call it
        exactly once, after :meth:`run_round` returns ``False`` (or to
        cut a schedule short, e.g. the service's shutdown drain).
        """
        for lane in self.active:
            if lane.run.status.terminal:
                continue
            # a cancelled beam may still hold the best circuit
            self._harvest(lane)
            if self.deadline_expired and self.best is None:
                # anytime contract: before giving up empty-handed, let
                # lanes with a cheap completion (beam's m-flow tail)
                # finish their current frontier into a valid circuit
                flushed = lane.run.flush_feasible()
                if flushed is not None and _better(flushed, self.best):
                    self.best, self.winner = flushed, lane.spec.name
            lane.run.cancel()
            self._settle(lane, RunStatus.CANCELLED)
        self.active = []
        _record_lane_outcomes(self.memory, self.attempts, self.winner)
        if self.obs is not None and self.winner is not None:
            self.obs.lane_won(self.tag, self.winner,
                              None if self.best is None
                              else self.best.cnot_cost)
        return PortfolioOutcome(result=self.best, winner=self.winner,
                                attempts=self.attempts,
                                deadline_expired=self.deadline_expired)

    def abort(self) -> None:
        """Cancel every lane and discard the schedule (no outcome).

        The cross-request scheduler's per-request cancellation path
        (client gone): lanes are cancelled so their generators release
        search state, but nothing is flushed and *no lane statistics are
        recorded* — an abandoned request must not teach the adaptive
        ordering anything.
        """
        for lane in self.active:
            if not lane.run.status.terminal:
                lane.run.cancel()
        self.active = []
        self.proven = True  # mark done for any late run_round caller


def interleaved_portfolio(
        state: QState, search: SearchConfig | None = None,
        specs: tuple[EngineSpec, ...] | None = None,
        memory: SearchMemory | None = None,
        deadline_ms: float | None = None,
        slice_expansions: int = PORTFOLIO_SLICE_EXPANSIONS,
        pdb_tier: str = "admissible",
) -> PortfolioOutcome:
    """Round-robin time-sliced portfolio in one process (see module docs).

    A thin driver over :class:`LaneScheduler` — run rounds until the
    schedule is over, then settle.  All slicing/incumbent/deadline
    semantics live in the class (shared verbatim with the cross-request
    scheduler).  Lanes only exchange *incumbent costs* (sound pruning
    bounds) and cancellation, so the returned cost is never worse than
    any single lane's on the same budgets — asserted by
    ``benchmarks/bench_portfolio.py``.
    """
    scheduler = LaneScheduler(
        state, search or SearchConfig(),
        order_specs(specs or default_portfolio(), memory),
        memory=memory, deadline_ms=deadline_ms,
        slice_expansions=slice_expansions, pdb_tier=pdb_tier)
    while scheduler.run_round():
        pass
    return scheduler.finish()


def autotune_specs(specs: tuple[EngineSpec, ...],
                   memory: SearchMemory | None,
                   slice_expansions: int = PORTFOLIO_SLICE_EXPANSIONS,
                   ) -> tuple[tuple[EngineSpec, ...], dict[str, int]]:
    """Lane auto-tuning from persisted history → (specs, slice budgets).

    Derives the interleaved scheduler's per-lane slice budgets from the
    win/feasible/timeout counters in ``memory.lane_stats``: a lane's
    budget scales with its Laplace-smoothed ``(wins + 1) / (runs + 2)``
    win rate, normalized so the neutral never-run score of 0.5 maps to
    exactly ``slice_expansions`` and clamped to ``[LANE_TUNE_MIN,
    LANE_TUNE_MAX]`` multiples — historically winning lanes get more
    expansions per round, losing lanes fewer, and no lane is ever
    silenced by tuning alone.  A lane is *dropped* only when it is
    chronically useless: at least ``LANE_DROP_MIN_RUNS`` recorded runs
    with zero wins *and* zero feasible circuits (it has paid slices on
    every request and never contributed so much as an incumbent).  If
    the filter would drop every lane, the original set is kept.

    Determinism and order-independence: budgets are pure per-lane
    functions of the counters, lane order comes from :func:`order_specs`
    (stable, reproducible), and slice-budget changes never alter a
    lane's *result* — only its CPU share (asserted differentially by the
    portfolio bench across slice sizes).  Every service ``exact``
    session applies this tuning; one-shot :func:`interleaved_portfolio`
    callers do not.
    """
    from repro.constants import (
        LANE_DROP_MIN_RUNS,
        LANE_TUNE_MAX,
        LANE_TUNE_MIN,
    )

    ordered = order_specs(specs, memory)
    if memory is None or not memory.lane_stats:
        return ordered, {s.name: slice_expansions for s in ordered}
    kept: list[EngineSpec] = []
    budgets: dict[str, int] = {}
    for spec in ordered:
        row = memory.lane_stats.get(spec.name) or {}
        runs = int(row.get("runs", 0))
        wins = int(row.get("wins", 0))
        feasible = int(row.get("feasible", 0))
        if runs >= LANE_DROP_MIN_RUNS and wins == 0 and feasible == 0:
            continue
        rate = (wins + 1.0) / (runs + 2.0)
        multiplier = min(LANE_TUNE_MAX, max(LANE_TUNE_MIN, 2.0 * rate))
        kept.append(spec)
        budgets[spec.name] = max(1, int(round(slice_expansions
                                              * multiplier)))
    if not kept:
        return ordered, {s.name: slice_expansions for s in ordered}
    return tuple(kept), budgets
