"""Public facade of the exact CNOT synthesis engine.

:meth:`ExactSynthesizer.runs` is the exact-core sequence every path of
the Fig.-5 workflow ends in: A* (optimal within budget); when A* exhausts
its budget, the incumbent it was bounded by, else the beam search
fallback (anytime, never fails); and verification by simulation when the
register is small enough.  It hands each engine run to its caller:
:meth:`ExactSynthesizer.synthesize` drives the runs to completion,
:class:`repro.qsp.workflow.WorkflowRun` one expansion at a time, with
identical results.

Example
-------
>>> from repro.states import dicke_state
>>> from repro.core import ExactSynthesizer
>>> result = ExactSynthesizer().synthesize(dicke_state(4, 2))
>>> result.cnot_cost <= 12  # manual design needs 12
True
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.astar import AStarRun, SearchConfig, SearchResult
from repro.core.beam import BeamConfig, BeamRun
from repro.core.engine import RunStatus
from repro.exceptions import SearchBudgetExceeded
from repro.states.qstate import QState

__all__ = ["ExactSynthesizer", "ExactConfig", "SearchResult"]

_VERIFY_MAX_QUBITS = 14


@dataclass
class ExactConfig:
    """Configuration of the synthesis facade.

    ``search`` configures the optimal A* engine; when it exhausts its
    budget with no incumbent, the beam engine supplies a feasible,
    non-optimal circuit (:func:`~repro.core.astar.astar_search` raises).
    The beam searches the regime of ``search`` (move set,
    canonicalization, topology); ``beam`` sets only its width, weight,
    depth and time limit.
    """

    search: SearchConfig = field(default_factory=SearchConfig)
    beam: BeamConfig = field(default_factory=BeamConfig)
    verify: bool = True


class ExactSynthesizer:
    """Minimum-CNOT state preparation via the shortest-path formulation."""

    def __init__(self, config: ExactConfig | None = None):
        self.config = config or ExactConfig()

    def runs(self, state: QState, memory=None, topology=None,
             incumbent: SearchResult | None = None):
        """The exact-core sequence, as a generator of engine runs.

        Yields the A* run and, if it exhausts its budget with no
        incumbent, the beam run; the caller drives each to a terminal
        status before resuming.  Returns the verified result (a beam
        answer reads ``optimal=False``), or ``None`` when an injected
        bound proved the space (``PROVEN``).

        ``incumbent`` is a circuit already in hand for ``state``: A* then
        prunes every node whose ``g + h`` reaches its cost.  When nothing
        cheaper exists, A* returns the incumbent itself, proven optimal;
        when A* exhausts its budget first, the incumbent is returned with
        ``optimal=False`` and the A* run's stats, and no beam runs.
        """
        search = self.config.search
        if topology is not None:
            search = replace(search, topology=topology)
        run = AStarRun(state, search, memory=memory, incumbent=incumbent)
        yield run
        budget_bound = run.status is RunStatus.EXHAUSTED and \
            isinstance(run.error, SearchBudgetExceeded)
        if budget_bound and incumbent is None:
            run = BeamRun(state, self.config.beam, memory=memory,
                          search=search)
            yield run
        if run.status is RunStatus.PROVEN:
            return None
        if run.status is RunStatus.SOLVED:
            result = run.result()
        elif budget_bound and incumbent is not None:
            # the budget ran out before A* beat the circuit in hand
            result = replace(incumbent, stats=run.stats)
        else:
            raise run.error
        if budget_bound:
            result = replace(result, optimal=False)
        if self.config.verify and state.num_qubits <= _VERIFY_MAX_QUBITS:
            from repro.sim.verify import assert_prepares
            assert_prepares(result.circuit, state)
        return result

    def synthesize(self, state: QState,
                   memory=None, topology=None) -> SearchResult:
        """Synthesize a preparation circuit for ``state``.

        Returns a :class:`~repro.core.astar.SearchResult`; ``optimal`` is
        true only when the A* search completed with an admissible heuristic.

        ``memory`` optionally plugs a process-lifetime
        :class:`~repro.core.memory.SearchMemory` into the underlying
        engines (the service layer threads its memory through here) —
        pure recomputation reuse, identical results.  Both engines attach
        to it under the one regime of ``config.search``.

        ``topology`` overrides the search config's coupling map for this
        call.  The beam fallback always searches the A* regime, so with a
        restricted map (here or on ``config.search``) every returned
        circuit decomposes onto coupled pairs only.
        """
        runs = self.runs(state, memory=memory, topology=topology)
        try:
            while True:
                run = next(runs)
                while not run.step(1 << 20).terminal:
                    pass
        except StopIteration as done:
            return done.value

    def lower_bound(self, state: QState) -> int:
        """Cheap admissible lower bound on the optimal CNOT count."""
        from repro.core.heuristic import entanglement_heuristic
        return int(entanglement_heuristic(state))


def synthesize_exact(state: QState, max_nodes: int = 200_000,
                     time_limit: float | None = None) -> SearchResult:
    """One-call convenience wrapper around :class:`ExactSynthesizer`."""
    cfg = ExactConfig(search=SearchConfig(max_nodes=max_nodes,
                                          time_limit=time_limit),
                      beam=BeamConfig(time_limit=time_limit))
    return ExactSynthesizer(cfg).synthesize(state)
