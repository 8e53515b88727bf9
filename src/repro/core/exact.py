"""Public facade of the exact CNOT synthesis engine.

:meth:`ExactSynthesizer.runs` is the exact-core sequence every path of
the Fig.-5 workflow ends in: A* (optimal within budget), the beam search
fallback when A* exhausts its budget (anytime, never fails), and
verification by simulation when the register is small enough.  It hands
each engine run to its caller: :meth:`ExactSynthesizer.synthesize` drives
the runs to completion, :class:`repro.qsp.workflow.WorkflowRun` one
expansion at a time, with identical results.

Example
-------
>>> from repro.states import dicke_state
>>> from repro.core import ExactSynthesizer
>>> result = ExactSynthesizer().synthesize(dicke_state(4, 2))
>>> result.cnot_cost <= 12  # manual design needs 12
True
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.astar import AStarRun, SearchConfig, SearchResult
from repro.core.beam import BeamConfig, BeamRun
from repro.core.engine import RunStatus
from repro.exceptions import MemoryCompatibilityError, SearchBudgetExceeded
from repro.states.qstate import QState

__all__ = ["ExactSynthesizer", "ExactConfig", "SearchResult"]

_VERIFY_MAX_QUBITS = 14


@dataclass
class ExactConfig:
    """Configuration of the synthesis facade.

    ``search`` configures the optimal A* engine; when it exhausts its
    budget, the beam engine (configured by ``beam``) supplies a feasible,
    non-optimal circuit (:func:`~repro.core.astar.astar_search` raises).
    """

    search: SearchConfig = None  # type: ignore[assignment]
    beam: BeamConfig = None      # type: ignore[assignment]
    verify: bool = True

    def __post_init__(self):
        if self.search is None:
            self.search = SearchConfig()
        if self.beam is None:
            self.beam = BeamConfig()


class ExactSynthesizer:
    """Minimum-CNOT state preparation via the shortest-path formulation."""

    def __init__(self, config: ExactConfig | None = None):
        self.config = config or ExactConfig()

    def runs(self, state: QState, memory=None, topology=None):
        """The exact-core sequence, as a generator of engine runs.

        Yields the A* run and, if it exhausts its budget, the beam run;
        the caller drives each to a terminal status before resuming.
        Returns the verified result (beam answers ``optimal=False``), or
        ``None`` when an injected incumbent proved the space (``PROVEN``).
        """
        search_config, beam_config = self.config.search, self.config.beam
        if topology is not None:
            search_config = replace(search_config, topology=topology)
            beam_config = replace(beam_config, topology=topology)
        run = AStarRun(state, search_config, memory=memory)
        yield run
        fallback = run.status is RunStatus.EXHAUSTED and \
            isinstance(run.error, SearchBudgetExceeded)
        if fallback:
            try:
                run = BeamRun(state, beam_config, memory=memory)
            except MemoryCompatibilityError:
                run = BeamRun(state, beam_config)
            yield run
        if run.status is RunStatus.PROVEN:
            return None
        if run.status is not RunStatus.SOLVED:
            raise run.error
        result = run.result()
        if fallback:
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
        pure recomputation reuse, identical results.  The beam fallback
        only shares it when its config sits in the same regime; a
        mismatched beam config simply runs cold instead of failing the
        whole synthesis.

        ``topology`` overrides the configs' coupling map for this call:
        both the A* engine and the beam fallback then search the native
        move set, so every returned circuit decomposes onto coupled pairs
        only.  ``None`` keeps whatever the configs carry (their own
        ``topology`` fields, default unrestricted).
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
