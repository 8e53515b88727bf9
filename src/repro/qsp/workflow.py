"""The scalable synthesis workflow (paper Fig. 5), as a stepwise run.

Given a target with ``n`` qubits and cardinality ``m``:

* **sparse** (``n * m < 2**n``): run (improved) cardinality reduction until
  the entangled core fits the exact thresholds, then exact-synthesize the
  core;
* **dense** (``n * m >= 2**n``): run qubit reduction (pruned rotation
  multiplexors) down to ``exact_qubits`` wires, then exact-synthesize the
  core.

Every path ends in the exact-core sequence of
:meth:`repro.core.exact.ExactSynthesizer.runs` — budgeted A* — unless
``use_exact`` is off (the ablation mode), and the assembled full-register
circuit is verified by simulation for small ``n``.  The cheaper of the
core's n-flow and reduction-only circuits is built first and bounds that
search, which then looks only for what can beat it.  When A* proves
nothing cheaper exists, or exhausts its budget first, that baseline is
served, and the trace line names it.  Only the topology-native stage,
which has no baseline, falls back to the beam search.

:class:`WorkflowRun` subclasses :class:`repro.core.engine.StepwiseRun`, so
a ``prepare`` request can be time-sliced by the request scheduler exactly
like ``exact`` traffic — paused at flow boundaries and between inner-engine
expansions, fed incumbents, cancelled on disconnect, and flushed to a
verified best-so-far circuit at a deadline (falling back to the core's
baseline circuit when the exact core is cut short).  It drives
the same engine runs as
:meth:`~repro.core.exact.ExactSynthesizer.synthesize`, one expansion per
step, and folds their counters into :attr:`WorkflowRun.stats` with
:meth:`~repro.core.engine.SearchStats.merge`.  The one-shot
:func:`prepare_state` is nothing but
``WorkflowRun(...).run_to_completion()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

from repro.baselines.mflow import mflow_reduction_moves
from repro.baselines.nflow import nflow_synthesize, qubit_reduction_prefix
from repro.circuits.circuit import QCircuit
from repro.core.engine import RunStatus, SearchResult, SearchStats, StepwiseRun
from repro.core.exact import ExactSynthesizer
from repro.core.kernel import qstate_payload
from repro.core.moves import Move
from repro.qsp.config import QSPConfig
from repro.qsp.extraction import embed_core_circuit, extract_core
from repro.qsp.reduction import GHTrajectory, reduce_cardinality
from repro.states.analysis import num_entangled_qubits
from repro.states.qstate import QState
from repro.utils.timing import Stopwatch

__all__ = ["QSPResult", "WorkflowRun", "prepare_state"]


@dataclass
class QSPResult:
    """Outcome of the full workflow.

    ``trace`` records the stages taken (for logs and tests);
    ``exact_optimal`` tells whether the exact stage proved optimality of
    its core (the overall circuit is still heuristic, as in the paper).
    """

    circuit: QCircuit
    cnot_cost: int
    sparse_path: bool
    exact_optimal: bool | None = None
    trace: list[str] = field(default_factory=list)


def _reduction_only_circuit(state: QState) -> QCircuit:
    from repro.core.moves import moves_to_circuit

    moves, final_state = mflow_reduction_moves(state)
    return moves_to_circuit(moves, final_state, state.num_qubits)


class WorkflowRun(StepwiseRun):
    """The Fig.-5 workflow as a pausable, cancellable stepwise run.

    The generator body yields at every flow boundary (before each
    reduction candidate, before each exact core, before assembly/verify)
    and once per inner-engine expansion: each engine run of the shared
    exact-core sequence is driven in single-expansion slices, which is
    node-for-node identical to a one-shot run.  Results are
    :class:`QSPResult`, not ``SearchResult`` — the one deliberate
    deviation from the kernel-engine runs.

    ``inject_incumbent(cost)`` takes a *full-register* feasible cost and
    forwards it to the active inner engine minus the fixed prefix cost of
    the surrounding stage (reduction moves / qubit-reduction suffix), so
    branch-and-bound stays sound.  If every candidate core is pruned by
    an injected bound the run finishes ``PROVEN`` with no result of its
    own, exactly like the kernel engines.

    ``flush_feasible()`` (deadline expiry / drain) returns the best
    verified circuit obtainable *now*: the best fully-assembled candidate
    so far, the active engine's anytime flush (for A*, the core's
    baseline circuit it is bounded by) completed through the stage's
    assembly, or — last resort — the plain m-flow circuit on the full
    register.
    Topology-native runs skip the reduction fallbacks (their moves are
    not native) and may flush nothing, mirroring the one-shot contract.

    The sparse path dedupes exact core searches by the core's structural
    identity (interned payload): when the multi-pair and GH reductions
    land on the same core, the second candidate reuses the first search's
    circuit — the trace still reports both candidates.
    """

    engine = "workflow"

    def __init__(self, state: QState, config: QSPConfig | None = None,
                 memory=None, topology=None):
        self.state = state
        self.config = config or QSPConfig()
        self.memory = memory
        self.topology = topology
        self._sparse = state.is_sparse()
        self._native = topology is not None and not topology.is_full()
        self._trace: list[str] = []
        #: counters of every inner engine run (all cores, all candidates)
        self.stats = SearchStats()
        # active inner engine run + its stage context (for incumbent
        # forwarding and deadline flushes)
        self._active: StepwiseRun | None = None
        self._active_prefix = 0
        self._active_assemble = None
        #: best candidate so far as (CNOT cost, exact_optimal, builder of
        #: its full-register circuit): a deadline flush assembles it on
        #: demand, so losing candidates are never assembled
        self._best_partial: tuple[int, bool | None,
                                  Callable[[], QCircuit]] | None = None
        # sparse-path core dedupe: core payload -> search output
        self._core_cache: dict = {}
        #: exact-core searches skipped because an earlier candidate in
        #: this run produced a structurally identical core
        self.core_reuse = 0
        super().__init__(stopwatch=Stopwatch(None))

    # -- driver surface extensions ---------------------------------------

    def inject_incumbent(self, cost: int) -> None:
        super().inject_incumbent(cost)
        if self._active is not None and self._ub is not None:
            self._active.inject_incumbent(
                max(0, self._ub - self._active_prefix))

    def flush_feasible(self):
        if self._result is not None:
            return self._result
        candidates: list[tuple[QCircuit, bool | None]] = []
        if self._best_partial is not None:
            _, optimal, build = self._best_partial
            candidates.append((build(), optimal))
        if self._active is not None:
            if self._active_assemble is not None:
                feasible = self._active.flush_feasible()
                if feasible is not None:
                    candidates.append(
                        (self._active_assemble(feasible.circuit), None))
        if not candidates and not self._native:
            # nothing reached the exact stage yet: the baseline m-flow
            # circuit on the full register is always feasible
            candidates.append((_reduction_only_circuit(self.state), None))
        if not candidates:
            return None  # native runs have no routable fallback
        circuit, optimal = min(candidates, key=lambda c: c[0].cnot_cost())
        trace = list(self._trace)
        trace.append(f"deadline flush: best-so-far "
                     f"{circuit.cnot_cost()} CNOTs")
        if self.state.num_qubits <= self.config.verify_max_qubits:
            from repro.sim.verify import assert_prepares
            assert_prepares(circuit, self.state)
            trace.append("verified by simulation")
        return QSPResult(circuit=circuit, cnot_cost=circuit.cnot_cost(),
                         sparse_path=self._sparse, exact_optimal=optimal,
                         trace=trace)

    def _finalize(self) -> None:
        self.stats.elapsed_seconds = self._stopwatch.elapsed()

    # -- workflow body ----------------------------------------------------

    def _main(self):
        try:
            state, config, trace = self.state, self.config, self._trace
            if self._native:
                outcome = yield from self._native_stage(trace)
            elif state.num_qubits <= config.exact_qubits or \
                    (self._sparse and
                     state.cardinality <= config.exact_cardinality and
                     num_entangled_qubits(state) <= config.exact_qubits):
                outcome = yield from self._core_stage(state, trace)
            elif self._sparse:
                outcome = yield from self._sparse_stage(trace)
            else:
                outcome = yield from self._dense_stage(trace)
            if outcome is None:
                # every candidate was pruned by an injected incumbent:
                # whoever injected it holds the (now proven) best circuit
                self._finish(RunStatus.PROVEN)
                return
            circuit, optimal = outcome
            yield  # flow boundary: assembly done, verification ahead
            if state.num_qubits <= config.verify_max_qubits:
                from repro.sim.verify import assert_prepares
                assert_prepares(circuit, state)
                trace.append("verified by simulation")
            self._finish(RunStatus.SOLVED, result=QSPResult(
                circuit=circuit, cnot_cost=circuit.cnot_cost(),
                sparse_path=self._sparse, exact_optimal=optimal,
                trace=trace))
        except Exception as exc:  # GeneratorExit (cancel) passes through
            self._finish(RunStatus.EXHAUSTED, error=exc)

    def _drive(self, run: StepwiseRun):
        """Drive an inner engine run in single-expansion slices.

        Yields once per inner expansion so the outer ``step`` budget and
        deadline apply at expansion granularity; registers the run as the
        active flush/incumbent target for the duration.  Slicing never
        changes a run, so this is node-for-node identical to the engine's
        own ``run_to_completion``.
        """
        self._active = run
        if self._ub is not None:
            run.inject_incumbent(max(0, self._ub - self._active_prefix))
        try:
            while True:
                status = run.step(1)
                self.stats.nodes_expanded += run.last_slice_expansions
                if status.terminal:
                    break
                yield
        finally:
            self._active = None
            if not run.status.terminal:
                run.cancel()  # outer cancel() closed our generator
            # nodes_expanded stays the sum of slices: an exhausted A* run
            # also counts the expansion it stopped at, which never ran
            self.stats.merge(replace(run.stats, nodes_expanded=0))

    def _exact(self, state: QState, topology=None, prefix_cost: int = 0,
               assemble=None, incumbent=None):
        """:meth:`~repro.core.exact.ExactSynthesizer.runs`, each run
        driven by :meth:`_drive` in the stage context that incumbents
        and deadline flushes need."""
        self._active_prefix = prefix_cost
        self._active_assemble = assemble
        runs = ExactSynthesizer(self.config.exact).runs(
            state, memory=self.memory, topology=topology,
            incumbent=incumbent)
        try:
            while True:
                yield from self._drive(next(runs))
        except StopIteration as done:
            return done.value

    def _core_stage(self, state: QState, trace: list[str],
                    prefix_cost: int = 0, finish=None):
        """Exact-synthesize the entangled core of ``state`` and re-embed.

        ``finish`` maps the re-embedded core circuit to the full-register
        circuit of the surrounding stage (identity when ``state`` *is*
        the full register); it contextualizes deadline flushes.  Returns
        ``(circuit, optimal)`` on ``state``'s register, or ``None`` when
        the candidate was incumbent-pruned.
        """
        config = self.config
        extraction = extract_core(state)
        if extraction.core is None:
            trace.append("core: fully separable, free gates only")
            return embed_core_circuit(extraction, None), None
        core = extraction.core
        trace.append(f"core: n_eff={core.num_qubits} m={core.cardinality}")
        if config.use_exact:
            key = qstate_payload(core)
            cached = self._core_cache.get(key)
            if cached is not None:
                self.core_reuse += 1
                best_circuit, optimal, line = cached
            else:
                def assemble(core_circuit: QCircuit) -> QCircuit:
                    embedded = embed_core_circuit(extraction, core_circuit)
                    return finish(embedded) if finish else embedded

                # Bound first: the cheaper reduction-flow circuit of the
                # core is in hand before the search, which then looks
                # only for what can beat it.
                label, baseline = min(
                    (("n-flow", nflow_synthesize(core, prune=True)),
                     ("reduction-only", _reduction_only_circuit(core))),
                    key=lambda item: item[1].cnot_cost())
                result = yield from self._exact(
                    core, prefix_cost=prefix_cost, assemble=assemble,
                    incumbent=SearchResult(
                        circuit=baseline, cnot_cost=baseline.cnot_cost(),
                        optimal=False))
                if result is None:
                    return None
                best_circuit, optimal = result.circuit, result.optimal
                # A* proved nothing cheaper exists, or ran out of budget
                # before it found anything cheaper
                source = f", {label}" if best_circuit is baseline else ""
                line = (f"exact: {best_circuit.cnot_cost()} CNOTs "
                        f"(optimal={optimal}{source})")
                self._core_cache[key] = (best_circuit, optimal, line)
            trace.append(line)
            return embed_core_circuit(extraction, best_circuit), optimal
        # Ablation: finish the core with the baseline reduction instead.
        core_circuit = _reduction_only_circuit(core)
        trace.append(f"reduction-only core: {core_circuit.cnot_cost()} CNOTs")
        return embed_core_circuit(extraction, core_circuit), None

    def _sparse_stage(self, trace: list[str]):
        state, config = self.state, self.config
        n = state.num_qubits
        trace.append(f"sparse path: n={n} m={state.cardinality}")
        # Candidate reductions: the improved multi-pair greedy and the
        # plain GH baseline steps, one GH trajectory serving both (the
        # greedy walks it and compares against it).  Both end at the
        # exact-synthesis thresholds; the cheaper full-register circuit
        # wins, so the workflow never regresses below the m-flow baseline.
        # A candidate's cost is its moves' costs plus its core circuit's
        # (each move's forward gates cost exactly the move's cost), so
        # only the winner is assembled.
        candidates: list[tuple[str, list[Move], QState]] = []
        yield  # flow boundary: reduction candidates next
        # a state of cardinality 1 needs no reduction, so 0 means 1
        stop_cardinality = max(1, config.exact_cardinality)
        gh = GHTrajectory(state, stop_cardinality=stop_cardinality,
                          stop_entangled=config.exact_qubits)
        if config.improved_reduction:
            moves, reduced = reduce_cardinality(
                state,
                stop_cardinality=stop_cardinality,
                stop_entangled=config.exact_qubits,
                config=config.reduction, gh=gh)
            candidates.append(("multi-pair", moves, reduced))
            yield  # flow boundary between candidate reductions
        candidates.append(("gh", gh.moves, gh.final))

        best: tuple[int, bool | None, Callable[[], QCircuit]] | None = None
        best_label = ""
        chosen_trace: list[str] = []
        for label, moves, reduced in candidates:
            yield  # flow boundary: this candidate's exact core next
            sub_trace: list[str] = []
            reduction_cost = sum(m.cost for m in moves)

            def finish(core_circuit: QCircuit,
                       moves=moves) -> QCircuit:
                circuit = QCircuit(n)
                circuit.compose(core_circuit)
                for move in reversed(moves):
                    circuit.extend(move.forward_gates())
                return circuit

            outcome = yield from self._core_stage(
                reduced, sub_trace, prefix_cost=reduction_cost,
                finish=finish)
            if outcome is None:
                continue  # incumbent-pruned candidate
            core_circuit, optimal = outcome
            candidate = (reduction_cost + core_circuit.cnot_cost(), optimal,
                         partial(finish, core_circuit))
            if self._best_partial is None or \
                    candidate[0] < self._best_partial[0]:
                self._best_partial = candidate
            if best is None or candidate[0] < best[0]:
                best = candidate
                best_label = label
                chosen_trace = [
                    f"reduction ({label}): {len(moves)} moves, "
                    f"{reduction_cost} CNOTs, core m={reduced.cardinality}",
                    *sub_trace,
                ]
        if best is None:
            return None
        trace.extend(chosen_trace)
        trace.append(f"selected reduction strategy: {best_label}")
        _, optimal, build = best
        return build(), optimal

    def _dense_stage(self, trace: list[str]):
        state, config = self.state, self.config
        n = state.num_qubits
        trace.append(f"dense path: n={n} m={state.cardinality}")
        yield  # flow boundary: qubit reduction next
        keep = min(n, max(1, config.exact_qubits))
        core, suffix = qubit_reduction_prefix(state, keep)
        trace.append(f"qubit reduction to {keep} wires: "
                     f"{suffix.cnot_cost()} CNOTs")

        def finish(core_circuit: QCircuit) -> QCircuit:
            circuit = QCircuit(n)
            circuit.compose(core_circuit.embedded(n, list(range(keep))))
            circuit.compose(suffix)
            return circuit

        outcome = yield from self._core_stage(
            core, trace, prefix_cost=suffix.cnot_cost(), finish=finish)
        if outcome is None:
            return None
        core_circuit, optimal = outcome
        circuit = finish(core_circuit)
        self._best_partial = (circuit.cnot_cost(), optimal, lambda: circuit)
        return circuit, optimal

    def _native_stage(self, trace: list[str]):
        """Topology-native synthesis: search directly on the restricted
        move set, full register, no reduction prefix.

        The reduction flows emit merges with arbitrary control cubes and
        CX on arbitrary pairs — none of which are native — so a
        device-constrained request goes straight to the exact engines,
        whose restricted enumeration guarantees every emitted CNOT sits
        on a coupled pair.  The beam fallback searches natively too, but
        its m-flow completion tail is disabled under a topology (the
        tail's moves are not native), so unlike the unrestricted pipeline
        it is *not* guaranteed to return a feasible circuit within tight
        budgets — a hard request can fail loudly with
        :class:`~repro.exceptions.SynthesisError` rather than be answered
        with an unroutable circuit.
        """
        state, topology = self.state, self.topology
        trace.append(f"native path: topology={topology.name} "
                     f"n={state.num_qubits} m={state.cardinality}")
        yield  # flow boundary: native exact search next
        result = yield from self._exact(
            state, topology=topology, assemble=lambda circuit: circuit)
        if result is None:
            return None
        trace.append(f"exact (native): {result.circuit.cnot_cost()} CNOTs "
                     f"(optimal={result.optimal})")
        self._best_partial = (result.circuit.cnot_cost(), result.optimal,
                              lambda: result.circuit)
        return result.circuit, result.optimal


def prepare_state(state: QState, config: QSPConfig | None = None,
                  memory=None, topology=None) -> QSPResult:
    """Synthesize a preparation circuit with the paper's workflow.

    The sparsity test ``n * m < 2**n`` picks the divide-and-conquer
    strategy; the exact engine finishes the small core either way.

    ``memory`` optionally threads a process-lifetime
    :class:`~repro.core.memory.SearchMemory` into every exact-core search
    the workflow runs — the synthesis service passes its memory here, so
    repeated traffic keeps the cores' canonical keys and heuristic values
    warm across requests.  Results are identical warm or cold.

    ``topology`` optionally constrains synthesis to a device coupling map:
    the whole register is then searched natively (restricted move set, see
    :meth:`WorkflowRun._native_stage`) and the returned circuit needs no
    routing.  ``None`` or a full map is the paper's unrestricted model.

    This is the one-shot wrapper over :class:`WorkflowRun` — identical to
    driving the run to completion in a single step.
    """
    return WorkflowRun(state, config, memory=memory,
                       topology=topology).run_to_completion()
