"""Integration tests for the Fig.-5 workflow."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import repro.baselines.mflow as mflow_module
import repro.core.exact as exact_module
import repro.qsp.reduction as reduction_module
import repro.qsp.workflow as workflow_module

from repro.arch.topologies import CouplingMap
from repro.baselines.mflow import mflow_cnot_count
from repro.baselines.nflow import nflow_cnot_count
from repro.circuits.circuit import QCircuit
from repro.core.astar import SearchConfig
from repro.core.engine import RunStatus
from repro.core.exact import ExactConfig, ExactSynthesizer
from repro.exceptions import SynthesisError
from repro.qsp.config import QSPConfig
from repro.qsp.extraction import extract_core
from repro.qsp.workflow import WorkflowRun, prepare_state
from repro.sim.verify import prepares_state
from repro.states.families import dicke_state, ghz_state, w_state
from repro.states.qstate import QState
from repro.states.random_states import (
    random_dense_state,
    random_real_state,
    random_sparse_state,
)


class TestDispatch:
    def test_sparse_flag(self):
        res = prepare_state(random_sparse_state(6, seed=1))
        assert res.sparse_path

    def test_dense_flag(self):
        res = prepare_state(random_dense_state(5, seed=1))
        assert not res.sparse_path

    def test_small_state_goes_direct(self):
        res = prepare_state(ghz_state(3))
        assert any("core" in line for line in res.trace)
        assert res.cnot_cost == 2


class TestCorrectness:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_sparse_states_verified(self, n):
        s = random_sparse_state(n, seed=60 + n)
        res = prepare_state(s)
        assert prepares_state(res.circuit, s)
        assert res.cnot_cost == res.circuit.cnot_cost()

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_dense_states_verified(self, n):
        s = random_dense_state(n, seed=70 + n)
        res = prepare_state(s)
        assert prepares_state(res.circuit, s)

    def test_signed_amplitudes(self):
        s = random_real_state(5, 5, seed=2)
        res = prepare_state(s)
        assert prepares_state(res.circuit, s)

    def test_named_states(self):
        for s in (ghz_state(5), w_state(5), dicke_state(5, 2)):
            res = prepare_state(s)
            assert prepares_state(res.circuit, s)

    def test_basis_state_free(self):
        res = prepare_state(QState.basis(6, 0b101010))
        assert res.cnot_cost == 0


class TestQuality:
    """The paper's evaluation claims, at test scale."""

    def test_sparse_beats_or_ties_mflow(self):
        for seed in range(3):
            s = random_sparse_state(8, seed=seed)
            ours = prepare_state(s).cnot_cost
            assert ours <= mflow_cnot_count(s)

    def test_dense_beats_or_ties_nflow(self):
        for seed in range(2):
            s = random_dense_state(6, seed=seed)
            ours = prepare_state(s).cnot_cost
            assert ours <= nflow_cnot_count(6)

    def test_dicke42_beats_manual(self):
        """The 2x headline: |D^2_4> below the 12-CNOT manual design."""
        res = prepare_state(dicke_state(4, 2))
        assert res.cnot_cost == 6

    def test_ghz_large(self):
        res = prepare_state(ghz_state(8))
        assert prepares_state(res.circuit, ghz_state(8))
        assert res.cnot_cost == 7  # GHZ(n) optimum is n-1


class TestConfig:
    def test_exact_disabled_ablation(self):
        cfg = QSPConfig(use_exact=False)
        s = random_sparse_state(6, seed=11)
        res = prepare_state(s, cfg)
        assert prepares_state(res.circuit, s)
        assert res.exact_optimal is None

    def test_plain_reduction_ablation(self):
        cfg = QSPConfig(improved_reduction=False)
        s = random_sparse_state(7, seed=12)
        res = prepare_state(s, cfg)
        assert prepares_state(res.circuit, s)

    def test_improved_not_worse_than_plain(self):
        s = random_sparse_state(8, seed=13)
        improved = prepare_state(s).cnot_cost
        plain = prepare_state(s, QSPConfig(improved_reduction=False)).cnot_cost
        assert improved <= plain

    def test_verification_can_be_skipped(self):
        cfg = QSPConfig(verify_max_qubits=0)
        res = prepare_state(random_sparse_state(5, seed=14), cfg)
        assert "verified by simulation" not in res.trace

    def test_trace_is_informative(self):
        res = prepare_state(random_sparse_state(6, seed=15))
        assert any("sparse path" in t for t in res.trace)
        assert any("exact" in t for t in res.trace)


class TestWorkflowRun:
    """Stepwise surface of the Fig.-5 flow (PR 10)."""

    @pytest.mark.parametrize("state", [
        ghz_state(4), w_state(5), dicke_state(5, 2),
        random_sparse_state(6, seed=1), random_dense_state(5, seed=1),
    ], ids=["ghz4", "w5", "dicke52", "sparse6", "dense5"])
    def test_stepwise_equals_one_shot(self, state):
        """Driving a run one expansion at a time must be differentially
        identical to ``prepare_state``: costs, flags, and full trace."""
        # node budgets only: a wall-clock limit would end the exact core's
        # searches at host-speed-dependent points and make the runs differ
        cfg = QSPConfig()
        cfg.exact.search.time_limit = None
        cfg.exact.search.max_nodes = 10_000
        cfg.exact.beam.time_limit = None
        one_shot = prepare_state(state, cfg)
        run = WorkflowRun(state, cfg)
        steps = 0
        while not run.status.terminal:
            run.step(1)
            steps += 1
        assert steps > 1  # genuinely stepwise, not one opaque blob
        stepped = run.result()
        assert stepped.cnot_cost == one_shot.cnot_cost
        assert stepped.exact_optimal == one_shot.exact_optimal
        assert stepped.sparse_path == one_shot.sparse_path
        assert stepped.trace == one_shot.trace

    def test_cancel_mid_flow(self):
        run = WorkflowRun(dicke_state(6, 3))
        status = run.step(1)
        assert status is RunStatus.RUNNING
        run.cancel()
        assert run.status is RunStatus.CANCELLED
        with pytest.raises(SynthesisError):
            run.result()
        # cancelling twice is harmless
        run.cancel()
        assert run.status is RunStatus.CANCELLED

    def test_deadline_flush_returns_verified_best_so_far(self):
        state = dicke_state(6, 3)
        run = WorkflowRun(state)
        run.step(1)
        assert not run.status.terminal
        result = run.flush_feasible()
        assert result is not None
        assert prepares_state(result.circuit, state)
        assert any("deadline flush" in line for line in result.trace)
        assert result.trace[-1] == "verified by simulation"

    def test_deadline_flush_mid_core_offers_the_best_baseline(self):
        """Cut inside the core's search, a flush assembles the core's
        cheaper baseline circuit (n-flow's 14 CNOTs after 16 for qubit
        reduction), which is what the finished run serves."""
        state = random_dense_state(5, seed=1)
        run = WorkflowRun(state)
        run.step(50)
        assert run._active is not None  # inside the core's search
        result = run.flush_feasible()
        assert result.cnot_cost <= 30
        assert prepares_state(result.circuit, state)
        assert result.trace[-1] == "verified by simulation"

    def test_incumbent_injection_is_monotone(self):
        run = WorkflowRun(random_sparse_state(6, seed=1))
        run.step(1)
        run.inject_incumbent(100)
        run.inject_incumbent(200)  # looser bound must not regress
        result = run.run_to_completion()
        assert result.cnot_cost <= 100 or not result.exact_optimal

    def test_identical_cores_searched_once(self, monkeypatch):
        """Satellite (a): when two reduction candidates end at the same
        entangled core, the second exact search is a cache hit — and the
        trace still reports both candidates."""
        state = random_sparse_state(6, seed=1)
        config = QSPConfig()
        # the multi-pair candidate lands where the GH candidate does
        monkeypatch.setattr(workflow_module, "reduce_cardinality",
                            lambda *args, gh, **kwargs: (gh.moves, gh.final))
        run = WorkflowRun(state, config)
        result = run.run_to_completion()
        assert run.core_reuse == 1
        assert prepares_state(result.circuit, state)
        assert any("selected reduction strategy" in line
                   for line in result.trace)

    def test_sparse_prepare_computes_gh_trajectory_once(self, monkeypatch):
        """The greedy reduction, its GH peeks and the workflow's GH
        candidate share one GH trajectory: no state of a sparse prepare is
        GH-stepped twice, the target included.  The spy wraps the GH step
        both carriers go through."""
        state = random_real_state(8, 16, seed=4)
        stepped: Counter = Counter()

        def counting(step):
            def spy(current, minimize_literals=False):
                stepped[mflow_module.as_qstate(current).key()] += 1
                return step(current, minimize_literals)
            return spy

        for module in (reduction_module, mflow_module):
            monkeypatch.setattr(module, "_gh_step",
                                counting(module._gh_step))
        result = prepare_state(state)
        assert prepares_state(result.circuit, state)
        assert stepped[state.key()] == 1
        assert max(stepped.values()) == 1

    def test_exact_cardinality_zero_reads_as_one(self):
        """No state needs a reduction below cardinality 1, so
        ``exact_cardinality=0`` serves what ``exact_cardinality=1``
        serves, with the improved reduction on or off."""
        state = random_real_state(8, 8, seed=1)
        one = prepare_state(state, QSPConfig(exact_cardinality=1))
        assert one.circuit.cnot_cost() == 33
        for improved in (True, False):
            zero = prepare_state(state, QSPConfig(
                exact_cardinality=0, improved_reduction=improved))
            assert prepares_state(zero.circuit, state)
            assert zero.circuit.cnot_cost() == one.circuit.cnot_cost()


class TestExactCoreLine:
    """The workflow and :class:`ExactSynthesizer` share one exact-core
    sequence (A* to budget, then the incumbent or, with none, the beam):
    driven to completion or one expansion at a time, it gives the same
    answer."""

    @staticmethod
    def _stepwise(state, exact, topology=None):
        """The exact-core results of a workflow driven one step at a time,
        each with the incumbent the workflow bounded its search by."""
        run = WorkflowRun(state, QSPConfig(exact=exact), topology=topology)
        results = []
        drive = run._exact

        def recording(*args, **kwargs):
            result = yield from drive(*args, **kwargs)
            results.append((result, kwargs.get("incumbent")))
            return result

        run._exact = recording
        while not run.step(1).terminal:
            pass
        assert run.status is RunStatus.SOLVED
        return results

    @staticmethod
    def _one_shot(target, exact, topology, incumbent):
        """The same sequence under the same incumbent, driven to
        completion by :meth:`ExactSynthesizer.synthesize`'s loop."""
        runs = ExactSynthesizer(exact).runs(target, topology=topology,
                                            incumbent=incumbent)
        try:
            while True:
                run = next(runs)
                while not run.step(1 << 20).terminal:
                    pass
        except StopIteration as done:
            return done.value

    @pytest.mark.parametrize("state,exact,topology,optimal,cost", [
        (dicke_state(4, 2), ExactConfig(verify=False), None, True, 6),
        # A* runs out of budget: reduction-only's circuit is served
        (w_state(4), ExactConfig(search=SearchConfig(max_nodes=3),
                                 verify=False), None, False, 9),
        (ghz_state(4), ExactConfig(verify=False), CouplingMap.line(4),
         True, 3),
        # no baseline on a device: the beam answers
        (w_state(4), ExactConfig(search=SearchConfig(max_nodes=1),
                                 verify=False), CouplingMap.line(4),
         False, 7),
    ], ids=["astar", "budget-bound", "native", "native-beam"])
    def test_one_shot_equals_stepwise(self, state, exact, topology,
                                      optimal, cost):
        [(stepped, incumbent)] = self._stepwise(state, exact, topology)
        target = state if topology is not None else extract_core(state).core
        one_shot = self._one_shot(target, exact, topology, incumbent)
        assert one_shot.optimal is stepped.optimal is optimal
        assert one_shot.cnot_cost == stepped.cnot_cost == cost
        assert [repr(g) for g in one_shot.circuit.gates] == \
            [repr(g) for g in stepped.circuit.gates]
        assert one_shot.stats.nodes_expanded == \
            stepped.stats.nodes_expanded

    @pytest.mark.parametrize("state,cost", [(ghz_state(4), 3),
                                            (w_state(3), 4)],
                             ids=["ghz4", "w3"])
    def test_search_proves_the_baseline_optimal(self, state, cost):
        """The core's search runs under its baseline circuit; when
        nothing cheaper exists, A* proves the baseline optimal and the
        trace names it."""
        result = prepare_state(state)
        [line] = [t for t in result.trace if t.startswith("exact:")]
        assert line == f"exact: {cost} CNOTs (optimal=True, reduction-only)"
        assert result.exact_optimal is True
        assert result.cnot_cost == cost
        assert result.trace[-1] == "verified by simulation"
        assert prepares_state(result.circuit, state)

    def test_exhausted_core_serves_its_baseline(self, monkeypatch):
        """A* runs out of budget on the core before anything beats its
        baseline: the baseline is served, and no beam is built."""
        def no_beam(*args, **kwargs):
            raise AssertionError("a core with a baseline built a beam")

        monkeypatch.setattr(exact_module, "BeamRun", no_beam)
        state = random_dense_state(5, seed=1)
        config = QSPConfig(exact=ExactConfig(search=SearchConfig(
            max_nodes=300)))
        result = prepare_state(state, config)
        [line] = [t for t in result.trace if t.startswith("exact:")]
        assert line == "exact: 14 CNOTs (optimal=False, n-flow)"
        assert result.cnot_cost == 30
        assert prepares_state(result.circuit, state)


def _perfbench_sparse_rows(rows: int, per_row: int = 7) -> list[QState]:
    """The first ``rows`` rows of the repository benchmark's sparse suite
    (``perfbench/gen.py``: Gaussian real amplitudes over ``m`` random
    basis states, ``m`` in ``(n, 2n, 4n)``, rows with ``n * m < 2**n``),
    drawn from the same stream in the same order."""
    row_shapes = [(n, m) for n in range(8, 21) for m in (n, 2 * n, 4 * n)
                  if n * m < (1 << n)][:rows]
    rng = np.random.default_rng([0, 12])
    states = []
    for n, m in row_shapes:
        for _ in range(per_row):
            indices = sorted(int(i)
                             for i in rng.choice(1 << n, m, replace=False))
            values = [float(v) for v in rng.standard_normal(m)]
            while any(abs(v) < 1e-3 for v in values):
                values = [float(v) for v in rng.standard_normal(m)]
            states.append(QState(n, dict(zip(indices, values))))
    return states


class _AssembleEveryCandidate(WorkflowRun):
    """Oracle of the sparse stage's candidate choice: every reduction
    candidate's full-register circuit is assembled and the cheaper
    assembled circuit wins (first on ties), as the workflow did before it
    compared ``reduction cost + core cost`` and assembled the winner
    only."""

    def _sparse_stage(self, trace):
        state, config = self.state, self.config
        n = state.num_qubits
        trace.append(f"sparse path: n={n} m={state.cardinality}")
        candidates = []
        yield
        stop_cardinality = max(1, config.exact_cardinality)
        gh = reduction_module.GHTrajectory(
            state, stop_cardinality=stop_cardinality,
            stop_entangled=config.exact_qubits)
        if config.improved_reduction:
            moves, reduced = workflow_module.reduce_cardinality(
                state, stop_cardinality=stop_cardinality,
                stop_entangled=config.exact_qubits,
                config=config.reduction, gh=gh)
            candidates.append(("multi-pair", moves, reduced))
            yield
        candidates.append(("gh", gh.moves, gh.final))
        best = None
        best_label = ""
        chosen_trace: list[str] = []
        for label, moves, reduced in candidates:
            yield
            sub_trace: list[str] = []
            reduction_cost = sum(m.cost for m in moves)

            def finish(core_circuit, moves=moves):
                circuit = QCircuit(n)
                circuit.compose(core_circuit)
                for move in reversed(moves):
                    circuit.extend(move.forward_gates())
                return circuit

            outcome = yield from self._core_stage(
                reduced, sub_trace, prefix_cost=reduction_cost,
                finish=finish)
            if outcome is None:
                continue
            core_circuit, optimal = outcome
            circuit = finish(core_circuit)
            if self._best_partial is None or \
                    circuit.cnot_cost() < self._best_partial[0]:
                self._best_partial = (circuit.cnot_cost(), optimal,
                                      lambda circuit=circuit: circuit)
            if best is None or circuit.cnot_cost() < best[0].cnot_cost():
                best = (circuit, optimal)
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
        return best


class TestSparseCandidateChoice:
    """Comparing candidates by ``reduction cost + core cost`` and
    assembling only the winner serves what assembling every candidate
    served, on the first 14 rows of the benchmark's sparse suite.  In
    row 13 (n=12, m=48) the fifth state's multi-pair reduction is the
    cheaper one (338 vs 339 CNOTs) but loses on the full circuit (core 3
    vs 0), so a choice by reduction cost alone would show."""

    ROWS = _perfbench_sparse_rows(14)

    @staticmethod
    def _gates(circuit) -> list[str]:
        return [repr(g) for g in circuit.gates]

    @pytest.mark.parametrize("row", range(14))
    def test_gate_lists_and_traces_match_assembling_every_candidate(
            self, row):
        for state in self.ROWS[7 * row:7 * row + 7]:
            got = prepare_state(state)
            oracle = _AssembleEveryCandidate(state).run_to_completion()
            assert self._gates(got.circuit) == self._gates(oracle.circuit)
            assert got.trace == oracle.trace
            assert got.cnot_cost == oracle.cnot_cost

    def test_deadline_flushes_match_assembling_every_candidate(self):
        """A flush at any step assembles the best candidate so far on
        demand, exactly as the eagerly assembled oracle flushes."""
        for state in (*self.ROWS[:14:3], self.ROWS[96]):
            run, oracle = WorkflowRun(state), _AssembleEveryCandidate(state)
            flushed = 0
            while not run.status.terminal:
                run.step(1)
                oracle.step(1)
                assert run.status is oracle.status
                mine, theirs = run.flush_feasible(), oracle.flush_feasible()
                assert self._gates(mine.circuit) == \
                    self._gates(theirs.circuit)
                assert mine.trace == theirs.trace
                assert mine.exact_optimal == theirs.exact_optimal
                flushed += 1
            assert flushed > 3
