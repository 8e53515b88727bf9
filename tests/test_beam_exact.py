"""Unit tests for the beam engine and the ExactSynthesizer facade."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.arch.topologies import CouplingMap
from repro.baselines.nflow import nflow_synthesize
from repro.circuits.decompose import decompose_circuit
from repro.core.astar import SearchConfig
from repro.core.beam import BeamConfig, BeamRun, beam_search
from repro.core.exact import ExactConfig, ExactSynthesizer, synthesize_exact
from repro.core.kernel import successors_packed
from repro.core.memory import SearchMemory
from repro.core.moves import MergeMove
from repro.exceptions import SynthesisError
from repro.sim.verify import prepares_state
from repro.states.families import dicke_state, ghz_state, w_state
from repro.states.qstate import QState
from repro.states.random_states import random_dense_state

SRC_ROOT = str(Path(__file__).resolve().parent.parent / "src")


class TestBeam:
    def test_ghz_found(self):
        res = beam_search(ghz_state(3), BeamConfig(width=16))
        assert prepares_state(res.circuit, ghz_state(3))
        assert res.cnot_cost >= 2
        assert not res.optimal

    def test_product_state_zero_cost(self):
        s = QState.uniform(2, [0b00, 0b01])
        res = beam_search(s, BeamConfig(width=4))
        assert res.cnot_cost == 0

    def test_always_feasible_with_tiny_width(self):
        """Even a width-1 beam must return a valid circuit (reduction
        completion)."""
        res = beam_search(dicke_state(4, 2), BeamConfig(width=1, max_depth=3))
        assert prepares_state(res.circuit, dicke_state(4, 2))

    def test_timeout_still_returns(self):
        res = beam_search(w_state(5), BeamConfig(width=64, time_limit=0.05))
        assert prepares_state(res.circuit, w_state(5))

    def test_wider_beam_not_worse(self):
        narrow = beam_search(w_state(4), BeamConfig(width=2))
        wide = beam_search(w_state(4), BeamConfig(width=64))
        assert wide.cnot_cost <= narrow.cnot_cost

    def test_search_budgets_do_not_reach_the_beam(self):
        # the beam reads only the regime from ``search``; its budget is
        # BeamConfig.time_limit (an expired 0 s limit here would cut the
        # run to the m-flow completion tail)
        state = dicke_state(4, 2)
        plain = beam_search(state, BeamConfig(width=16))
        budgeted = beam_search(state, BeamConfig(width=16),
                               search=SearchConfig(max_nodes=1, weight=5.0,
                                                   time_limit=0.0))
        assert budgeted.cnot_cost == plain.cnot_cost
        assert budgeted.stats.nodes_expanded == plain.stats.nodes_expanded
        assert budgeted.moves == plain.moves


    def test_answer_independent_of_hash_seed(self):
        """The canonical keys the beam dedupes on do not read the
        interpreter's hash seed (the WL refinement folds its pair tables
        with splitmix64), so processes at different ``PYTHONHASHSEED``
        answer with the same cost after the same expansions."""
        code = ("from repro.core.beam import BeamConfig, beam_search\n"
                "from repro.states.families import dicke_state\n"
                "res = beam_search(dicke_state(6, 3), BeamConfig(width=16))\n"
                "print(res.cnot_cost, res.stats.nodes_expanded)\n")
        procs = [subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC_ROOT))
            for seed in ("0", "1")]
        answers = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            answers.append(out.split())
        assert answers[0] == answers[1]


class TestExactSynthesizer:
    def test_optimal_flag_true_on_success(self):
        result = ExactSynthesizer().synthesize(ghz_state(3))
        assert result.optimal
        assert result.cnot_cost == 2

    def test_verification_runs(self):
        # The facade verifies by simulation; a passing run implies the
        # circuit prepares the state.
        result = ExactSynthesizer().synthesize(dicke_state(3, 1))
        assert prepares_state(result.circuit, dicke_state(3, 1))

    def test_beam_fallback_on_tiny_budget(self):
        cfg = ExactConfig(search=SearchConfig(max_nodes=3),
                          beam=BeamConfig(width=32))
        result = ExactSynthesizer(cfg).synthesize(w_state(4))
        assert not result.optimal
        assert prepares_state(result.circuit, w_state(4))

    def test_convenience_wrapper(self):
        result = synthesize_exact(ghz_state(2), max_nodes=10_000)
        assert result.cnot_cost == 1

    def test_lower_bound(self):
        assert ExactSynthesizer().lower_bound(ghz_state(4)) == 2


class TestOneSearchRegime:
    """The beam fallback searches the regime of ``ExactConfig.search``:
    a coupling map there binds the fallback too, and both runs attach to
    one memory."""

    @pytest.mark.parametrize("with_memory", [False, True],
                             ids=["cold", "memory"])
    @pytest.mark.parametrize("state", [dicke_state(4, 2), w_state(6)],
                             ids=["D42", "W6"])
    def test_fallback_keeps_cnots_on_the_device(self, state, with_memory):
        line = CouplingMap.line(state.num_qubits)
        cfg = ExactConfig(search=SearchConfig(topology=line, max_nodes=1))
        memory = SearchMemory() if with_memory else None
        result = ExactSynthesizer(cfg).synthesize(state, memory=memory)
        assert not result.optimal  # A* ran out, the beam answered
        assert prepares_state(result.circuit, state)
        pairs = [(g.controls[0][0], g.target)
                 for g in decompose_circuit(result.circuit) if g.name == "cx"]
        assert pairs
        assert all(line.is_adjacent(c, t) for c, t in pairs), pairs
        if memory is not None:
            assert memory.searches == 2  # A* and its fallback, one regime


class TestMergeCap:
    """A capped run returns a circuit inside its move set: the beam's
    m-flow completion tail is recorded only when every merge fits
    ``max_merge_controls``."""

    @staticmethod
    def _max_controls(result) -> int:
        return max((len(m.controls) for m in result.moves
                    if isinstance(m, MergeMove)), default=0)

    def test_dense_tail_stays_inside_the_cap(self):
        state = random_dense_state(5, seed=1)
        search = SearchConfig(max_merge_controls=1)
        try:
            result = beam_search(state, BeamConfig(width=16), search=search)
        except SynthesisError:
            return  # no feasible circuit inside the move set
        assert self._max_controls(result) <= 1
        assert prepares_state(result.circuit, state)

    def test_dicke_still_answered_within_the_cap(self):
        state = dicke_state(5, 2)
        run = BeamRun(state, BeamConfig(width=16),
                      search=SearchConfig(max_merge_controls=1))
        result = run.run_to_completion()
        assert self._max_controls(result) <= 1
        assert prepares_state(result.circuit, state)
        flushed = run.flush_feasible()
        assert self._max_controls(flushed) <= 1


class TestBoundedBeam:
    """Under a cost bound the beam drops a child whose admissible
    ``g + h`` reaches the bound before it is canonicalized."""

    @pytest.mark.parametrize("state,width", [
        (dicke_state(5, 2), 8), (dicke_state(5, 2), 32),
        (random_dense_state(4, seed=1), 32)])
    def test_bound_prunes_before_canonicalizing(self, state, width):
        bound = nflow_synthesize(state, prune=True).cnot_cost()
        run = BeamRun(state, BeamConfig(width=width), incumbent=bound)
        ctx = run._ctx
        keyed: list = []
        key = ctx.canon
        ctx.canon = lambda ps: keyed.append(ps) or key(ps)
        parent, checked = None, 0
        while True:
            keyed.clear()
            status = run.step(1)
            # every key between two pauses is a child of the node the
            # earlier pause was about to expand (the start's, at first)
            for child in keyed if parent is not None else ():
                cheapest = min(
                    parent.g + move.cost
                    for move, nxt in successors_packed(ctx.pool, parent.state)
                    if nxt is child)
                assert cheapest + ctx.h_of(child) < bound
                checked += 1
            if status.terminal:
                break
            parent = run._gen.gi_frame.f_locals["node"]
        assert checked == ctx.canon_ctx.hits + ctx.canon_ctx.misses - 1 > 0
        # served as the workflow serves it (the cheaper of the answer and
        # the bound's circuit), the bounded beam never loses
        bounded = run.result()
        free = beam_search(state, BeamConfig(width=width))
        assert prepares_state(bounded.circuit, state)
        assert min(bounded.cnot_cost, bound) <= min(free.cnot_cost, bound)
        assert bounded.stats.nodes_expanded <= free.stats.nodes_expanded
