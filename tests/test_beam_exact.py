"""Unit tests for the beam engine and the ExactSynthesizer facade."""

from __future__ import annotations

from repro.core.astar import SearchConfig
from repro.core.beam import BeamConfig, beam_search
from repro.core.exact import ExactConfig, ExactSynthesizer, synthesize_exact
from repro.sim.verify import prepares_state
from repro.states.families import dicke_state, ghz_state, w_state
from repro.states.qstate import QState


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
