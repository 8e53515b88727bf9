"""Tests for the stepwise engine runtime + interleaved portfolio scheduler.

Covers the PR's acceptance surface:

* differential identity — a run driven in slices of any size matches the
  one-shot function node-for-node (costs, expansions, generated nodes) on
  the Dicke family, for all three engines;
* stats finalization on every exit path (solved, budget, proven,
  cancelled, deadline);
* incumbent injection soundness (cross-lane branch-and-bound never
  changes the returned cost; proving an injected optimum yields PROVEN);
* the interleaved scheduler: cost and proof identity with a single-lane
  A* proof, first-proven-optimal cancellation, deadline exits returning
  the best feasible circuit;
* adaptive lane ordering from persisted per-lane win statistics;
* transposition-entry aging across snapshot generations.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.astar import AStarRun, SearchConfig, astar_search
from repro.core.beam import BeamConfig, BeamRun, beam_search
from repro.core.engine import RunStatus, SearchStats
from repro.core.idastar import IDAStarConfig, IDAStarRun, idastar_search
from repro.core.memory import SearchMemory, TranspositionTable
from repro.exceptions import SearchBudgetExceeded
from repro.service.persistence import load_memory_snapshot, \
    save_memory_snapshot
from repro.service.portfolio import (
    EngineSpec,
    default_portfolio,
    interleaved_portfolio,
    order_specs,
)
from repro.sim.verify import prepares_state
from repro.states.families import dicke_state, ghz_state, w_state

DICKE_FAMILY = [(3, 1), (4, 1), (4, 2), (5, 1)]
SLICE_SIZES = (1, 7, 1000)


def _signature(result):
    return (result.cnot_cost, result.optimal,
            result.stats.nodes_expanded, result.stats.nodes_generated,
            result.stats.nodes_pruned)


def _drive(run, slice_size):
    while not run.step(slice_size).terminal:
        pass
    return run


class TestDifferentialStepping:
    """Stepped-and-resumed runs match one-shot runs node-for-node."""

    @pytest.mark.parametrize("n,k", DICKE_FAMILY)
    def test_astar_any_slice_size(self, n, k):
        state = dicke_state(n, k)
        one_shot = astar_search(state, SearchConfig())
        for slice_size in SLICE_SIZES:
            run = _drive(AStarRun(state, SearchConfig()), slice_size)
            assert run.status is RunStatus.SOLVED
            assert _signature(run.result()) == _signature(one_shot)

    # IDA* exhausts its default budget on D(5,1) (W-state plateaus are
    # its worst case cold) — differential-test the rows it solves
    @pytest.mark.parametrize("n,k", DICKE_FAMILY[:3])
    def test_idastar_any_slice_size(self, n, k):
        state = dicke_state(n, k)
        one_shot = idastar_search(state)
        for slice_size in SLICE_SIZES:
            run = _drive(IDAStarRun(state), slice_size)
            assert run.status is RunStatus.SOLVED
            assert _signature(run.result()) == _signature(one_shot)
            assert run.result().stats.transposition_writes == \
                one_shot.stats.transposition_writes

    @pytest.mark.parametrize("n,k", DICKE_FAMILY)
    def test_beam_any_slice_size(self, n, k):
        state = dicke_state(n, k)
        one_shot = beam_search(state)
        for slice_size in SLICE_SIZES:
            run = _drive(BeamRun(state), slice_size)
            assert run.status is RunStatus.SOLVED
            assert _signature(run.result()) == _signature(one_shot)

    def test_budget_exhaustion_matches_one_shot(self):
        state = dicke_state(5, 2)
        config = SearchConfig(max_nodes=300)
        with pytest.raises(SearchBudgetExceeded) as excinfo:
            astar_search(state, config)
        run = _drive(AStarRun(state, config), 17)
        assert run.status is RunStatus.EXHAUSTED
        assert isinstance(run.error, SearchBudgetExceeded)
        assert run.error.lower_bound == excinfo.value.lower_bound
        assert run.error.stats.nodes_expanded == \
            excinfo.value.stats.nodes_expanded

    def test_one_shot_wrappers_still_raise(self):
        with pytest.raises(SearchBudgetExceeded):
            idastar_search(dicke_state(5, 2), IDAStarConfig(
                search=SearchConfig(max_nodes=50)))


class TestStatsFinalization:
    """SearchStats must be finalized on *every* exit path."""

    def _assert_finalized(self, stats):
        assert stats.elapsed_seconds > 0.0
        # the canonical caches were alive: their counters were flushed
        assert stats.canon_cache_hits + stats.canon_cache_misses > 0

    def test_normal_exit(self):
        result = astar_search(dicke_state(4, 2), SearchConfig())
        self._assert_finalized(result.stats)

    def test_cancelled_mid_run(self):
        for run in (AStarRun(dicke_state(5, 2), SearchConfig()),
                    IDAStarRun(dicke_state(4, 2)),
                    BeamRun(dicke_state(5, 2))):
            assert run.step(20) is RunStatus.RUNNING
            run.cancel()
            assert run.status is RunStatus.CANCELLED
            self._assert_finalized(run.stats)

    def test_cancel_before_first_step(self):
        run = AStarRun(dicke_state(4, 2), SearchConfig())
        run.cancel()
        assert run.status is RunStatus.CANCELLED
        assert run.stats.elapsed_seconds > 0.0

    def test_budget_exit(self):
        run = _drive(AStarRun(dicke_state(5, 2),
                              SearchConfig(max_nodes=100)), 50)
        assert run.status is RunStatus.EXHAUSTED
        self._assert_finalized(run.stats)

    def test_proven_exit(self):
        optimal = astar_search(w_state(4)).cnot_cost
        run = AStarRun(w_state(4), SearchConfig())
        run.inject_incumbent(optimal)
        _drive(run, 64)
        assert run.status is RunStatus.PROVEN
        self._assert_finalized(run.stats)

    def test_deadline_exit_attempts_carry_final_stats(self):
        outcome = interleaved_portfolio(
            dicke_state(6, 3), SearchConfig(max_nodes=500_000),
            deadline_ms=300)
        assert outcome.deadline_expired
        assert outcome.attempts
        for attempt in outcome.attempts:
            assert attempt["status"] == "cancelled"
            assert attempt["nodes_expanded"] >= 0


class TestStatsMerge:
    def test_merge_folds_every_field(self):
        """``merge`` walks the dataclass fields, so a counter added to
        ``SearchStats`` is folded without touching it: sums, except the
        ``max_queue`` maximum and the per-phase ``phase_seconds`` sums."""
        names = [f.name for f in dataclasses.fields(SearchStats)]
        total, other = SearchStats(), SearchStats()
        for i, name in enumerate(names, start=1):
            if name != "phase_seconds":
                setattr(total, name, i)
                setattr(other, name, 10 * i)
        total.max_queue, other.max_queue = 5, 7
        total.phase_seconds = {"enumeration": 1.0, "heuristic": 2.0}
        other.phase_seconds = {"enumeration": 0.5, "containers": 4.0}
        total.merge(other)
        for i, name in enumerate(names, start=1):
            if name == "max_queue":
                assert total.max_queue == 7
            elif name == "phase_seconds":
                assert total.phase_seconds == {
                    "enumeration": 1.5, "heuristic": 2.0, "containers": 4.0}
            else:
                assert getattr(total, name) == 11 * i, name
        assert other.phase_seconds == {"enumeration": 0.5,
                                       "containers": 4.0}


class TestIncumbentInjection:
    """Cross-lane incumbent sharing is sound: costs never change."""

    def test_astar_injection_never_changes_cost(self):
        for state in (dicke_state(4, 2), w_state(4), ghz_state(4)):
            baseline = astar_search(state, SearchConfig())
            run = AStarRun(state, SearchConfig())
            run.inject_incumbent(baseline.cnot_cost + 2)  # loose bound
            result = _drive(run, 25).result()
            assert result.cnot_cost == baseline.cnot_cost
            assert result.optimal
            # pruning only ever shrinks the search
            assert result.stats.nodes_expanded <= \
                baseline.stats.nodes_expanded
            assert prepares_state(result.circuit, state)

    def test_astar_proves_injected_optimum(self):
        optimal = astar_search(dicke_state(4, 2)).cnot_cost
        run = AStarRun(dicke_state(4, 2), SearchConfig())
        run.inject_incumbent(optimal)
        _drive(run, 64)
        assert run.status is RunStatus.PROVEN
        assert run.incumbent_bound == optimal
        assert run.error.lower_bound == optimal

    def test_idastar_injection_never_changes_cost(self):
        for state in (dicke_state(4, 2), w_state(4)):
            baseline = idastar_search(state)
            run = IDAStarRun(state)
            run.inject_incumbent(baseline.cnot_cost + 2)
            result = _drive(run, 100).result()
            assert result.cnot_cost == baseline.cnot_cost
            assert result.optimal

    def test_idastar_proves_injected_optimum(self):
        optimal = idastar_search(w_state(4)).cnot_cost
        run = IDAStarRun(w_state(4))
        run.inject_incumbent(optimal)
        _drive(run, 100)
        assert run.status is RunStatus.PROVEN

    def test_tighter_injection_wins(self):
        run = AStarRun(dicke_state(4, 2), SearchConfig())
        run.inject_incumbent(9)
        run.inject_incumbent(7)
        run.inject_incumbent(11)  # looser: ignored
        assert run.incumbent_bound == 7

    def test_beam_injection_keeps_feasibility(self):
        baseline = beam_search(dicke_state(4, 2))
        run = BeamRun(dicke_state(4, 2))
        run.inject_incumbent(baseline.cnot_cost + 1)
        result = _drive(run, 50).result()
        assert result.cnot_cost <= baseline.cnot_cost
        assert prepares_state(result.circuit, dicke_state(4, 2))


class TestInterleavedPortfolio:
    def test_cost_identity_with_sequential(self):
        """Interleaved cost and proof equal a single-lane A* proof on the
        same budgets (the contract the retired sequential line held)."""
        for state in (dicke_state(4, 1), dicke_state(4, 2), w_state(4),
                      ghz_state(4)):
            proof = astar_search(state, SearchConfig())
            interleaved = interleaved_portfolio(state, SearchConfig())
            assert proof.optimal and interleaved.solved
            assert interleaved.result.cnot_cost == proof.cnot_cost
            assert interleaved.result.optimal == proof.optimal
            assert prepares_state(interleaved.result.circuit, state)

    def test_first_proven_optimal_cancels_rest(self):
        outcome = interleaved_portfolio(dicke_state(4, 2), SearchConfig())
        assert outcome.solved and outcome.result.optimal
        statuses = {a["name"]: a["status"] for a in outcome.attempts}
        # some lane concluded with a proof; at least one straggler was
        # cancelled rather than run to completion
        assert any(s in ("solved", "proven") for s in statuses.values())
        assert any(s == "cancelled" for s in statuses.values())

    def test_incumbent_proven_optimal_upgrade(self):
        """A PROVEN lane upgrades the feasible incumbent to optimal."""
        outcome = interleaved_portfolio(dicke_state(4, 2), SearchConfig())
        proven = [a for a in outcome.attempts if a["status"] == "proven"]
        if proven:  # beam found the optimum, an exact lane proved it
            assert outcome.result.optimal

    def test_deadline_returns_best_feasible(self):
        state = dicke_state(6, 3)
        outcome = interleaved_portfolio(
            state, SearchConfig(max_nodes=500_000), deadline_ms=500)
        assert outcome.deadline_expired
        assert outcome.solved  # beam frontier flush guarantees a circuit
        assert not outcome.result.optimal
        assert prepares_state(outcome.result.circuit, state)

    def test_deadline_unsolved_reports_lower_bound(self):
        # exact lanes only (no anytime beam): nothing feasible under a
        # tiny deadline, so the outcome is honest about it
        specs = (EngineSpec("astar", "astar"),
                 EngineSpec("idastar", "idastar"))
        outcome = interleaved_portfolio(
            dicke_state(6, 3), SearchConfig(max_nodes=500_000),
            specs=specs, deadline_ms=200)
        assert outcome.deadline_expired
        assert not outcome.solved

    def test_shared_memory_costs_identical(self):
        memory = SearchMemory()
        warm_state = dicke_state(4, 2)
        cold = interleaved_portfolio(warm_state, SearchConfig())
        warm1 = interleaved_portfolio(warm_state, SearchConfig(),
                                      memory=memory)
        warm2 = interleaved_portfolio(warm_state, SearchConfig(),
                                      memory=memory)
        assert cold.result.cnot_cost == warm1.result.cnot_cost == \
            warm2.result.cnot_cost


class TestAdaptiveOrdering:
    def test_counters_accumulate(self):
        memory = SearchMemory()
        interleaved_portfolio(w_state(4), SearchConfig(), memory=memory)
        assert memory.lane_stats
        total_runs = sum(r["runs"] for r in memory.lane_stats.values())
        wins = sum(r["wins"] for r in memory.lane_stats.values())
        assert total_runs >= 2 and wins == 1

    def test_order_by_win_rate_with_deterministic_tiebreak(self):
        memory = SearchMemory()
        memory.record_lane_outcome("idastar", won=True, feasible=True)
        memory.record_lane_outcome("beam", feasible=True)
        memory.record_lane_outcome("astar", feasible=True)
        ordered = order_specs(default_portfolio(), memory)
        names = [spec.name for spec in ordered]
        # smoothed rates: idastar 2/3, astar-w2 (never ran) 1/2 — the
        # exploration prior — then the ran-and-lost lanes at 1/3 in
        # their original relative order
        assert names == ["idastar", "astar-w2", "beam", "astar"]
        # deterministic: same history, same order
        assert order_specs(default_portfolio(), memory) == ordered

    def test_losing_leader_gets_challenged(self):
        # raw wins/runs would freeze the order after one early win;
        # smoothing lets an unexplored lane overtake a mediocre leader
        memory = SearchMemory()
        memory.record_lane_outcome("astar", won=True, feasible=True)
        for _ in range(5):
            memory.record_lane_outcome("astar", feasible=True)
        ordered = order_specs(default_portfolio(), memory)
        # astar: 2/8 = 0.25 < never-run lanes at 0.5
        assert ordered[-1].name == "astar"

    def test_no_history_keeps_caller_order(self):
        specs = default_portfolio()
        assert order_specs(specs, None) == tuple(specs)
        assert order_specs(specs, SearchMemory()) == tuple(specs)

    def test_lane_stats_persist_in_snapshot(self, tmp_path):
        memory = SearchMemory()
        interleaved_portfolio(w_state(4), SearchConfig(), memory=memory)
        path = tmp_path / "lanes.qspmem.json"
        save_memory_snapshot(memory, path)
        restored = load_memory_snapshot(path)
        assert restored.lane_stats == memory.lane_stats
        # the restored history orders lanes exactly like the live one
        assert order_specs(default_portfolio(), restored) == \
            order_specs(default_portfolio(), memory)

    def test_interleaved_records_outcomes(self):
        memory = SearchMemory()
        interleaved_portfolio(w_state(4), SearchConfig(), memory=memory)
        assert sum(r["runs"] for r in memory.lane_stats.values()) == \
            len(default_portfolio())


class TestBatchDeadlines:
    def test_per_request_deadline_honored_in_batch(self, tmp_path):
        import json
        import time
        from repro.service.server import ServiceConfig, SynthesisService

        requests = [
            {"id": "fast", "dicke": [4, 2]},
            {"id": "bounded", "dicke": [6, 3], "deadline_ms": 300},
        ]
        in_path = tmp_path / "in.jsonl"
        out_path = tmp_path / "out.jsonl"
        in_path.write_text(
            "".join(json.dumps(r) + "\n" for r in requests),
            encoding="utf-8")
        service = SynthesisService(ServiceConfig(
            search=SearchConfig(max_nodes=500_000)))
        start = time.perf_counter()
        service.run_batch_file(in_path, out_path, workers=1)
        elapsed = time.perf_counter() - start
        rows = {json.loads(line)["id"]: json.loads(line)
                for line in out_path.read_text().splitlines()}
        assert rows["fast"]["ok"] and rows["fast"]["optimal"]
        assert rows["bounded"]["ok"]
        assert rows["bounded"]["deadline_expired"]
        assert not rows["bounded"]["optimal"]
        # the bounded row did not run its multi-minute search budget
        assert elapsed < 60.0

    def test_deadline_duplicates_do_not_share_truncated_results(
            self, tmp_path):
        import json
        from repro.service.server import ServiceConfig, SynthesisService

        requests = [
            {"id": "hurried", "dicke": [4, 2], "deadline_ms": 0},
            {"id": "unhurried", "dicke": [4, 2]},
        ]
        in_path = tmp_path / "in.jsonl"
        out_path = tmp_path / "out.jsonl"
        in_path.write_text(
            "".join(json.dumps(r) + "\n" for r in requests),
            encoding="utf-8")
        service = SynthesisService(ServiceConfig())
        service.run_batch_file(in_path, out_path, workers=1)
        rows = {json.loads(line)["id"]: json.loads(line)
                for line in out_path.read_text().splitlines()}
        # different effective deadlines -> separate dedup groups: the
        # unhurried duplicate ran its own full search, it was not served
        # the hurried row's truncated result (nor found it in the cache)
        assert rows["hurried"]["ok"] and rows["hurried"]["deadline_expired"]
        assert not rows["unhurried"]["cached"]
        assert rows["unhurried"]["optimal"]


class TestTranspositionAging:
    def test_record_stamps_current_generation(self):
        table = TranspositionTable(cap=100)
        table.record("a", 3.0, frozenset())
        table.bump_generation()
        table.record("b", 3.0, frozenset())
        assert table.data_gen["a"] == 0
        assert table.data_gen["b"] == 1

    def test_retouch_refreshes_stamp(self):
        table = TranspositionTable(cap=100)
        table.record("a", 3.0, frozenset())
        table.bump_generation()
        table.record("a", 3.0, frozenset())  # re-proven: young again
        assert table.data_gen["a"] == 1

    def test_eviction_prefers_stale_entries(self):
        table = TranspositionTable(cap=8)
        for i in range(4):
            table.record(f"old{i}", 5.0, frozenset())
        for _ in range(3):
            table.bump_generation()
        for i in range(4):
            table.record(f"new{i}", 5.0, frozenset())
        table.record("trigger", 5.0, frozenset())  # forces a sweep
        # equal budgets: the aged entries go first
        assert all(f"new{i}" in table.data for i in range(4))
        assert sum(f"old{i}" in table.data for i in range(4)) < 4

    def test_large_stale_budget_still_beats_fresh_tiny(self):
        table = TranspositionTable(cap=4)
        table.record("stale-large", 50.0, frozenset())
        for _ in range(3):
            table.bump_generation()
        for i in range(3):
            table.record(f"fresh-tiny{i}", 1.0, frozenset())
        table.record("trigger", 30.0, frozenset())
        # 50 - 3 = 47 still outranks 1 - 0 = 1
        assert "stale-large" in table.data

    def test_generation_survives_snapshot_roundtrip(self, tmp_path):
        memory = SearchMemory()
        idastar_search(dicke_state(4, 2), memory=memory)
        generation_before = memory.transposition.generation
        path = tmp_path / "aging.qspmem.json"
        save_memory_snapshot(memory, path)
        # a full save is the epoch boundary: the live table aged
        assert memory.transposition.generation == generation_before + 1
        restored = load_memory_snapshot(path)
        assert restored.transposition.generation == generation_before
        assert restored.transposition.data_gen == \
            {k: generation_before for k in restored.transposition.data}

    def test_conditional_entries_age_too(self):
        table = TranspositionTable(cap=100)
        table.record("c", 2.0, frozenset({"p"}))
        assert table.cond_gen["c"] == 0
        table.bump_generation()
        table.record("c", 3.0, frozenset({"p"}))
        assert table.cond_gen["c"] == 1

    def test_lookup_hit_refreshes_stamp(self):
        # a hit prevents the re-probe that would re-record, so the hit
        # itself must keep the serving entry young
        table = TranspositionTable(cap=100)
        table.record("hot", 5.0, frozenset())
        table.bump_generation()
        table.bump_generation()
        assert table.lookup("hot", 4.0, set()) is not None
        assert table.data_gen["hot"] == 2
        assert table.exhausted_budget("hot") == 5.0
        table.bump_generation()
        table.exhausted_budget("hot")  # bnb consult also refreshes
        assert table.data_gen["hot"] == 3

    def test_merge_with_older_stamp_keeps_entry_fresh(self):
        # a batch worker seeded pre-bump replays an entry the parent
        # just re-proved: the fresher stamp must win (max-only refresh)
        table = TranspositionTable(cap=100)
        table.bump_generation()
        table.bump_generation()
        table.record("k", 5.0, frozenset())            # fresh: gen 2
        table.record("k", 5.0, frozenset(), generation=0)  # stale replay
        assert table.data_gen["k"] == 2

    def test_v1_snapshot_still_loads(self, tmp_path):
        # v2 is a lossless superset of v1: a deployed service's warm
        # snapshot must survive the upgrade (entries age from epoch 0)
        import json
        from repro.utils.serialization import memory_from_dict, \
            memory_to_dict

        memory = SearchMemory()
        idastar_search(dicke_state(4, 2), memory=memory)
        data = memory_to_dict(memory)
        # rewrite the snapshot in the v1 shape: version 1, stamp-less
        # 2/3-element transposition entries, no generation/lane_stats
        data["version"] = 1
        table = data["transposition"]
        del table["generation"]
        table["data"] = [entry[:2] for entry in table["data"]]
        table["cond"] = [entry[:3] for entry in table["cond"]]
        del data["lane_stats"]
        restored = memory_from_dict(json.loads(json.dumps(data)))
        assert len(restored.canon_store) == len(memory.canon_store)
        assert restored.transposition.data == memory.transposition.data
        assert restored.transposition.generation == 0
        assert all(g == 0 for g in restored.transposition.data_gen.values())


class TestRunSurface:
    def test_step_on_terminal_run_is_a_noop(self):
        run = _drive(AStarRun(dicke_state(3, 1), SearchConfig()), 1000)
        assert run.status is RunStatus.SOLVED
        expanded = run.stats.nodes_expanded
        assert run.step(100) is RunStatus.SOLVED
        assert run.stats.nodes_expanded == expanded

    def test_cancel_terminal_run_keeps_status(self):
        run = _drive(AStarRun(dicke_state(3, 1), SearchConfig()), 1000)
        run.cancel()
        assert run.status is RunStatus.SOLVED

    def test_result_on_unfinished_run_raises(self):
        from repro.exceptions import SynthesisError
        run = AStarRun(dicke_state(4, 2), SearchConfig())
        with pytest.raises(SynthesisError):
            run.result()
        run.cancel()

    def test_beam_anytime_best_feasible(self):
        run = BeamRun(dicke_state(4, 2), BeamConfig())
        seen_while_running = None
        while not run.step(25).terminal:
            feasible = run.best_feasible()
            if feasible is not None and seen_while_running is None:
                seen_while_running = feasible.cnot_cost
        assert seen_while_running is not None
        assert run.result().cnot_cost <= seen_while_running
