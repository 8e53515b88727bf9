"""Tests for the persistent cross-search memory (repro.core.memory).

Covers the container semantics, the warm-vs-cold equivalence guarantee
(memory only skips recomputation), the persistent-table IDA* differential
against A*, and the transposition soundness regression: the pre-fix write
rule records path-dependent exhaustion claims as unconditional, and such
an entry provably misleads a later search.
"""

from __future__ import annotations

import pytest

from repro.constants import SEARCH_PERM_CAP, SEARCH_TIE_CAP
from repro.core.astar import SearchConfig, astar_search
from repro.core.beam import BeamConfig, beam_search
from repro.core.canonical import CanonLevel
from repro.core.idastar import IDAStarConfig, idastar_search
from repro.core.kernel import CanonContext, CanonKey, StatePool
from repro.core.memory import HashStore, SearchMemory, TranspositionTable
from repro.exceptions import MemoryCompatibilityError
from repro.sim.verify import prepares_state
from repro.states.families import dicke_state, ghz_state, w_state
from repro.states.qstate import QState
from repro.states.random_states import random_uniform_state


def _canon_key(state: QState) -> CanonKey:
    """The PU2 search-default canonical key of a state (fresh context)."""
    ctx = CanonContext(CanonLevel.PU2, SEARCH_TIE_CAP, SEARCH_PERM_CAP,
                       cache_cap=64)
    return ctx.key(StatePool().from_qstate(state))


class _FakeState:
    """Minimal stand-in carrying the two fields HashStore keys on."""

    __slots__ = ("hash64", "payload")

    def __init__(self, hash64: int, payload: bytes):
        self.hash64 = hash64
        self.payload = payload


class TestHashStore:
    def test_put_get_roundtrip(self):
        store = HashStore(cap=8)
        a = _FakeState(1, b"a")
        store.put(a, "va")
        assert store.get(a) == "va"
        assert store.hits == 1

    def test_miss_counts(self):
        store = HashStore(cap=8)
        assert store.get(_FakeState(5, b"x")) is None
        assert store.misses == 1

    def test_hash_collision_spills_by_payload(self):
        store = HashStore(cap=8)
        a = _FakeState(7, b"a")
        b = _FakeState(7, b"b")  # same 64-bit hash, different state
        store.put(a, "va")
        store.put(b, "vb")
        assert store.get(a) == "va"
        assert store.get(b) == "vb"
        assert store.collisions == 1

    def test_eviction_respects_cap(self):
        store = HashStore(cap=4)
        for i in range(10):
            store.put(_FakeState(i, bytes([i])), i)
        assert len(store._primary) <= 4
        assert store.evictions > 0


class TestTranspositionTable:
    def test_unconditional_roundtrip(self):
        table = TranspositionTable(cap=16)
        table.record("C", 3.0, frozenset())
        assert table.lookup("C", 3.0, set()) == frozenset()
        assert table.lookup("C", 2.0, set()) == frozenset()
        assert table.lookup("C", 4.0, set()) is None  # budget too small

    def test_record_only_raises_budget(self):
        table = TranspositionTable(cap=16)
        table.record("C", 3.0, frozenset())
        table.record("C", 1.0, frozenset())
        assert table.data["C"] == 3.0
        table.record("C", 5.0, frozenset())
        assert table.data["C"] == 5.0

    def test_conditional_requires_path_superset(self):
        table = TranspositionTable(cap=16)
        table.record("C", 3.0, frozenset({"A", "B"}))
        assert table.lookup("C", 2.0, {"A", "B", "X"}) == frozenset({"A", "B"})
        assert table.lookup("C", 2.0, {"A", "X"}) is None  # B missing
        assert table.lookup("C", 4.0, {"A", "B"}) is None  # budget too small

    def test_conditional_prefers_weaker_condition(self):
        table = TranspositionTable(cap=16)
        table.record("C", 3.0, frozenset({"A", "B"}))
        table.record("C", 3.0, frozenset({"A"}))  # strictly weaker: replaces
        assert table.cond["C"] == (3.0, frozenset({"A"}))
        table.record("C", 3.0, frozenset({"B", "D"}))  # not weaker: kept
        assert table.cond["C"] == (3.0, frozenset({"A"}))

    def test_eviction_respects_caps(self):
        table = TranspositionTable(cap=4)
        for i in range(10):
            table.record(i, 1.0, frozenset())
            table.record(f"c{i}", 1.0, frozenset({"A"}))
        assert len(table.data) <= 4
        assert len(table.cond) <= 4
        assert table.evictions > 0

    def test_eviction_drops_smallest_budgets_first(self):
        # budget-weighted replacement: an eviction sweep must sacrifice
        # the entries proving the smallest remaining budgets — a
        # large-budget proof subsumes every prune a small one provides
        table = TranspositionTable(cap=8)
        for i in range(8):
            table.record(f"k{i}", float(i), frozenset())
        table.record("overflow", 100.0, frozenset())  # triggers the sweep
        assert "k7" in table.data and "overflow" in table.data
        dropped = max(1, 8 // 8)
        survivors = {f"k{i}" for i in range(8)} & set(table.data)
        assert survivors == {f"k{i}" for i in range(dropped, 8)}

    def test_conditional_eviction_drops_smallest_budgets_first(self):
        table = TranspositionTable(cap=8)
        for i in range(8):
            table.record(f"k{i}", float(i), frozenset({"P"}))
        table.record("overflow", 100.0, frozenset({"P"}))
        assert "k7" in table.cond and "overflow" in table.cond
        assert "k0" not in table.cond  # the smallest budget went first

    def test_exhausted_budget_reads_only_unconditional(self):
        table = TranspositionTable(cap=8)
        table.record("C", 3.0, frozenset({"P"}))  # conditional: invisible
        assert table.exhausted_budget("C") is None
        table.record("C", 2.0, frozenset())
        assert table.exhausted_budget("C") == 2.0
        hits, misses = table.hits, table.misses
        table.exhausted_budget("C")
        assert (table.hits, table.misses) == (hits, misses)


class TestSearchMemoryLifecycle:
    def test_incompatible_attach_rejected(self):
        memory = SearchMemory()
        astar_search(ghz_state(3), SearchConfig(), memory=memory)
        with pytest.raises(MemoryCompatibilityError):
            astar_search(ghz_state(3), SearchConfig(tie_cap=7),
                         memory=memory)

    def test_incompatible_heuristic_rejected(self):
        from repro.core.heuristic import zero_heuristic

        memory = SearchMemory()
        astar_search(ghz_state(3), SearchConfig(), memory=memory)
        with pytest.raises(MemoryCompatibilityError):
            astar_search(ghz_state(3), SearchConfig(), memory=memory,
                         heuristic=zero_heuristic)

    def test_pool_rotation_preserves_stores(self):
        memory = SearchMemory(pool_rotate_cap=1)
        astar_search(dicke_state(4, 2), SearchConfig(), memory=memory)
        hits_before = memory.canon_store.hits
        astar_search(dicke_state(4, 2), SearchConfig(), memory=memory)
        assert memory.pool_rotations >= 1
        # the hash-keyed store kept serving keys across the rotation
        assert memory.canon_store.hits > hits_before

    def test_snapshot_is_json_serializable(self):
        import json

        memory = SearchMemory()
        astar_search(ghz_state(3), SearchConfig(), memory=memory)
        json.dumps(memory.snapshot())


class TestPerRunMemoCounters:
    """Each derived value has one memo, and each run counts only its own
    lookups in it, also when runs share a store."""

    def test_lanes_sharing_a_memory_sum_to_the_store(self):
        from repro.service.portfolio import LaneScheduler, default_portfolio

        memory = SearchMemory()
        store = memory.canon_store
        for state in (dicke_state(4, 2), dicke_state(4, 2), w_state(4)):
            hits, misses = store.hits, store.misses
            scheduler = LaneScheduler(state, SearchConfig(max_nodes=3_000),
                                      default_portfolio(), memory=memory)
            while scheduler.run_round():
                pass
            scheduler.finish()
            lanes = [lane.run.stats for lane in scheduler.lanes]
            assert len(lanes) == 4
            assert sum(s.canon_cache_hits for s in lanes) == \
                store.hits - hits
            assert sum(s.canon_cache_misses for s in lanes) == \
                store.misses - misses
        assert store.hits > 0

    def test_other_heuristic_counts_its_memo(self):
        from repro.core.heuristic import combined_heuristic

        memory = SearchMemory()
        runs = []
        for _ in range(2):
            hits, misses = memory.h_store.hits, memory.h_store.misses
            result = astar_search(dicke_state(4, 2), SearchConfig(),
                                  heuristic=combined_heuristic,
                                  memory=memory)
            stats = result.stats
            assert (stats.h_cache_hits, stats.h_cache_misses) == \
                (memory.h_store.hits - hits, memory.h_store.misses - misses)
            runs.append(stats)
        # the repeat run finds every value the first run stored
        assert runs[1].h_cache_misses == 0 < runs[1].h_cache_hits
        cold = astar_search(dicke_state(4, 2), SearchConfig(),
                            heuristic=combined_heuristic).stats
        assert cold.h_cache_misses == runs[0].h_cache_misses
        assert cold.nodes_expanded == runs[0].nodes_expanded

    def test_builtin_bounds_have_no_memo_lookups(self):
        from repro.arch.topologies import CouplingMap
        from repro.core.heuristic import default_heuristic

        memory = SearchMemory()
        line = CouplingMap.line(4)
        stats = astar_search(w_state(4), SearchConfig(topology=line),
                             memory=memory).stats
        assert (stats.h_cache_hits, stats.h_cache_misses) == (0, 0)
        assert memory.h_store.hits + memory.h_store.misses == 0
        # one coupling bound per device: its matching memo outlives a run
        bound = default_heuristic(CouplingMap.line(4))
        assert bound is default_heuristic(line)
        assert bound._matching


class TestWarmColdEquivalence:
    """Same circuits, same costs, with and without persistent memory."""

    @pytest.mark.parametrize("seed", range(6))
    def test_astar_warm_equals_cold(self, seed):
        state = random_uniform_state(3, 4, seed=seed)
        config = SearchConfig(max_nodes=80_000)
        cold = astar_search(state, config)
        memory = SearchMemory()
        warm1 = astar_search(state, config, memory=memory)
        warm2 = astar_search(state, config, memory=memory)
        for warm in (warm1, warm2):
            assert warm.cnot_cost == cold.cnot_cost
            assert warm.optimal == cold.optimal
            assert [m.cost for m in warm.moves] == \
                [m.cost for m in cold.moves]
            assert prepares_state(warm.circuit, state)

    @pytest.mark.parametrize("seed", range(4))
    def test_beam_warm_equals_cold(self, seed):
        state = random_uniform_state(4, 4, seed=seed)
        config = BeamConfig(width=32)
        cold = beam_search(state, config)
        memory = SearchMemory()
        warm1 = beam_search(state, config, memory=memory)
        warm2 = beam_search(state, config, memory=memory)
        for warm in (warm1, warm2):
            assert warm.cnot_cost == cold.cnot_cost
            assert [m.cost for m in warm.moves] == \
                [m.cost for m in cold.moves]
            assert prepares_state(warm.circuit, state)

    def test_idastar_warm_equals_cold_on_rerun(self):
        state = dicke_state(4, 2)
        cold = idastar_search(state)
        memory = SearchMemory()
        warm1 = idastar_search(state, memory=memory)
        warm2 = idastar_search(state, memory=memory)
        assert warm1.cnot_cost == cold.cnot_cost == warm2.cnot_cost
        # the warm re-run reused exhausted subtrees instead of re-probing
        assert warm2.stats.nodes_expanded < warm1.stats.nodes_expanded
        assert warm2.stats.transposition_hits > 0
        assert prepares_state(warm2.circuit, state)

    def test_family_runner_warm_equals_cold(self):
        from repro.experiments.family_runner import (
            FamilyRunConfig,
            dicke_family_targets,
            run_family,
        )

        targets = dicke_family_targets(4)
        cold = run_family(targets, FamilyRunConfig(warm=False))
        warm = run_family(targets, FamilyRunConfig(warm=True))
        assert cold.solved_costs == warm.solved_costs
        assert warm.memory is not None and cold.memory is None


class TestPersistentIDAStarDifferential:
    """A* vs IDA*-with-persistent-table on randomized instances, one
    shared memory across the whole batch (cross-search reuse active)."""

    @pytest.mark.parametrize("n,m,seeds", [(3, 4, range(8)),
                                           (4, 3, range(4))])
    def test_same_optimum_with_shared_memory(self, n, m, seeds):
        memory = SearchMemory()
        for seed in seeds:
            state = random_uniform_state(n, m, seed=seed)
            a = astar_search(state, SearchConfig(max_nodes=120_000))
            b = idastar_search(state, memory=memory)
            assert b.cnot_cost == a.cnot_cost, f"seed {seed}"
            assert b.optimal
            assert prepares_state(b.circuit, state)

    def test_mixed_engines_one_memory(self):
        memory = SearchMemory()
        state = dicke_state(4, 2)
        a = astar_search(state, SearchConfig(), memory=memory)
        b = idastar_search(state, memory=memory)
        c = beam_search(state, BeamConfig(width=64), memory=memory)
        assert a.cnot_cost == b.cnot_cost == 6
        assert c.cnot_cost >= 6


class TestTranspositionSoundnessRegression:
    """The pre-fix table recorded path-dependent exhaustion claims as
    unconditional; these tests pin the bug and its consequence."""

    def test_old_rule_drops_conditions_the_fix_keeps(self):
        state = dicke_state(4, 2)
        fixed_mem = SearchMemory()
        fixed = idastar_search(state, IDAStarConfig(), memory=fixed_mem)
        assert fixed.cnot_cost == 6
        # the fixed probe proves most exhausted subtrees path-dependent and
        # records them with their condition; the old rule wrote them as
        # unconditional, universal claims (the next test injects one)
        assert fixed.stats.transposition_poisoned > 0
        assert len(fixed_mem.transposition.cond) > 0

    def test_unconditional_path_dependent_entry_misleads_idastar(self):
        """End-to-end consequence: an entry of exactly the shape the old
        rule writes (unconditional exhaustion whose claim only held
        relative to the writer's path) makes a later IDA* return a
        provably suboptimal cost flagged optimal.  This test fails under
        the pre-fix write semantics."""
        state = w_state(4)
        opt = astar_search(state, SearchConfig(max_nodes=150_000)).cnot_cost
        assert opt == 7  # paper Table IV
        memory = SearchMemory()
        # the old rule's write shape: "class exhausted within OPT budget,
        # no condition" — false, its proof leaned on the writer's path
        memory.transposition.data[_canon_key(state)] = float(opt)
        poisoned = idastar_search(state, memory=memory)
        assert poisoned.cnot_cost != opt  # unsound reuse: missed optimum
        assert poisoned.optimal  # ...while still claiming optimality

    def test_conditional_entry_with_same_claim_is_harmless(self):
        """The fix records the identical exhaustion with its path
        condition; a fresh search whose path lacks the named classes is
        then unaffected and finds the true optimum."""
        state = w_state(4)
        memory = SearchMemory()
        foreign = _canon_key(ghz_state(4))  # never on a W4 search path
        memory.transposition.cond[_canon_key(state)] = (7.0,
                                                        frozenset({foreign}))
        result = idastar_search(state, memory=memory)
        assert result.cnot_cost == 7

    def test_sound_entries_survive_claim_audit(self):
        """Every unconditional entry the fixed rule records states 'no
        goal within r from this class' — audit each claim against A*'s
        ground truth using a member state recovered from the canon store."""
        import numpy as np

        state = w_state(4)
        memory = SearchMemory()
        idastar_search(state, memory=memory)
        members: dict = {}
        for _h, (payload, key, _hits) in memory.canon_store._primary.items():
            n = int.from_bytes(payload[:2], "little")
            rest = payload[2:]
            m = len(rest) // 16
            idx = np.frombuffer(rest[:8 * m], dtype=np.int64)
            amp = np.frombuffer(rest[8 * m:], dtype=np.float64)
            members.setdefault(key, QState.from_packed(n, idx, amp.copy()))
        audited = 0
        for key, budget in memory.transposition.data.items():
            member = members.get(key)
            if member is None:
                continue
            true_cost = astar_search(
                member, SearchConfig(max_nodes=100_000)).cnot_cost
            assert true_cost > budget, \
                f"false exhaustion claim: OPT {true_cost} <= {budget}"
            audited += 1
        assert audited > 0


class TestAStarIncumbentBranchAndBound:
    """A* consults unconditional transposition exhaustion entries once it
    holds an incumbent: identical costs, never more expansions."""

    @pytest.mark.parametrize("seed", range(6))
    def test_same_cost_fewer_expansions(self, seed):
        from repro.core.beam import BeamConfig, beam_search

        state = random_uniform_state(3, 4, seed=seed)
        config = SearchConfig(max_nodes=120_000)
        cold = astar_search(state, config)
        memory = SearchMemory()
        idastar_search(state, memory=memory)  # deposit exhaustion proofs
        incumbent = beam_search(state, BeamConfig(width=64), memory=memory)
        bnb = astar_search(state, config, memory=memory,
                           incumbent=incumbent)
        assert bnb.cnot_cost == cold.cnot_cost
        assert bnb.optimal
        assert bnb.stats.nodes_expanded <= cold.stats.nodes_expanded
        assert prepares_state(bnb.circuit, state)

    def test_differential_on_dicke_row(self):
        from repro.core.beam import BeamConfig, beam_search

        state = dicke_state(4, 2)
        cold = astar_search(state, SearchConfig())
        memory = SearchMemory()
        idastar_search(state, memory=memory)
        incumbent = beam_search(state, BeamConfig(width=128), memory=memory)
        bnb = astar_search(state, SearchConfig(), memory=memory,
                           incumbent=incumbent)
        assert bnb.cnot_cost == cold.cnot_cost == 6
        assert bnb.stats.nodes_expanded < cold.stats.nodes_expanded
        assert bnb.stats.incumbent_prunes + \
            bnb.stats.bnb_transposition_prunes > 0

    def test_plain_incumbent_without_memory_prunes(self):
        state = dicke_state(4, 2)
        cold = astar_search(state, SearchConfig())
        bnb = astar_search(state, SearchConfig(), incumbent=cold)
        assert bnb.cnot_cost == cold.cnot_cost
        assert bnb.stats.nodes_expanded <= cold.stats.nodes_expanded
        assert bnb.stats.incumbent_prunes > 0

    def test_integer_bound_without_circuit(self):
        # an int incumbent bound prunes everything >= the bound: a
        # strictly better solution is returned, but when the bound *is*
        # the optimum there is no circuit to return and the engine must
        # refuse loudly (carrying the bound as a proven lower bound)
        from repro.exceptions import SearchBudgetExceeded

        state = dicke_state(4, 2)
        result = astar_search(state, SearchConfig(), incumbent=7)
        assert result.cnot_cost == 6 and result.optimal
        with pytest.raises(SearchBudgetExceeded) as excinfo:
            astar_search(state, SearchConfig(), incumbent=6)
        assert excinfo.value.lower_bound == 6


class TestBeamSatellites:
    def test_include_x_moves_passed_through(self, monkeypatch):
        import repro.core.beam as beam_mod

        observed: list[bool] = []
        real = beam_mod.successors_packed

        def spy(pool, ps, max_merge_controls=None, include_x_moves=False,
                topology=None):
            observed.append(include_x_moves)
            return real(pool, ps, max_merge_controls=max_merge_controls,
                        include_x_moves=include_x_moves, topology=topology)

        monkeypatch.setattr(beam_mod, "successors_packed", spy)
        beam_search(ghz_state(3), BeamConfig(width=8),
                    search=SearchConfig(include_x_moves=True))
        assert observed and all(observed)
        observed.clear()
        beam_search(ghz_state(3), BeamConfig(width=8))
        assert observed and not any(observed)

    def test_elapsed_set_on_normal_return(self):
        result = beam_search(dicke_state(4, 2), BeamConfig(width=32))
        assert result.stats.elapsed_seconds > 0.0
        assert result.stats.canon_cache_misses > 0

    def test_elapsed_set_on_completion_path(self):
        # an immediately-expired stopwatch forces the mflow-completion
        # return path; its stats must still carry a real elapsed time
        result = beam_search(dicke_state(4, 2),
                             BeamConfig(width=32, time_limit=0.0))
        assert result.cnot_cost > 0
        assert result.stats.elapsed_seconds > 0.0

    def test_seen_g_is_bounded(self):
        config = BeamConfig(width=32, max_depth=12)
        result = beam_search(dicke_state(4, 2), config,
                             search=SearchConfig(cache_cap=16))
        assert result.cnot_cost > 0
        assert result.stats.dedup_evictions > 0
