"""Tests for the pattern database, signature index, and fast serving.

Covers the PR's differential acceptance criteria: exact modes with the
PDB enabled return identical costs to PDB-off runs (with never-more
expansions), fast/near-hit responses are always simulator-verified, and
deadline-truncated adaptations are never cached.
"""

from __future__ import annotations

import pytest

from repro.core.idastar import IDAStarConfig, idastar_search
from repro.core.memory import SearchMemory
from repro.core.pdb import (
    PatternDatabase,
    coarse_signature,
    entanglement_signature,
    signature_from_list,
    signature_to_list,
    state_from_payload,
    structural_bound,
)
from repro.exceptions import MemoryCompatibilityError
from repro.service.cache import (
    RequestCache,
    request_cache_from_dict,
    request_cache_to_dict,
)
from repro.service.server import ServiceConfig, SynthesisService
from repro.sim.verify import prepares_state
from repro.states.families import dicke_state, ghz_state, w_state
from repro.states.qstate import QState
from repro.utils.serialization import (
    memory_from_dict,
    memory_to_dict,
    state_to_dict,
)


class TestSignature:
    def test_ghz4_value(self):
        # Every bipartition of GHZ has Schmidt rank 2: 7 canonical cuts
        # on 4 qubits, one MI cluster spanning the register.
        assert entanglement_signature(ghz_state(4)) == \
            (4, 4, ((2, 7),), (4,))

    def test_deterministic(self):
        s = dicke_state(5, 2)
        assert entanglement_signature(s) == entanglement_signature(s)

    def test_fully_separable(self):
        s = QState.uniform(3, list(range(8)))  # |+>^3
        assert entanglement_signature(s) == (3, 0, (), ())

    def test_ground_state(self):
        assert entanglement_signature(QState.ground(4)) == (4, 0, (), ())

    def test_ghz_and_w_collide(self):
        # Both are rank 2 across every cut with one full-register MI
        # cluster — exactly the abstraction the PDB is built to exploit.
        assert entanglement_signature(ghz_state(4)) == \
            entanglement_signature(w_state(4))

    def test_coarse_drops_rank_profile(self):
        sig = entanglement_signature(dicke_state(5, 2))
        assert coarse_signature(sig) == (5, 5, (5,))

    def test_roundtrip_encoding(self):
        sig = entanglement_signature(dicke_state(5, 2))
        assert signature_from_list(signature_to_list(sig)) == sig

    def test_corrupt_encoding_raises(self):
        with pytest.raises(MemoryCompatibilityError):
            signature_from_list([4, "not-a-count"])


class TestStructuralBound:
    def test_ghz4(self):
        assert structural_bound(entanglement_signature(ghz_state(4))) == 2

    def test_separable_zero(self):
        assert structural_bound((4, 0, (), ())) == 0

    def test_rank_component_can_dominate(self):
        # A rank-8 cut forces ceil(log2 8) = 3 even with few entangled
        # qubits claimed; max of the two components wins.
        assert structural_bound((4, 2, ((8, 1),), (2,))) == 3

    def test_dicke52(self):
        sig = entanglement_signature(dicke_state(5, 2))
        assert structural_bound(sig) == 3  # k=5 -> 3; ranks <= 3 -> 2


class TestPayloadCodec:
    def test_roundtrip_through_cache_key(self):
        from repro.core.kernel import StatePool

        for state in (ghz_state(4), w_state(5), dicke_state(4, 2)):
            payload = bytes(StatePool().from_qstate(state).payload)
            back = state_from_payload(payload)
            assert back.num_qubits == state.num_qubits
            assert entanglement_signature(back) == \
                entanglement_signature(state)
            # payloads hold *quantized* amplitudes: match to that grid
            for idx, amp in state.items():
                assert abs(back.amplitude(idx) - amp) < 1e-9

    def test_malformed_payload_raises(self):
        with pytest.raises(MemoryCompatibilityError):
            state_from_payload(b"\x04")
        with pytest.raises(MemoryCompatibilityError):
            state_from_payload(b"\x04\x00" + b"\x00" * 7)


class TestPatternDatabase:
    def test_admissible_matches_structural(self):
        pdb = PatternDatabase()
        sig = entanglement_signature(ghz_state(4))
        assert pdb.admissible_bound(sig) == structural_bound(sig)

    def test_evidence_never_raises_admissible(self):
        pdb = PatternDatabase()
        sig = entanglement_signature(ghz_state(4))
        before = pdb.admissible_bound(sig)
        pdb.observe(sig, solved_cost=9, optimal=True)
        assert pdb.admissible_bound(sig) == before

    def test_learned_seeded_by_solved_min(self):
        pdb = PatternDatabase()
        sig = entanglement_signature(ghz_state(4))
        pdb.observe(sig, solved_cost=7)
        pdb.observe(sig, solved_cost=5)
        pdb.observe(sig, solved_cost=6)  # worse: must not regress
        assert pdb.learned_bound(sig) == 5
        pdb.observe(sig, lower_bound=8)
        assert pdb.learned_bound(sig) == 8

    def test_audit_flags_planted_violation(self):
        pdb = PatternDatabase()
        sig = entanglement_signature(ghz_state(4))  # structural bound 2
        pdb.observe(sig, solved_cost=1, optimal=True)  # impossible claim
        violations = pdb.audit()
        assert len(violations) == 1
        assert violations[0]["structural_bound"] == 2
        assert violations[0]["optimal_cost"] == 1

    def test_audit_clean_on_real_costs(self):
        pdb = PatternDatabase()
        pdb.observe(entanglement_signature(ghz_state(4)),
                    solved_cost=3, optimal=True)
        pdb.observe(entanglement_signature(dicke_state(4, 2)),
                    solved_cost=6, optimal=True)
        assert pdb.audit() == []

    def test_merge_roundtrip_idempotent(self):
        pdb = PatternDatabase()
        sig_a = entanglement_signature(ghz_state(4))
        sig_b = entanglement_signature(dicke_state(4, 2))
        pdb.observe(sig_a, solved_cost=3, optimal=True)
        pdb.observe(sig_b, lower_bound=4)
        dump = pdb.to_dict()
        other = PatternDatabase()
        other.merge_dict(dump)
        other.merge_dict(dump)  # WAL crash-recovery replays twice
        assert other.to_dict() == dump
        assert other.learned_bound(sig_a) == pdb.learned_bound(sig_a)

    def test_delta_marker_ships_only_new(self):
        pdb = PatternDatabase()
        pdb.observe(entanglement_signature(ghz_state(4)), solved_cost=3)
        marker = pdb.marker()
        sig_b = entanglement_signature(dicke_state(4, 2))
        pdb.observe(sig_b, solved_cost=6)
        delta = pdb.to_dict(since=marker)
        assert [signature_from_list(enc) for enc, _ in delta["entries"]] \
            == [sig_b]

    def test_delta_marker_ships_improvements(self):
        pdb = PatternDatabase()
        sig = entanglement_signature(ghz_state(4))
        pdb.observe(sig, solved_cost=7)
        marker = pdb.marker()
        pdb.observe(sig, solved_cost=5)  # improves an old entry
        delta = pdb.to_dict(since=marker)
        assert [signature_from_list(enc) for enc, _ in delta["entries"]] \
            == [sig]

    def test_delta_marker_ships_repeat_observations(self):
        pdb = PatternDatabase()
        sig = entanglement_signature(ghz_state(4))
        pdb.observe(sig, solved_cost=3)
        replica = PatternDatabase()
        replica.merge_dict(pdb.to_dict())
        marker = pdb.marker()
        pdb.observe(sig, solved_cost=3)  # no bound moves, the count does
        delta = pdb.to_dict(since=marker)
        assert [signature_from_list(enc) for enc, _ in delta["entries"]] \
            == [sig]
        replica.merge_dict(delta)
        assert replica.to_dict() == pdb.to_dict()

    def test_eviction_invalidates_positional_skip(self):
        pdb = PatternDatabase(cap=2)
        sigs = [(4, 0, (), ()), (5, 0, (), ()), (6, 0, (), ())]
        pdb.observe(sigs[0], solved_cost=1)
        marker = pdb.marker()
        pdb.observe(sigs[1], solved_cost=1)
        pdb.observe(sigs[2], solved_cost=1)  # evicts sigs[0]
        assert pdb.evictions == 1
        delta = pdb.to_dict(since=marker)
        # the whole surviving database ships, not a positional suffix
        assert len(delta["entries"]) == len(pdb)

    def test_merge_corruption_raises(self):
        pdb = PatternDatabase()
        with pytest.raises(MemoryCompatibilityError):
            pdb.merge_dict({"entries": [[[4, 0, [], []], ["x", None,
                                                          None, 1]]]})
        with pytest.raises(MemoryCompatibilityError):
            pdb.merge_dict({"no_entries": []})


class TestMemoryPersistence:
    def test_pdb_rides_memory_snapshot(self):
        memory = SearchMemory()
        sig = entanglement_signature(ghz_state(4))
        memory.pdb.observe(sig, solved_cost=3, optimal=True)
        restored = memory_from_dict(memory_to_dict(memory))
        assert restored.pdb.learned_bound(sig) == 3
        assert restored.pdb.audit() == []

    def test_predates_pdb_section_loads(self):
        memory = SearchMemory()
        data = memory_to_dict(memory)
        data.pop("pdb", None)  # snapshot written by an older build
        restored = memory_from_dict(data)
        assert len(restored.pdb) == 0


class TestDifferential:
    """Exact IDA* with the admissible PDB tier is behavior-identical."""

    STATES = [ghz_state(3), ghz_state(4), w_state(4), dicke_state(4, 2)]

    @pytest.mark.parametrize("state", STATES,
                             ids=["ghz3", "ghz4", "w4", "dicke42"])
    def test_identical_costs_never_more_expansions(self, state):
        off = idastar_search(state, IDAStarConfig(pdb_tier="off"),
                             memory=SearchMemory())
        on = idastar_search(state, IDAStarConfig(pdb_tier="admissible"),
                            memory=SearchMemory())
        assert on.cnot_cost == off.cnot_cost
        assert on.optimal == off.optimal
        assert on.stats.nodes_expanded <= off.stats.nodes_expanded
        assert prepares_state(on.circuit, state)

    def test_learned_tier_never_claims_unproven_optimality(self):
        # Plant inflated class evidence: the learned seed may skip
        # deepening rounds, so the first found cost is only *marked*
        # optimal when the sound bound reaches it.
        memory = SearchMemory()
        state = ghz_state(4)
        sig = entanglement_signature(state)
        memory.pdb.observe(sig, solved_cost=7)  # true optimum is 3
        result = idastar_search(state, IDAStarConfig(pdb_tier="learned"),
                                memory=memory)
        assert prepares_state(result.circuit, state)
        assert result.cnot_cost <= 7
        if result.optimal:
            # only a sound certificate may claim it
            assert result.cnot_cost <= structural_bound(sig)

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError):
            idastar_search(ghz_state(3), IDAStarConfig(pdb_tier="best"))


class TestSignatureIndex:
    def test_near_returns_exact_then_coarse(self):
        cache = RequestCache()
        ghz = ghz_state(4)
        service = SynthesisService()
        result = service.handle({"op": "exact", "ghz": 4})
        assert result["ok"]
        donor = service.cache.get("exact", ghz)
        sig = entanglement_signature(ghz)
        cache.put("exact", ghz, donor, signature=sig)
        rows = cache.near("exact", sig)
        assert len(rows) == 1
        # W(4) shares the signature entirely -> nominated as donor
        assert cache.near("exact", entanglement_signature(w_state(4)))

    def test_snapshot_keeps_occupancy_drops_donors(self):
        service = SynthesisService()
        assert service.handle({"op": "exact", "ghz": 4})["ok"]
        data = request_cache_to_dict(service.cache)
        loaded = request_cache_from_dict(data)
        occ = loaded.signature_occupancy()
        assert occ["entries"] == service.cache.signature_occupancy()["entries"]
        assert occ["donors"] == 0  # loaded results travel without moves
        assert loaded.near("exact", entanglement_signature(ghz_state(4))) \
            == []


class TestFastServing:
    def test_cache_hit_rewrites_op(self):
        service = SynthesisService()
        exact = service.handle({"op": "exact", "ghz": 4})
        fast = service.handle({"op": "fast", "ghz": 4})
        assert fast["ok"] and fast["op"] == "fast"
        assert fast["cached"] and fast["cnot_cost"] == exact["cnot_cost"]

    def test_near_hit_is_verified(self):
        service = SynthesisService()
        assert service.handle({"op": "exact", "ghz": 4})["ok"]
        response = service.handle({"op": "fast", "w": 4,
                                   "return_circuit": True})
        assert response["ok"]
        if response.get("near_hit"):
            assert response["verified"]
            assert response["engine"] == "nearhit"
            from repro.utils.serialization import circuit_from_dict
            assert prepares_state(circuit_from_dict(response["circuit"]),
                                  w_state(4))

    def test_fast_results_never_answer_exact_traffic(self):
        service = SynthesisService()
        assert service.handle({"op": "exact", "ghz": 4})["ok"]
        fast = service.handle({"op": "fast", "w": 4})
        assert fast["ok"]
        exact = service.handle({"op": "exact", "w": 4})
        assert exact["ok"]
        # the fast result lives in its own namespace: exact traffic
        # searches (and proves optimality) rather than reusing it
        assert exact["engine"] != "cache"
        assert exact["optimal"]

    def test_fast_fresh_search_is_verified(self):
        service = SynthesisService()
        response = service.handle({"op": "fast", "dicke": [4, 2]})
        assert response["ok"] and response["verified"]
        assert response["cnot_cost"] == 6

    def test_truncated_never_cached(self):
        service = SynthesisService()
        assert service.handle({"op": "exact", "ghz": 4})["ok"]
        response = service.handle({"op": "fast", "w": 4,
                                   "deadline_ms": 0.0001})
        if response.get("deadline_expired"):
            assert service.cache.get("fast", w_state(4)) is None
        elif response.get("ok") and "cnot_cost" in response:
            assert service.cache.get("fast", w_state(4)) is not None

    def test_stats_expose_pdb_and_signature_index(self):
        service = SynthesisService()
        assert service.handle({"op": "exact", "ghz": 4})["ok"]
        stats = service.handle({"op": "stats"})
        assert stats["ok"]
        assert "pdb" in stats["memory"]
        assert stats["signature_index"]["entries"] >= 1
        assert "nearhit" in stats


class TestDistillCli:
    def test_distill_roundtrip(self, tmp_path):
        from repro.cli import main
        from repro.service.persistence import (
            load_memory_snapshot,
            save_request_cache,
        )

        service = SynthesisService()
        for request in ({"op": "exact", "ghz": 4},
                        {"op": "exact", "dicke": [4, 2]}):
            assert service.handle(request)["ok"]
        cache_path = tmp_path / "cache.qspreq.gz"
        save_request_cache(service.cache, cache_path)
        out_path = tmp_path / "pdb.qspmem.gz"
        assert main(["distill", str(cache_path),
                     "--snapshot-out", str(out_path)]) == 0
        memory = load_memory_snapshot(out_path)
        assert len(memory.pdb) == 2
        sig = entanglement_signature(ghz_state(4))
        assert memory.pdb.learned_bound(sig) == 3
        assert memory.pdb.audit() == []


class TestFastCli:
    def test_prepare_fast(self, capsys):
        from repro.cli import main

        assert main(["prepare", "--ghz", "4", "--mode", "fast"]) == 0
        out = capsys.readouterr().out
        assert "CNOTs  : 3" in out
        assert "simulator-verified" in out
