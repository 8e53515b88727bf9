"""Differential suite for topology-native synthesis (PR 4).

Three acceptance pillars:

* **Full-map identity** — a ``CouplingMap.full`` / ``None`` topology must
  leave the move set and search results bit-identical to seed behavior
  (the identity fast path).
* **Native beats routed** — on the topology-tax sweep, searching directly
  on the restricted move set never costs more CNOTs than synthesize-then-
  route, and every native circuit is simulator-verified and physically
  legal (all CNOTs on coupled pairs).
* **Restricted heuristic admissibility** — the coupling matching bound
  never exceeds the true optimal native cost on enumerable instances.

Plus the cross-device safety net: memory, snapshots, and the request
cache must refuse to mix entries across topologies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.flow import prepare_on_device
from repro.arch.topologies import CouplingMap, named_topology, native_topology
from repro.core.astar import SearchConfig, astar_search
from repro.core.beam import BeamConfig, beam_search
from repro.core.heuristic import CouplingHeuristic, default_heuristic, \
    entanglement_heuristic
from repro.core.idastar import IDAStarConfig, idastar_search
from repro.core.kernel import (
    StatePool,
    enumerate_cx_packed,
    enumerate_merges_packed,
    successors_packed,
)
from repro.core.memory import HashStore, SearchMemory
from repro.core.transitions import enumerate_cx, enumerate_merges, successors
from repro.exceptions import CircuitError, MemoryCompatibilityError
from repro.experiments.topology_tax import topology_tax_rows
from repro.service.cache import (
    RequestCache,
    request_cache_from_dict,
    request_cache_to_dict,
)
from repro.states.families import dicke_state, ghz_state, w_state
from repro.states.qstate import QState
from repro.states.random_states import random_sparse_state
from repro.utils.fingerprint import fingerprint_from_dict, \
    fingerprint_to_dict, search_regime_dict


def _random_states(count: int, n: int, seed0: int = 11) -> list[QState]:
    return [random_sparse_state(n, seed=seed0 + i) for i in range(count)]


def _cx_pairs(circuit) -> list[tuple[int, int]]:
    return [(g.controls[0][0], g.target) for g in circuit.decompose()
            if g.name == "cx"]


# ----------------------------------------------------------------------
# CouplingMap hardening (satellite)
# ----------------------------------------------------------------------

class TestCouplingMapHardening:
    def test_hash_consistent_with_eq(self):
        a = CouplingMap.line(5)
        b = CouplingMap([(i, i + 1) for i in range(4)], 5, name="renamed")
        assert a == b
        assert hash(a) == hash(b)
        assert hash(a) != hash(CouplingMap.ring(5))

    def test_canonical_serialization_roundtrip(self):
        for cmap in (CouplingMap.line(4), CouplingMap.ring(5),
                     CouplingMap.grid(2, 3), CouplingMap.star(4)):
            data = cmap.to_canonical_dict()
            assert data["edges"] == sorted(data["edges"])
            back = CouplingMap.from_canonical_dict(data)
            assert back == cmap
            assert back.canonical_key() == cmap.canonical_key()

    def test_from_canonical_dict_rejects_garbage(self):
        with pytest.raises(CircuitError):
            CouplingMap.from_canonical_dict({"edges": "nope"})

    def test_automorphisms_are_graph_automorphisms(self):
        for cmap in (CouplingMap.line(4), CouplingMap.ring(5),
                     CouplingMap.grid(2, 3)):
            orderings = cmap.automorphism_orderings(64)
            assert list(range(cmap.size)) == orderings[0]
            for perm in orderings:
                assert sorted(perm) == list(range(cmap.size))
                for a, b in cmap.edges():
                    assert cmap.is_adjacent(perm[a], perm[b])

    def test_automorphism_counts(self):
        assert len(CouplingMap.line(4).automorphism_orderings(64)) == 2
        assert len(CouplingMap.ring(5).automorphism_orderings(64)) == 10
        # truncation keeps identity and the cap
        capped = CouplingMap.star(6).automorphism_orderings(8)
        assert len(capped) <= 9  # cap + possibly appended identity
        assert list(range(6)) in capped

    def test_induced_submap(self):
        grid = CouplingMap.grid(2, 3)
        sub, mapping = grid.induced([0, 1, 3, 4])
        assert mapping == [0, 1, 3, 4]
        assert sub.size == 4
        for a, b in sub.edges():
            assert grid.is_adjacent(mapping[a], mapping[b])

    def test_native_topology_normalization(self):
        assert native_topology(None) is None
        assert native_topology(CouplingMap.full(4)) is None
        line = CouplingMap.line(4)
        assert native_topology(line) is line
        disconnected = CouplingMap([(0, 1)], 4)
        with pytest.raises(CircuitError):
            native_topology(disconnected)

    def test_named_topology_sizes(self):
        for name in ("line", "ring", "grid", "star", "tree", "full",
                     "heavy_hex"):
            for size in (3, 4, 5):
                cmap = named_topology(name, size)
                assert cmap.size == size
                assert cmap.is_connected()


# ----------------------------------------------------------------------
# (a) full-map identity + restricted move-set correctness
# ----------------------------------------------------------------------

class TestMoveSetDifferential:
    def test_full_map_is_move_set_identical_to_seed(self):
        full = CouplingMap.full(4)
        pool = StatePool()
        for state in _random_states(6, 4):
            ps = pool.from_qstate(state)
            assert enumerate_cx_packed(ps, full) == enumerate_cx_packed(ps)
            assert enumerate_cx(state, full) == enumerate_cx(state)
            base = successors(state)
            topo = successors(state, topology=full)
            assert [m for m, _ in base] == [m for m, _ in topo]

    def test_restricted_reference_and_kernel_in_lockstep(self):
        line = CouplingMap.line(4)
        ring = CouplingMap.ring(4)
        pool = StatePool()
        for cmap in (line, ring):
            for state in _random_states(6, 4, seed0=23):
                ps = pool.from_qstate(state)
                ref = successors(state, topology=cmap)
                kern = successors_packed(pool, ps, topology=cmap)
                assert [m for m, _ in ref] == [m for m, _ in kern]
                for (_, ref_state), (_, kern_state) in zip(ref, kern):
                    assert ref_state.key() == kern_state.to_qstate().key()

    def test_restricted_moves_all_on_coupled_pairs(self):
        line = CouplingMap.line(4)
        masks = line.neighbor_masks()
        pool = StatePool()
        for state in _random_states(6, 4, seed0=47):
            ps = pool.from_qstate(state)
            for mv in enumerate_cx_packed(ps, line):
                assert (masks[mv.control] >> mv.target) & 1
            for target in range(4):
                for mv in enumerate_merges_packed(ps, target, None, line):
                    for q, _ in mv.controls:
                        assert line.is_adjacent(q, target)

    def test_full_topology_search_cost_identical_to_seed(self):
        full = CouplingMap.full(4)
        for state in (ghz_state(4), w_state(4), dicke_state(4, 2)):
            seed_result = astar_search(state)
            topo_result = astar_search(state, SearchConfig(topology=full))
            assert topo_result.cnot_cost == seed_result.cnot_cost
            assert topo_result.optimal == seed_result.optimal
            assert topo_result.stats.nodes_expanded == \
                seed_result.stats.nodes_expanded

    def test_topology_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            astar_search(ghz_state(4),
                         SearchConfig(topology=CouplingMap.line(5)))

    def test_full_map_of_any_size_means_unrestricted(self):
        # a full map is the paper model regardless of its size — the
        # engines must agree with prepare_state/search_regime_dict here
        seed = astar_search(ghz_state(4))
        via_full5 = astar_search(ghz_state(4),
                                 SearchConfig(topology=CouplingMap.full(5)))
        assert via_full5.cnot_cost == seed.cnot_cost
        assert via_full5.stats.nodes_expanded == seed.stats.nodes_expanded


# ----------------------------------------------------------------------
# native search: engines agree, circuits are native and verified
# ----------------------------------------------------------------------

class TestNativeSearch:
    def test_engines_agree_on_native_optimum(self):
        line = CouplingMap.line(4)
        cfg = SearchConfig(topology=line)
        for state in (ghz_state(4), w_state(4), dicke_state(4, 2)):
            a = astar_search(state, cfg)
            i = idastar_search(state, IDAStarConfig(search=cfg))
            assert a.optimal and i.optimal
            assert a.cnot_cost == i.cnot_cost
            b = beam_search(state, BeamConfig(topology=line))
            assert b.cnot_cost >= a.cnot_cost

    def test_native_circuits_land_on_coupled_pairs(self):
        for cmap in (CouplingMap.line(4), CouplingMap.ring(4),
                     named_topology("grid", 4)):
            for state in (ghz_state(4), dicke_state(4, 2)):
                result = astar_search(state, SearchConfig(topology=cmap))
                for control, target in _cx_pairs(result.circuit):
                    assert cmap.is_adjacent(control, target)

    def test_portfolio_survives_empty_native_beam_lane(self):
        # a starved native beam lane raises SynthesisError (no m-flow
        # completion tail); the portfolio must record a failed lane and
        # keep going instead of aborting the whole request
        from repro.service.portfolio import interleaved_portfolio

        outcome = interleaved_portfolio(
            w_state(4),
            SearchConfig(topology=CouplingMap.line(4), time_limit=1e-6))
        # every lane fails under the impossible budget — but the call
        # returns an outcome (pre-fix: SynthesisError propagated)
        assert not outcome.solved
        assert [a["solved"] for a in outcome.attempts].count(False) == \
            len(outcome.attempts)
        # with a sane budget the exact lanes answer natively
        outcome = interleaved_portfolio(
            w_state(4), SearchConfig(topology=CouplingMap.line(4)))
        assert outcome.solved and outcome.result.optimal

    def test_family_reports_empty_native_beam_row(self):
        # same failure shape at the family level: the row is reported
        # unsolved instead of sinking the batch
        from repro.experiments.family_runner import FamilyRunConfig, \
            run_family

        config = FamilyRunConfig(
            engine="beam",
            beam=BeamConfig(width=1, max_depth=1),
            topology="line")
        report = run_family([("w4", w_state(4))], config)
        assert len(report.rows) == 1
        assert not report.rows[0].solved

    def test_native_warm_memory_identical_results(self):
        line = CouplingMap.line(4)
        cfg = SearchConfig(topology=line)
        memory = SearchMemory()
        cold = [astar_search(s, cfg) for s in
                (ghz_state(4), w_state(4), dicke_state(4, 2))]
        warm1 = [astar_search(s, cfg, memory=memory) for s in
                 (ghz_state(4), w_state(4), dicke_state(4, 2))]
        warm2 = [astar_search(s, cfg, memory=memory) for s in
                 (ghz_state(4), w_state(4), dicke_state(4, 2))]
        for c, w1, w2 in zip(cold, warm1, warm2):
            assert c.cnot_cost == w1.cnot_cost == w2.cnot_cost
        # the satellite: per-search store hit counters are surfaced
        assert any(r.stats.canon_store_hits > 0 or r.stats.h_store_hits > 0
                   for r in warm2)


# ----------------------------------------------------------------------
# (b) native cost <= routed cost on the topology-tax sweep, verified
# ----------------------------------------------------------------------

class TestNativeVersusRouted:
    def test_native_never_worse_than_routed_on_tax_sweep(self):
        states = [("ghz3", ghz_state(3)), ("w4", w_state(4)),
                  ("d42", dicke_state(4, 2))]
        rows = topology_tax_rows(states, placements=("greedy",),
                                 include_native=True)
        assert rows
        for row in rows:
            assert row.native_cnots is not None
            # simulator equivalence on every row, both pipelines
            assert row.verified is True
            assert row.native_verified is True
            assert row.native_cnots <= row.physical_cnots, row

    def test_race_mode_returns_cheaper_verified(self):
        line = CouplingMap.line(4)
        routed = prepare_on_device(w_state(4), line, placement="greedy")
        race = prepare_on_device(w_state(4), line, mode="race")
        assert race.physical_cnots <= routed.physical_cnots
        assert race.verified is True

    def test_native_on_larger_device_embeds_into_region(self):
        hh = named_topology("heavy_hex", 12)
        result = prepare_on_device(ghz_state(3), hh, mode="native")
        assert result.routed.swap_count == 0
        assert result.verified is True
        region = result.routed.initial_layout
        for control, target in _cx_pairs(result.routed.circuit):
            assert hh.is_adjacent(control, target)
            assert control in region and target in region


# ----------------------------------------------------------------------
# (c) restricted heuristic admissibility
# ----------------------------------------------------------------------

class TestCouplingHeuristic:
    def test_collapses_to_paper_bound_on_full_maps(self):
        h_full = CouplingHeuristic(CouplingMap.full(4))
        for state in _random_states(8, 4, seed0=5):
            assert h_full(state) == entanglement_heuristic(state)

    def test_never_below_paper_bound(self):
        # the coupling bound dominates ceil(k/2): fewer coupled pairs can
        # only shrink the matching
        line = CouplingHeuristic(CouplingMap.line(4))
        for state in _random_states(8, 4, seed0=31):
            assert line(state) >= entanglement_heuristic(state)

    @pytest.mark.parametrize("family", ["line", "ring", "grid"])
    def test_admissible_on_enumerable_instances(self, family):
        cmap = named_topology(family, 4)
        h = CouplingHeuristic(cmap)
        cfg = SearchConfig(topology=cmap)
        targets = [ghz_state(4), w_state(4), dicke_state(4, 2),
                   *_random_states(4, 4, seed0=61)]
        for state in targets:
            result = astar_search(state, cfg)
            assert result.optimal
            assert h(state) <= result.cnot_cost, \
                f"inadmissible: h={h(state)} > opt={result.cnot_cost}"

    def test_default_heuristic_resolution(self):
        assert default_heuristic(None) is entanglement_heuristic
        line = CouplingMap.line(4)
        h = default_heuristic(line)
        assert isinstance(h, CouplingHeuristic)
        assert h == CouplingHeuristic(CouplingMap.line(4))
        assert h != CouplingHeuristic(CouplingMap.ring(4))


# ----------------------------------------------------------------------
# memory / snapshot / cache cross-device gating
# ----------------------------------------------------------------------

class TestCrossDeviceGating:
    def test_memory_refuses_other_topology(self):
        line = CouplingMap.line(4)
        memory = SearchMemory()
        astar_search(ghz_state(4), SearchConfig(topology=line),
                     memory=memory)
        with pytest.raises(MemoryCompatibilityError):
            astar_search(ghz_state(4),
                         SearchConfig(topology=CouplingMap.ring(4)),
                         memory=memory)
        with pytest.raises(MemoryCompatibilityError):
            astar_search(ghz_state(4), SearchConfig(), memory=memory)

    def test_unrestricted_memory_refuses_topology(self):
        memory = SearchMemory()
        astar_search(ghz_state(4), SearchConfig(), memory=memory)
        with pytest.raises(MemoryCompatibilityError):
            astar_search(ghz_state(4),
                         SearchConfig(topology=CouplingMap.line(4)),
                         memory=memory)

    def test_fingerprint_roundtrip_with_topology(self):
        line = CouplingMap.line(4)
        regime = search_regime_dict(SearchConfig(topology=line))
        assert regime["topology"] == line.to_canonical_dict()
        fp = fingerprint_from_dict(regime)
        assert fingerprint_to_dict(fp) == regime
        # the rebuilt heuristic instance compares equal to a fresh one
        assert fp[5] == CouplingHeuristic(CouplingMap.line(4))
        assert fp[6] == line.canonical_key()

    def test_memory_snapshot_roundtrip_with_topology(self):
        from repro.utils.serialization import memory_from_dict, \
            memory_to_dict

        line = CouplingMap.line(4)
        cfg = SearchConfig(topology=line)
        memory = SearchMemory()
        expected = astar_search(ghz_state(4), cfg, memory=memory)
        data = memory_to_dict(memory)
        restored = memory_from_dict(data)
        warm = astar_search(ghz_state(4), cfg, memory=restored)
        assert warm.cnot_cost == expected.cnot_cost
        with pytest.raises(MemoryCompatibilityError):
            astar_search(ghz_state(4),
                         SearchConfig(topology=CouplingMap.ring(4)),
                         memory=restored)

    def test_full_topology_service_is_unrestricted(self):
        # --topology full pins nothing: the service normalizes it away at
        # boot, so explicit full-topology requests of any register size
        # are served and stats report no pinned device
        from repro.service.server import ServiceConfig, SynthesisService

        service = SynthesisService(ServiceConfig(
            search=SearchConfig(topology=CouplingMap.full(4))))
        assert service.config.search.topology is None
        response = service.handle(
            {"id": 1, "op": "exact", "w": 5, "topology": "full"})
        assert response["ok"], response
        assert service.stats()["topology"] is None

    def test_request_cache_pin_rejects_other_topology(self):
        line_regime = search_regime_dict(
            SearchConfig(topology=CouplingMap.line(4)))
        ring_regime = search_regime_dict(
            SearchConfig(topology=CouplingMap.ring(4)))
        cache = RequestCache(line_regime)
        with pytest.raises(MemoryCompatibilityError):
            cache.pin(ring_regime)


# ----------------------------------------------------------------------
# request-cache persistence (satellite)
# ----------------------------------------------------------------------

class TestRequestCachePersistence:
    def _filled_cache(self):
        regime = search_regime_dict(SearchConfig())
        cache = RequestCache(regime, cap=64)
        state = ghz_state(3)
        result = astar_search(state)
        cache.put("exact", state, result)
        return regime, cache, state, result

    def test_roundtrip(self):
        regime, cache, state, result = self._filled_cache()
        data = request_cache_to_dict(cache)
        restored = request_cache_from_dict(data, regime)
        hit = restored.get("exact", state)
        assert hit is not None
        assert hit.cnot_cost == result.cnot_cost
        assert hit.optimal == result.optimal
        assert np.allclose(
            [g.theta for g in hit.circuit if hasattr(g, "theta")],
            [g.theta for g in result.circuit if hasattr(g, "theta")])

    def test_regime_mismatch_refused(self):
        regime, cache, _, _ = self._filled_cache()
        data = request_cache_to_dict(cache)
        other = search_regime_dict(
            SearchConfig(topology=CouplingMap.line(4)))
        with pytest.raises(MemoryCompatibilityError):
            request_cache_from_dict(data, other)

    def test_regimeless_snapshot_refused(self):
        # a snapshot without a regime must not silently adopt the
        # loading service's regime — that would defeat the device gate
        regime, cache, _, _ = self._filled_cache()
        data = dict(request_cache_to_dict(cache), regime=None)
        with pytest.raises(MemoryCompatibilityError):
            request_cache_from_dict(data, regime)

    def test_version_and_corruption_refused(self):
        regime, cache, _, _ = self._filled_cache()
        data = request_cache_to_dict(cache)
        bad_version = dict(data, version=999)
        with pytest.raises(MemoryCompatibilityError):
            request_cache_from_dict(bad_version, regime)
        corrupted = dict(data)
        corrupted["entries"] = {"exact": [["!!! not base64", {}]]}
        with pytest.raises(MemoryCompatibilityError):
            request_cache_from_dict(corrupted, regime)

    def test_file_roundtrip(self, tmp_path):
        from repro.service.persistence import load_request_cache, \
            save_request_cache

        regime, cache, state, result = self._filled_cache()
        path = tmp_path / "cache.json.gz"
        save_request_cache(cache, path)
        restored = load_request_cache(path, regime)
        assert restored.get("exact", state).cnot_cost == result.cnot_cost


# ----------------------------------------------------------------------
# hit-weighted store eviction (satellite)
# ----------------------------------------------------------------------

class _KeyedState:
    __slots__ = ("hash64", "payload")

    def __init__(self, h, payload):
        self.hash64 = h
        self.payload = payload


class TestHitWeightedEviction:
    def test_hot_entries_survive_eviction(self):
        store = HashStore(cap=8)
        keys = [_KeyedState(i, bytes([i])) for i in range(8)]
        for i, key in enumerate(keys):
            store.put(key, i)
        hot = keys[5]
        for _ in range(3):
            assert store.get(hot) == 5
        # overflow forces a sweep; the least-hit entries go first
        for i in range(8, 12):
            store.put(_KeyedState(i, bytes([i])), i)
        assert store.evictions > 0
        assert store.get(hot) == 5  # the hot entry survived
