"""Packed-kernel tests: move-set parity, canonical soundness, hashing.

The property tests here are the contract that lets every search variant
run on :mod:`repro.core.kernel`:

* the vectorized successor enumeration produces *exactly* the legacy move
  set of :mod:`repro.core.transitions` on randomized sparse states;
* kernel canonicalization is sound and as complete as the legacy
  canonicalization (identical class partitions on random state samples);
* the 64-bit structural state hash degrades gracefully: a forced global
  collision still yields correct interning and correct search results.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernel as kernel
from astar_oracle import astar_reference
from repro.core.astar import SearchConfig, astar_search
from repro.core.canonical import CanonLevel, canonical_key
from repro.core.kernel import (
    BoundedCache,
    CanonContext,
    CanonKey,
    HashKeyedMap,
    StatePool,
    apply_move_packed,
    canonical_key_packed,
    enumerate_cx_packed,
    enumerate_merges_packed,
    num_entangled_packed,
    qstate_payload,
    successors_packed,
)
from repro.core.transitions import enumerate_cx, enumerate_merges, successors
from repro.exceptions import SearchBudgetExceeded
from repro.sim.verify import prepares_state
from repro.states.analysis import num_entangled_qubits
from repro.states.families import dicke_state, ghz_state, w_state
from repro.states.qstate import QState


def random_state(seed: int, uniform_bias: float = 0.4) -> QState:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(2, min(10, 1 << n) + 1))
    idx = rng.choice(1 << n, size=m, replace=False)
    if rng.random() < uniform_bias:
        amps = np.ones(m)
    else:
        amps = rng.standard_normal(m)
    return QState(n, {int(i): float(a) for i, a in zip(idx, amps)})


def random_free_variant(state: QState, seed: int) -> QState:
    """Apply random zero-cost transformations (class is preserved)."""
    rng = np.random.default_rng(seed)
    variant = state
    n = state.num_qubits
    for _ in range(int(rng.integers(1, 5))):
        op = int(rng.integers(0, 3))
        if op == 0:
            variant = variant.apply_x(int(rng.integers(0, n)))
        elif op == 1:
            variant = variant.permute([int(p) for p in rng.permutation(n)])
        else:
            variant = variant.negate()
    return variant


# ----------------------------------------------------------------------
# Move-set parity (acceptance criterion)
# ----------------------------------------------------------------------

class TestEnumerationParity:
    @given(st.integers(0, 400))
    @settings(max_examples=120)
    def test_cx_moves_identical(self, seed):
        state = random_state(seed)
        ps = StatePool().from_qstate(state)
        assert enumerate_cx_packed(ps) == enumerate_cx(state)

    @given(st.integers(0, 400))
    @settings(max_examples=120)
    def test_merge_moves_identical(self, seed):
        state = random_state(seed)
        ps = StatePool().from_qstate(state)
        for target in range(state.num_qubits):
            assert enumerate_merges_packed(ps, target) == \
                enumerate_merges(state, target)

    @given(st.integers(0, 400), st.integers(0, 3))
    @settings(max_examples=80)
    def test_merge_moves_identical_with_control_cap(self, seed, cap):
        state = random_state(seed)
        ps = StatePool().from_qstate(state)
        for target in range(state.num_qubits):
            assert enumerate_merges_packed(ps, target, cap) == \
                enumerate_merges(state, target, cap)

    @given(st.integers(0, 400))
    @settings(max_examples=60)
    def test_successor_arcs_identical(self, seed):
        """Same moves in the same order, and state-identical successors."""
        state = random_state(seed)
        pool = StatePool()
        ps = pool.from_qstate(state)
        legacy = successors(state, include_x_moves=True)
        packed = successors_packed(pool, ps, include_x_moves=True)
        assert [mv for mv, _ in legacy] == [mv for mv, _ in packed]
        for (_, leg_nxt), (_, ker_nxt) in zip(legacy, packed):
            assert ker_nxt.to_qstate().key() == leg_nxt.key()

    def test_known_families_successor_parity(self):
        for state in (ghz_state(3), w_state(4), dicke_state(4, 2),
                      dicke_state(5, 2)):
            pool = StatePool()
            ps = pool.from_qstate(state)
            legacy = successors(state)
            packed = successors_packed(pool, ps)
            assert [mv for mv, _ in legacy] == [mv for mv, _ in packed]

    @given(st.integers(0, 400))
    @settings(max_examples=60)
    def test_apply_move_matches_legacy(self, seed):
        state = random_state(seed)
        pool = StatePool()
        ps = pool.from_qstate(state)
        for move, _ in successors(state)[:12]:
            expected = move.apply(state)
            got = apply_move_packed(pool, ps, move)
            assert got.to_qstate().key() == expected.key()

    @given(st.integers(0, 400))
    @settings(max_examples=40)
    def test_merge_apply_numpy_path_matches_scalar(self, seed):
        """The m > _SCALAR_MERGE_LIMIT NumPy merge branch is bit-identical
        to the scalar one (random states are small, so without forcing the
        limit the vectorized branch would go untested)."""
        state = random_state(seed)
        saved = kernel._SCALAR_MERGE_LIMIT
        try:
            kernel._SCALAR_MERGE_LIMIT = -1  # force the NumPy branch
            pool = StatePool()
            ps = pool.from_qstate(state)
            for move, _ in successors(state):
                if not hasattr(move, "theta"):
                    continue
                expected = move.apply(state)
                got = apply_move_packed(pool, ps, move)
                assert got.to_qstate().key() == expected.key()
        finally:
            kernel._SCALAR_MERGE_LIMIT = saved


# ----------------------------------------------------------------------
# Separability / heuristic parity
# ----------------------------------------------------------------------

class TestSeparabilityParity:
    @given(st.integers(0, 400))
    @settings(max_examples=80)
    def test_num_entangled_matches(self, seed):
        state = random_state(seed)
        ps = StatePool().from_qstate(state)
        assert num_entangled_packed(ps) == num_entangled_qubits(state)


# ----------------------------------------------------------------------
# Canonicalization: soundness, completeness, cross-path class partition
# ----------------------------------------------------------------------

class TestKernelCanonical:
    @given(st.integers(0, 1000), st.integers(0, 1000))
    @settings(max_examples=150)
    def test_free_transformations_preserve_key(self, seed, tseed):
        """Soundness/completeness: every member of a class gets one key."""
        state = random_state(seed)
        variant = random_free_variant(state, tseed)
        for level in (CanonLevel.U2, CanonLevel.PU2):
            if level is CanonLevel.U2:
                # U2 keys are only invariant under flips and global sign
                rng = np.random.default_rng(tseed)
                variant_u2 = state
                for _ in range(3):
                    variant_u2 = variant_u2.apply_x(
                        int(rng.integers(0, state.num_qubits)))
                pair = (state, variant_u2)
            else:
                pair = (state, variant)
            keys = [canonical_key_packed(StatePool().from_qstate(s), level,
                                         256, 24) for s in pair]
            assert keys[0] == keys[1], (level, pair)

    def test_partition_exact_vs_complete_reference(self):
        """At exhaustive caps the reference canonicalization is complete
        (no candidate truncation for n=3), so its partition is the exact
        equivalence.  The kernel partition must match it set-for-set —
        this is the regression test for the orbit-hash aggregation flaw
        where per-candidate sums telescoped across candidate groupings
        (merging the cube star {0,1,2,4} with the non-star {0,1,2,5})."""
        from itertools import combinations

        kernel_of = {}
        legacy_of = {}
        for m in range(1, 9):
            for combo in combinations(range(8), m):
                state = QState.uniform(3, combo)
                kernel_of[combo] = canonical_key_packed(
                    StatePool().from_qstate(state),
                    CanonLevel.PU2, 4096, 5040).full
                legacy_of[combo] = canonical_key(
                    state, CanonLevel.PU2, tie_cap=4096, perm_cap=5040)
        pairs = {(kernel_of[c], legacy_of[c]) for c in kernel_of}
        assert len({k for k, _ in pairs}) == len(pairs)  # sound
        assert len({l for _, l in pairs}) == len(pairs)  # complete

    def test_class_partition_matches_legacy(self):
        """Kernel and legacy canonicalization induce the same partition on
        a random sample (counted via distinct keys)."""
        rng = np.random.default_rng(20260730)
        legacy_keys = set()
        kernel_keys = set()
        for _ in range(300):
            m = int(rng.integers(2, 9))
            idx = rng.choice(16, size=m, replace=False)
            amps = rng.standard_normal(m)
            state = QState(4, {int(i): float(a)
                               for i, a in zip(idx, amps)})
            legacy_keys.add(canonical_key(state, CanonLevel.PU2,
                                          tie_cap=256, perm_cap=24))
            kernel_keys.add(canonical_key_packed(
                StatePool().from_qstate(state),
                CanonLevel.PU2, 256, 24).full)
        assert len(legacy_keys) == len(kernel_keys)

    @given(st.integers(0, 400))
    @settings(max_examples=60)
    def test_scalar_and_numpy_orbit_paths_agree(self, seed):
        state = random_state(seed)
        saved = kernel._SCALAR_ORBIT_LIMIT
        try:
            kernel._SCALAR_ORBIT_LIMIT = 10 ** 9
            scalar = canonical_key_packed(StatePool().from_qstate(state),
                                          CanonLevel.PU2, 256, 24)
            kernel._SCALAR_ORBIT_LIMIT = 0
            vectorized = canonical_key_packed(StatePool().from_qstate(state),
                                              CanonLevel.PU2, 256, 24)
        finally:
            kernel._SCALAR_ORBIT_LIMIT = saved
        assert scalar == vectorized

    def test_none_level_key_is_exact(self):
        state = random_state(3, uniform_bias=0.0)
        pool = StatePool()
        key = canonical_key_packed(pool.from_qstate(state),
                                   CanonLevel.NONE, 256, 24)
        again = canonical_key_packed(pool.from_qstate(state),
                                     CanonLevel.NONE, 256, 24)
        assert key == again
        assert key.full == pool.from_qstate(state).payload


# ----------------------------------------------------------------------
# Interning pool + 64-bit hash collision handling (satellite)
# ----------------------------------------------------------------------

class TestStatePool:
    def test_interning_is_identity(self):
        pool = StatePool()
        a = pool.from_qstate(dicke_state(4, 2))
        b = pool.from_qstate(dicke_state(4, 2))
        assert a is b
        assert pool.hits == 1
        assert len(pool) == 1

    def test_quantization_level_dedupe(self):
        pool = StatePool()
        a = pool.from_qstate(QState(2, {0: 0.6, 3: 0.8}))
        b = pool.from_qstate(QState(2, {0: 0.6 + 1e-13, 3: 0.8}))
        assert a is b  # equal after amplitude quantization

    def test_forced_hash_collision_keeps_states_distinct(self, monkeypatch):
        """Regression: a 64-bit hash collision must never alias states."""
        monkeypatch.setattr(kernel, "state_hash64", lambda payload: 42)
        pool = StatePool()
        a = pool.from_qstate(ghz_state(3))
        b = pool.from_qstate(w_state(3))
        c = pool.from_qstate(ghz_state(3))
        assert a is not b
        assert a is c
        assert pool.hash_collisions >= 1
        assert a.hash64 == b.hash64 == 42

    def test_search_correct_under_forced_hash_collision(self, monkeypatch):
        """Full A* with every structural hash colliding still proves the
        known optimum (collision chains + exact payload comparison)."""
        monkeypatch.setattr(kernel, "state_hash64", lambda payload: 7)
        result = astar_search(w_state(3),
                              SearchConfig(max_nodes=50_000, time_limit=60))
        assert result.cnot_cost == 4
        assert result.optimal
        assert prepares_state(result.circuit, w_state(3))

    @given(seed=st.integers(0, 10_000))
    def test_qstate_payload_is_the_interned_payload(self, seed):
        """The request-cache, core and batch dedupe keys are the payload a
        pool would intern the state under, with no pool."""
        state = random_state(seed)
        assert qstate_payload(state) == StatePool().from_qstate(state).payload


class TestHashKeyedMap:
    def test_basic_roundtrip(self):
        table = HashKeyedMap()
        key = CanonKey(3, 123, 456)
        assert table.get(key) is None
        table.put(key, 5)
        assert table.get(CanonKey(3, 123, 456)) == 5
        table.put(CanonKey(3, 123, 456), 2)
        assert table.get(key) == 2
        assert len(table) == 1

    def test_collision_spill(self):
        table = HashKeyedMap()
        first = CanonKey(3, 99, 111)
        second = CanonKey(3, 99, 222)  # same 64-bit hash, different class
        table.put(first, 1)
        table.put(second, 2)
        assert table.get(first) == 1
        assert table.get(second) == 2
        assert table.collisions == 1
        assert len(table) == 2


class TestBoundedCache:
    def test_hit_miss_counters(self):
        cache = BoundedCache(8)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1
        assert cache.misses == 1

    def test_eviction_keeps_size_bounded(self):
        cache = BoundedCache(16)
        for i in range(200):
            cache.put(i, i)
        assert len(cache.data) <= 16
        assert cache.evictions > 0


# ----------------------------------------------------------------------
# Search-level differential tests (kernel vs the dict-based oracle)
# ----------------------------------------------------------------------

class TestSearchDifferential:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_states_same_cost(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = 3
        m = int(rng.integers(2, 6))
        idx = rng.choice(1 << n, size=m, replace=False)
        state = QState.uniform(n, [int(i) for i in idx])
        cfg = SearchConfig(max_nodes=50_000, time_limit=60)
        res_kernel = astar_search(state, cfg)
        res_ref = astar_reference(state, cfg)
        assert res_kernel.cnot_cost == res_ref.cnot_cost
        assert res_kernel.optimal == res_ref.optimal
        assert prepares_state(res_kernel.circuit, state)

    @pytest.mark.parametrize("n,k,expected",
                             [(3, 1, 4), (4, 1, 7), (4, 2, 6)])
    def test_dicke_family_same_cost(self, n, k, expected):
        cfg = SearchConfig(max_nodes=200_000, time_limit=120)
        res = astar_search(dicke_state(n, k), cfg)
        ref = astar_reference(dicke_state(n, k), cfg)
        assert res.cnot_cost == ref.cnot_cost == expected
        assert res.optimal and ref.optimal

    def test_canon_levels_same_cost_on_kernel(self):
        state = QState.uniform(3, [0b000, 0b011, 0b101, 0b110])
        costs = set()
        for level in (CanonLevel.NONE, CanonLevel.U2, CanonLevel.PU2):
            cfg = SearchConfig(max_nodes=100_000, time_limit=60,
                               canon_level=level)
            costs.add(astar_search(state, cfg).cnot_cost)
        assert costs == {2}

    def test_cache_stats_reported(self):
        res = astar_search(dicke_state(4, 1),
                           SearchConfig(max_nodes=50_000, time_limit=60))
        stats = res.stats
        assert stats.canon_cache_misses > 0
        assert 0.0 <= stats.canon_cache_hit_rate <= 1.0
        assert 0.0 <= stats.h_cache_hit_rate <= 1.0
        assert stats.nodes_per_second > 0.0


# ----------------------------------------------------------------------
# Proven lower bound under weighted search (satellite)
# ----------------------------------------------------------------------

class TestWeightedLowerBound:
    @pytest.mark.parametrize("on_kernel", [True, False])
    @pytest.mark.parametrize("weight", [1.0, 2.0, 4.0])
    def test_budget_bound_is_sound(self, on_kernel, weight):
        """The reported lower bound never exceeds the true optimum, even
        with an inflated heuristic weight (the old code reported the
        weighted f of the last popped node, which is not a bound) — on
        the kernel and on the dict-based oracle alike."""
        target = dicke_state(5, 2)  # true optimum: 14
        cfg = SearchConfig(max_nodes=15, weight=weight)
        search = astar_search if on_kernel else astar_reference
        with pytest.raises(SearchBudgetExceeded) as err:
            search(target, cfg)
        assert 0 <= err.value.lower_bound <= 14

    def test_unweighted_bound_still_informative(self):
        with pytest.raises(SearchBudgetExceeded) as err:
            astar_search(dicke_state(5, 2), SearchConfig(max_nodes=50))
        assert err.value.lower_bound >= 1


# ----------------------------------------------------------------------
# CanonContext tiers
# ----------------------------------------------------------------------

class TestCanonContext:
    def test_state_tier_memoizes(self):
        ctx = CanonContext(CanonLevel.PU2, 256, 24, cache_cap=1024)
        pool = StatePool()
        ps = pool.from_qstate(dicke_state(4, 2))
        first = ctx.key(ps)
        second = ctx.key(ps)
        assert first is second
        assert (ctx.hits, ctx.misses) == (1, 1)

    def test_u2_tier_shares_full_key_across_flips(self):
        ctx = CanonContext(CanonLevel.PU2, 256, 24, cache_cap=1024)
        pool = StatePool()
        state = dicke_state(4, 2)
        flipped = state.apply_x(0).apply_x(2)
        key_a = ctx.key(pool.from_qstate(state))
        key_b = ctx.key(pool.from_qstate(flipped))
        assert key_a == key_b
        # the second state's full key came from the U(2)-class tier
        assert ctx.full_computations == 1
