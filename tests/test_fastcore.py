"""Differential tests: compiled ``_fastcore`` vs the pure-Python kernel.

The compiled extension is an *optional* accelerator — every fast path in
:mod:`repro.core.kernel` keeps its Python twin, selected at call time via
``repro.core.fastcore.active``.  The contract is strict bit-identity: with
the extension on or off, searches must visit the same nodes, produce the
same canonical keys, and intern byte-identical states.  These tests pin
that contract:

* canonical keys, move sets, and successor states are compared bit-for-bit
  between the two paths on randomized sparse states (including the tiny
  candidate-count regime that exercises the scalar orbit-hash path);
* the one-call native canonical key matches the Python twin at the
  search's caps on the uniform-magnitude families the searches meet,
  pinned-separable states and line/ring topologies, and that set reaches
  every ordering branch;
* A*'s native open list leaves the same entries in the same heap order,
  the same exact-state tier and counters as its Python twin, and whole
  A* runs on either (weights, incumbents, topologies, heuristics, an
  attached memory, a forced hash collision) are the same run; a
  cancelled run releases its states;
* a forced global 64-bit hash collision must stay harmless with the native
  ``U64Map`` containers active, exactly as with dicts;
* the one-call native expansion must reproduce the Python
  ``successors_packed`` (arcs, bytes, interned identities, pool counters)
  under every move-set option, and honour a patched ``state_hash64``;
* the acyclic kernel objects leave the cyclic collector only with the
  extension loaded, and untracked states are still freed;
* the sparse reduction's native GH step and merge scoring make the
  Python twins' moves and merged states, bit for bit (also on rows at
  and around the length where the native row sort leaves insertion
  sort);
* ``U64Map`` itself is differentially tested against a plain dict;
* ``REPRO_NO_FASTCORE=1`` must select the fallback in a fresh process;
* the splitmix64 constant table in ``_splitmix.h`` is parsed and compared
  against :mod:`repro.core.splitmix` so the two single-source copies can
  never drift apart silently — even on machines without a compiler.

When the extension is unavailable the differential tests skip; the
source-level tests (header parse, collision counting, fallback selection)
always run.
"""

from __future__ import annotations

import gc
import heapq
import os
import re
import subprocess
import sys
import weakref
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.astar as astar
import repro.core.kernel as kernel
from repro.arch.topologies import CouplingMap
from repro.baselines.mflow import (
    PackedSparse,
    _gh_step,
    _merge_step,
    as_qstate,
    carry,
    dif_qubits,
)
from repro.constants import (
    ATOL,
    MERGE_RATIO_RTOL,
    SEARCH_PERM_CAP,
    SEARCH_TIE_CAP,
)
from repro.core import fastcore
from repro.core.astar import AStarRun, SearchConfig, astar_search
from repro.core.canonical import CanonLevel
from repro.core.engine import RunStatus, _make_h_of
from repro.core.heuristic import CouplingHeuristic, entanglement_heuristic
from repro.core.memory import SearchMemory
from repro.core.moves import MergeMove
from repro.core.kernel import (
    CanonContext,
    CanonKey,
    HashKeyedMap,
    StatePool,
    canonical_key_packed,
    enumerate_cx_packed,
    enumerate_merges_packed,
    quantize_array,
    successors_packed,
)
from repro.core.splitmix import SPLITMIX_CONSTANTS
from repro.exceptions import (
    NormalizationError,
    SearchBudgetExceeded,
    SynthesisError,
)
from repro.qsp.reduction import (
    ReductionConfig,
    _best_merge,
    _best_multi_merge,
)
from repro.sim.verify import prepares_state
from repro.states.families import dicke_state, ghz_state, w_state
from repro.states.qstate import QState

HAVE_FASTCORE = fastcore.available()
needs_fastcore = pytest.mark.skipif(
    not HAVE_FASTCORE,
    reason="compiled _fastcore unavailable (no compiler / REPRO_NO_FASTCORE)",
)

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"

#: rows up to this length are sorted by insertion in the extension
SHORT_SORT = getattr(fastcore._module, "SHORT_SORT", 32)


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


@contextmanager
def python_path():
    """Run the body with the compiled path disabled, restoring it after."""
    fastcore.set_enabled(False)
    try:
        yield
    finally:
        fastcore.set_enabled(True)


def assert_states_bit_identical(a, b) -> None:
    """PackedState equality down to the float bit patterns (catches -0.0)."""
    assert a.n == b.n
    assert a.payload == b.payload
    assert a.idx.tobytes() == b.idx.tobytes()
    assert a.amp.tobytes() == b.amp.tobytes()
    assert a.qamp.tobytes() == b.qamp.tobytes()


# ----------------------------------------------------------------------
# Differential identity: compiled path vs Python path
# ----------------------------------------------------------------------

@needs_fastcore
class TestCompiledPythonParity:
    @given(st.integers(0, 600))
    @settings(max_examples=120, deadline=None)
    def test_canonical_keys_bit_identical(self, seed):
        state = random_state(seed)
        native = canonical_key_packed(StatePool().from_qstate(state),
                                      CanonLevel.PU2, 256, 24)
        with python_path():
            pure = canonical_key_packed(StatePool().from_qstate(state),
                                        CanonLevel.PU2, 256, 24)
        assert native.h == pure.h
        assert native.full == pure.full

    @given(st.integers(0, 600))
    @settings(max_examples=80, deadline=None)
    def test_move_sets_identical(self, seed):
        state = random_state(seed)
        ps = StatePool().from_qstate(state)
        native_cx = enumerate_cx_packed(ps)
        native_merges = [enumerate_merges_packed(ps, t, max_controls=cap)
                         for t in range(ps.n) for cap in (None, 1, 2)]
        with python_path():
            ps2 = StatePool().from_qstate(state)
            assert enumerate_cx_packed(ps2) == native_cx
            pure_merges = [enumerate_merges_packed(ps2, t, max_controls=cap)
                           for t in range(ps2.n) for cap in (None, 1, 2)]
        assert pure_merges == native_merges

    @given(st.integers(0, 600))
    @settings(max_examples=80, deadline=None)
    def test_successor_states_bit_identical(self, seed):
        state = random_state(seed)
        native = successors_packed(StatePool(),
                                   StatePool().from_qstate(state),
                                   include_x_moves=True)
        with python_path():
            pure = successors_packed(StatePool(),
                                     StatePool().from_qstate(state),
                                     include_x_moves=True)
        assert [mv for mv, _ in native] == [mv for mv, _ in pure]
        for (_, a), (_, b) in zip(native, pure):
            assert_states_bit_identical(a, b)

    @given(st.integers(0, 600))
    @settings(max_examples=100, deadline=None)
    def test_interned_states_bit_identical(self, seed):
        state = random_state(seed, uniform_bias=0.2)
        native = StatePool().from_qstate(state)
        with python_path():
            pure = StatePool().from_qstate(state)
        assert native.hash64 == pure.hash64
        assert_states_bit_identical(native, pure)

    @given(st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_quantize_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        amp = rng.standard_normal(int(rng.integers(1, 40)))
        amp *= 10.0 ** rng.integers(-12, 3)
        if rng.random() < 0.3:
            amp[:: 2] = -0.0  # the sign-of-zero normalization case
        native = quantize_array(amp)
        with python_path():
            pure = quantize_array(amp)
        assert native.tobytes() == pure.tobytes()

    @given(st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_scalar_orbit_regime_matches_compiled(self, seed):
        """Tiny candidate counts route the Python path through
        ``_orbit_hash_scalar``; the compiled hash must agree there too."""
        state = random_state(seed)
        native = canonical_key_packed(StatePool().from_qstate(state),
                                      CanonLevel.PU2, 256, 24)
        saved = kernel._SCALAR_ORBIT_LIMIT
        try:
            kernel._SCALAR_ORBIT_LIMIT = 10 ** 9  # force scalar everywhere
            with python_path():
                scalar = canonical_key_packed(StatePool().from_qstate(state),
                                              CanonLevel.PU2, 256, 24)
        finally:
            kernel._SCALAR_ORBIT_LIMIT = saved
        assert native.h == scalar.h
        assert native.full == scalar.full

    def test_known_family_search_identical(self):
        """End-to-end A* parity on a known family: same cost, same node
        counts, so the native path explores the identical search tree."""
        config = SearchConfig(max_nodes=30_000, time_limit=120)
        native = astar_search(dicke_state(4, 2), config)
        with python_path():
            pure = astar_search(dicke_state(4, 2), config)
        assert native.cnot_cost == pure.cnot_cost == 6
        assert native.optimal and pure.optimal
        assert native.stats.nodes_expanded == pure.stats.nodes_expanded
        assert native.stats.nodes_generated == pure.stats.nodes_generated

    def test_forced_hash_collision_with_native_containers(self, monkeypatch):
        """A global 64-bit collision must stay harmless when the native
        U64Map backs the interning-side containers."""
        monkeypatch.setattr(kernel, "state_hash64", lambda payload: 42)
        pool = StatePool()
        a = pool.from_qstate(ghz_state(3))
        b = pool.from_qstate(w_state(3))
        c = pool.from_qstate(ghz_state(3))
        assert a is not b
        assert a is c
        assert pool.hash_collisions >= 1

    def test_search_correct_under_forced_collision_native(self, monkeypatch):
        monkeypatch.setattr(kernel, "state_hash64", lambda payload: 7)
        result = astar_search(w_state(3),
                              SearchConfig(max_nodes=50_000, time_limit=60))
        assert result.cnot_cost == 4
        assert result.optimal
        assert prepares_state(result.circuit, w_state(3))

    def test_compiled_constants_report(self):
        assert fastcore.active is not None
        assert dict(fastcore.active.splitmix_constants()) == \
            SPLITMIX_CONSTANTS


# ----------------------------------------------------------------------
# The one-call native canonical key
# ----------------------------------------------------------------------

def _dense_state(rng, n: int) -> QState:
    """The paper's dense suite: equal magnitudes over ``2**(n-1)`` random
    basis states (signs random on half the draws)."""
    idx = rng.choice(1 << n, size=1 << (n - 1), replace=False)
    signs = rng.choice([-1.0, 1.0], size=len(idx)) if rng.random() < 0.5 \
        else np.ones(len(idx))
    return QState(n, {int(i): float(s) for i, s in zip(idx, signs)})


def _with_separable_qubit(state: QState, kind: str) -> QState:
    """``state`` plus a last qubit in |1> (pinned by an X flip) or in an
    uneven superposition (pinned by the cofactor ratio)."""
    out = {}
    for i, a in state.items():
        if kind == "one":
            out[(i << 1) | 1] = a
        else:
            out[i << 1] = 0.6 * a
            out[(i << 1) | 1] = 0.8 * a
    return QState(state.num_qubits + 1, out)


#: uniform-magnitude supports whose flip-normalized column weights are
#: pairwise distinct (no 4-qubit support has that property)
_WEIGHT_ORDERED = (
    (5, (1, 9, 11, 16, 17, 19, 23, 24, 25, 27)),
    (6, (2, 3, 8, 10, 14, 17, 20, 24, 33, 34, 36, 40, 41, 42, 43, 46, 56,
         59)),
)


def _cyclic_blocks() -> QState:
    """Two 4-qubit blocks, each invariant under rotating its qubits but
    not under swapping two of them: refinement cannot split either cell
    and the symmetric-cell probe cannot collapse it, so both enumerate
    permutations and the second takes the budget the first leaves."""
    pairs = (0b1100, 0b0110, 0b0011, 0b1001)
    block = {x: 1.0 for x in pairs}
    block.update({x: 2.0 for x in (0b1000, 0b0100, 0b0010, 0b0001)})
    return QState(8, {(a << 4) | x: v for a in pairs
                      for x, v in block.items()})


def _coverage_states() -> list[QState]:
    """Uniform-magnitude states the dense searches canonicalize: dense
    states for n = 4..6 (seeds 24, 46 and 53 fill the permutation cap)
    and Dicke states, each with a sample of the merge children of its
    first two expansions, plus weight-ordered supports, two cyclic
    blocks, pinned-separable states and a few random sparse states."""
    roots = [_dense_state(np.random.default_rng(seed), n)
             for n in (4, 5, 6) for seed in range(6)]
    roots += [_dense_state(np.random.default_rng(24), 4),
              _dense_state(np.random.default_rng(46), 5),
              _dense_state(np.random.default_rng(53), 5)]
    roots += [dicke_state(n, k) for n in range(3, 7) for k in range(1, n)]
    roots += [QState(n, {i: 1.0 for i in support})
              for n, support in _WEIGHT_ORDERED]
    roots.append(_cyclic_blocks())
    states = list(roots)
    pool = StatePool()
    for root in roots[::2]:
        frontier = [pool.from_qstate(root)]
        for _ in range(2):
            merges = [child for ps in frontier
                      for move, child in successors_packed(pool, ps)
                      if isinstance(move, MergeMove)]
            frontier = merges[::max(1, len(merges) // 3)]
            states += [child.to_qstate() for child in frontier]
    states += [random_state(seed) for seed in range(12)]
    states += [_with_separable_qubit(dicke_state(4, 2), "one"),
               _with_separable_qubit(dicke_state(3, 1), "split"),
               _with_separable_qubit(roots[0], "split"),
               _with_separable_qubit(ghz_state(3), "one")]
    return states


class _BranchProbe:
    """Records which ordering branches the Python twin takes."""

    def __init__(self, monkeypatch):
        self.hits: dict[str, int] = {}
        orderings = kernel._orderings_packed
        symmetric = kernel._cell_symmetric_arrays
        refine = kernel._wl_refine

        def probe_orderings(idx, qamp, n, perm_cap, bits, absamp,
                            num_heavy=1):
            counts = bits.sum(axis=1)
            weights = np.minimum(counts, len(idx) - counts).tolist()
            result = orderings(idx, qamp, n, perm_cap, bits, absamp,
                               num_heavy)
            if len(set(weights)) == n:
                self.hit("distinct weights")
            if len(result) >= perm_cap:
                self.hit("capped enumeration")
            return result

        def probe_symmetric(*args):
            found = symmetric(*args)
            if found:
                self.hit("symmetric cell")
            return found

        def probe_refine(*args):
            self.hit("refinement")
            return refine(*args)

        monkeypatch.setattr(kernel, "_orderings_packed", probe_orderings)
        monkeypatch.setattr(kernel, "_cell_symmetric_arrays",
                            probe_symmetric)
        monkeypatch.setattr(kernel, "_wl_refine", probe_refine)

    def hit(self, branch: str) -> None:
        self.hits[branch] = self.hits.get(branch, 0) + 1


def _search_key(state: QState, topology=None, level=CanonLevel.PU2):
    ctx = CanonContext(level, SEARCH_TIE_CAP, SEARCH_PERM_CAP, cache_cap=8,
                       topology=topology)
    return ctx, ctx.key(StatePool().from_qstate(state))


@needs_fastcore
class TestNativeCanonicalKey:
    def test_search_caps_bit_identical_and_every_branch_reached(
            self, monkeypatch):
        """Native keys equal the Python twin's at SEARCH_TIE_CAP /
        SEARCH_PERM_CAP on the coverage set, full map and line/ring maps,
        and the set reaches each ordering branch of the twin (the native
        call reaches the refinement through the same callback)."""
        probe = _BranchProbe(monkeypatch)
        native_refinements = 0
        compared = 0
        for state in _coverage_states():
            n = state.num_qubits
            maps = [None]
            if n >= 3:
                maps += [CouplingMap.line(n), CouplingMap.ring(n)]
            for topology in maps:
                before = probe.hits.get("refinement", 0)
                ctx, native = _search_key(state, topology)
                native_refinements += probe.hits.get("refinement", 0) \
                    - before
                with python_path():
                    pctx, pure = _search_key(state, topology)
                assert (native.h, native.full) == (pure.h, pure.full)
                assert ctx.full_computations == pctx.full_computations
                if topology is not None and pctx.full_computations and \
                        len(pctx._auto_orderings) > 1:
                    probe.hit("automorphisms")
                compared += 1
        assert compared > 150
        assert native_refinements > 0
        for branch in ("distinct weights", "symmetric cell",
                       "capped enumeration", "refinement", "automorphisms"):
            assert probe.hits.get(branch, 0) > 0, (branch, probe.hits)

    def test_u2_level_and_u2_tier_bit_identical(self):
        """U2-level keys, and PU2 keys served by the U(2)-class tier, are
        the twin's; the tier's counters move the same way."""
        states = _coverage_states()[:40]
        for level in (CanonLevel.U2, CanonLevel.PU2):
            native_ctx = CanonContext(level, SEARCH_TIE_CAP, SEARCH_PERM_CAP,
                                      cache_cap=1 << 12)
            pool = StatePool()
            native = [native_ctx.key(pool.from_qstate(s)) for s in states]
            native += [native_ctx.key(pool.from_qstate(s.apply_x(0)))
                       for s in states]
            with python_path():
                pure_ctx = CanonContext(level, SEARCH_TIE_CAP,
                                        SEARCH_PERM_CAP, cache_cap=1 << 12)
                pool = StatePool()
                pure = [pure_ctx.key(pool.from_qstate(s)) for s in states]
                pure += [pure_ctx.key(pool.from_qstate(s.apply_x(0)))
                         for s in states]
            assert [(k.h, k.full) for k in native] == \
                [(k.h, k.full) for k in pure]
            for tier in ("memo", "u2_cache"):
                a, b = getattr(native_ctx, tier), getattr(pure_ctx, tier)
                assert (a.hits, a.misses) == (b.hits, b.misses), tier
            assert native_ctx.full_computations == pure_ctx.full_computations

    def test_timed_keys_report_hashing(self):
        ctx = CanonContext(CanonLevel.PU2, SEARCH_TIE_CAP, SEARCH_PERM_CAP,
                           cache_cap=8)
        ctx.timers = {}
        ctx.key(StatePool().from_qstate(dicke_state(5, 2)))
        assert ctx.timers["hashing"] > 0.0


# ----------------------------------------------------------------------
# The sparse reduction's native steps
# ----------------------------------------------------------------------

def _sparse_case(seed: int, max_n: int = 62) -> QState:
    """A random sparse state: n = 2..max_n, m = 2..min(4n, 2**n) indices,
    uniform or Gaussian amplitudes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_n + 1))
    m = int(rng.integers(2, min(4 * n, 1 << n) + 1))
    idx: set[int] = set()
    while len(idx) < m:
        idx.add(int(rng.integers(0, 1 << n)))
    if rng.random() < 0.4:
        amps = np.ones(m)
    else:
        amps = rng.standard_normal(m)
    return QState(n, {i: float(a) for i, a in zip(sorted(idx), amps)})


def _step_bits(moves, after) -> tuple:
    """Moves with their angles' bit patterns, and the state's entries."""
    return ([(m, m.theta.hex()) if isinstance(m, MergeMove) else (m, None)
             for m in moves],
            [(i, a.hex()) for i, a in as_qstate(after).items()])


@needs_fastcore
class TestNativeReduction:
    """``_fastcore.gh_step`` against ``mflow._merge_step`` and
    ``_fastcore.best_merge`` against ``reduction._best_multi_merge``:
    the same moves, angles bit for bit, and the same merged entries."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_gh_step_equals_merge_step(self, seed):
        state = _sparse_case(seed)
        for minimize in (False, True):
            native = _gh_step(carry(state), minimize)
            assert isinstance(native[1], PackedSparse)
            assert _step_bits(*native) == \
                _step_bits(*_merge_step(state, minimize))

    @pytest.mark.parametrize("n", [2, 3, 8, 20, 62])
    @pytest.mark.parametrize("minimize", [False, True])
    def test_gh_step_on_pairs_and_one_index_splits(self, n, minimize):
        """Two-index sets (no literal), one-hot sets and their complements
        (every column splits one index off)."""
        full = (1 << n) - 1
        one_hot = [1 << (n - 1 - q) for q in range(n)]
        cases = [[0, full], [1, 2], [0, one_hot[0]], one_hot,
                 [0] + one_hot[1:], [full ^ i for i in one_hot]]
        for indices in cases:
            amps = np.linspace(0.5, 1.5, len(indices))
            state = QState(n, {i: float(a) for i, a in
                               zip(sorted(set(indices)), amps)})
            assert _step_bits(*_gh_step(carry(state), minimize)) == \
                _step_bits(*_merge_step(state, minimize))

    @pytest.mark.parametrize("indices", [[5, 5, 5], [0, 0, 0, 0], [3, 3],
                                         [3]])
    def test_gh_step_identical_indices_error(self, indices):
        """Index sets ``dif_qubits`` cannot split raise its error."""
        idx = np.array(indices, dtype=np.int64)
        amp = np.full(len(indices), 1.0 / np.sqrt(len(indices)))
        with pytest.raises(SynthesisError):
            fastcore.active.gh_step(4, idx, amp, True)
        if len(set(indices)) == 1 and len(indices) > 2:
            with pytest.raises(SynthesisError):
                dif_qubits(indices, 4)

    def test_gh_step_keeps_qstate_checks(self):
        idx = np.array([1, 6], dtype=np.int64)
        with pytest.raises(NormalizationError):
            fastcore.active.gh_step(3, idx, np.array([1.0, 1.0]), False)

    @pytest.mark.parametrize("step", ["gh_step", "best_merge"])
    def test_rejects_malformed_arrays(self, step):
        """Only ascending int64 indices with float64 amplitudes of the
        same length reach the native loops."""
        call = getattr(fastcore.active, step)
        amp = np.array([0.6, 0.8])
        for idx, amps, error in (
                (np.array([3, 1]), amp, ValueError),
                (np.array([1, 3]), amp[:1], ValueError),
                (np.array([1, 3], dtype=np.int32), amp, TypeError),
                (np.array([1, 3]), amp.astype(np.float32), TypeError),
                ([1, 3], amp, TypeError)):
            with pytest.raises(error):
                call(4, idx, amps, 1)
        with pytest.raises(ValueError):
            call(63, np.array([1, 3]), amp, 1)

    @staticmethod
    def _assert_best_merges_equal(state: QState, caps) -> None:
        for cap in caps:
            config = ReductionConfig(max_merge_controls=cap)
            native = _best_merge(carry(state), config)
            with python_path():
                pure = _best_multi_merge(state, config)
            if pure is None:
                assert native is None
                continue
            assert native is not None
            assert native[1] == pure[1]
            assert _step_bits([native[0]], native[2]) == \
                _step_bits([pure[0]], pure[2])

    @given(st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_best_merge_equals_python_scoring(self, seed):
        state = _sparse_case(seed, max_n=20)
        self._assert_best_merges_equal(
            state, [0, 1, 2] + ([None] if state.num_qubits <= 8 else []))

    @pytest.mark.parametrize("m", [1, 2, SHORT_SORT, SHORT_SORT + 1,
                                   SHORT_SORT + 2])
    def test_best_merge_rows_around_the_sort_cut(self, m):
        """Merged rows shorter than, at and just above the insertion-sort
        cut come out as the twin's."""
        rng = np.random.default_rng(m)
        for trial in range(6):
            idx = rng.choice(1 << 7, size=m, replace=False)
            amps = rng.standard_normal(m) if trial % 2 else np.ones(m)
            self._assert_best_merges_equal(
                QState(7, {int(i): float(a) for i, a in zip(idx, amps)}),
                (0, 1, 2))

    def test_best_merge_on_free_and_absent_merges(self):
        """|+++> folds four pairs for free; a two-index state whose pair
        differs on two qubits has no merge."""
        plus = QState.uniform(3, list(range(8)))
        move, drop, merged = _best_merge(carry(plus), ReductionConfig())
        assert (move.cost, drop, merged.cardinality) == (0, 4, 4)
        assert _best_merge(carry(QState.uniform(3, [0, 3])),
                           ReductionConfig()) is None

    def test_tolerances_match_python(self):
        """The reduction's compiled-in ATOL and merge-ratio tolerance are
        the library's (parsed from the source, like the splitmix header)."""
        source = (SRC_ROOT / "repro" / "core" / "_fastcore.c").read_text()
        defines = dict(re.findall(
            r"#define\s+(REDUCE_\w+)\s+([0-9.eE+-]+)", source))
        assert float(defines["REDUCE_ATOL"]) == ATOL
        assert float(defines["REDUCE_RTOL"]) == MERGE_RATIO_RTOL


# ----------------------------------------------------------------------
# A*'s open list: the native one against its Python twin
# ----------------------------------------------------------------------

def _open_list(pool, n: int, weight, native: bool):
    """A fresh open list over ``pool`` with a fresh PU2 class tier: the
    native one or the twin."""
    canon = kernel.CanonContext(CanonLevel.PU2, SEARCH_TIE_CAP,
                                SEARCH_PERM_CAP, cache_cap=1 << 12)
    if native:
        return kernel.native_open_list(pool, n, weight, canon)
    return astar._OpenList(pool, weight, canon)


def _entry_view(entry) -> tuple:
    """An open-list entry with its state as a payload, so the twin's heap
    tuples and the native ``entries()`` rows compare directly."""
    f, neg_g, tie, u, state, prev, move = entry
    payload = state if isinstance(state, bytes) else state.payload
    return (f, type(f), neg_g, type(neg_g), tie, u, type(u), payload,
            None if prev is None else prev.payload, move)


def _open_views(open_list) -> tuple[list, list]:
    """Either twin's entries in heap order, and its exact-state tier in
    insertion order as ``(payload, g, cached entangled set)``."""
    if isinstance(open_list, astar._OpenList):
        entries = open_list.heap
        pushed = [(s.payload, g, s._entangled)
                  for s, g in open_list.g_pushed.items()]
    else:
        entries = open_list.entries()
        pushed = open_list.pushed()
    return [_entry_view(e) for e in entries], pushed


def _push_rounds(state: QState, h_kind: str, ub, weight, native: bool,
                 rounds: int = 4):
    """A few A*-style rounds on a fresh pool: pop the best entry and
    expand it, through the native open list or, on the Python path, its
    twin; returns the open list and the summed counters ``(pruned,
    incumbent_prunes, generated, pruned at pop)``."""
    with nullcontext() if native else python_path():
        pool = StatePool()
        start = pool.from_qstate(state)
        if h_kind == "default":
            h_of = None
        elif h_kind == "coupling":
            h_of = _make_h_of(
                CouplingHeuristic(CouplingMap.line(state.num_qubits)), None)
        else:  # an int-valued heuristic
            h_of = lambda ps: len(kernel.entangled_qubits_packed(ps))  # noqa
        open_list = _open_list(pool, state.num_qubits, weight, native)
        assert open_list.start(start, 0.0, ub)
        totals = [0, 0, 0, 0]
        for _ in range(rounds):
            g, _, ps, _, _, goal, popped, *_ = open_list.pop(ub)
            totals[3] += popped
            if ps is None or goal:
                break
            deltas = open_list.expand(ps, g, ub, h_of)
            totals[:3] = [a + b for a, b in zip(totals, deltas)]
    return open_list, totals


@pytest.mark.parametrize("native", [
    pytest.param(True, marks=needs_fastcore), False], ids=["native", "python"])
def test_equal_f_pops_deepest_first(native):
    """Both twins order entries as ``(f, -g, ...)``: emptying the open
    list pops every f-layer deepest entry first, depth ties in push
    order.  At weight 2 an entry's depth is ``2 * (g + h) - f``, read
    from its other slots."""
    open_list, _ = _push_rounds(w_state(5), "default", None, 2.0, native)
    heap = list(open_list.entries() if native else open_list.heap)
    popped = [heapq.heappop(heap) for _ in range(len(heap))]
    order = [(f, 2 * u - f, tie) for f, _, tie, u, *_ in popped]
    assert [-neg_g for _, neg_g, *_ in popped] == [g for _, g, _ in order]
    assert order == sorted(order, key=lambda e: (e[0], -e[1], e[2]))
    # some f-layer holds entries of different depths
    assert any(f1 == f2 and g1 > g2 for (f1, g1, _), (f2, g2, _)
               in zip(order, order[1:]))


@needs_fastcore
class TestNativeChildPush:
    @given(st.integers(0, 3000), st.sampled_from([1.0, 2.0, 2]),
           st.sampled_from([None, 2, 3, 5]),
           st.sampled_from(["default", "coupling", "int"]))
    @settings(max_examples=120, deadline=None)
    def test_matches_python_twin(self, seed, weight, ub, h_kind):
        """Same entries in the same heap order, the same exact-state tier
        (and its insertion order), the same counters, and the same
        entangled sets cached on the children."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 6))
        state = _dense_state(rng, n) if rng.random() < 0.7 else \
            random_state(seed)
        nlist, ncount = _push_rounds(state, h_kind, ub, weight, True)
        plist, pcount = _push_rounds(state, h_kind, ub, weight, False)
        assert ncount == pcount
        nentries, npushed = _open_views(nlist)
        pentries, ppushed = _open_views(plist)
        assert nentries == pentries
        assert [(p, g) for p, g, _ in npushed] == \
            [(p, g) for p, g, _ in ppushed]
        assert [e for _, _, e in npushed] == [e for _, _, e in ppushed]
        # the entries are C structs of an object the collector never
        # tracks, and the moves they hand out are untracked too
        assert not gc.is_tracked(nlist)
        assert not any(gc.is_tracked(e[6]) for e in nlist.entries())
        assert len(nlist) == len(plist.heap)

    @pytest.mark.parametrize("weight", [1.0, 2.0])
    @pytest.mark.parametrize("incumbent", [None, 7])
    def test_budgeted_run_identical(self, weight, incumbent):
        """A node-budgeted A* run stops with the same proven lower bound
        and the same counters either way."""
        target = _dense_state(np.random.default_rng(5), 5)
        config = SearchConfig(max_nodes=300, weight=weight)

        def run():
            with pytest.raises(SearchBudgetExceeded) as info:
                astar_search(target, config, incumbent=incumbent)
            stats = info.value.stats
            return (info.value.lower_bound, stats.nodes_expanded,
                    stats.nodes_generated, stats.nodes_pruned,
                    stats.incumbent_prunes, stats.max_queue)

        native = run()
        with python_path():
            pure = run()
        assert native == pure
        if incumbent is not None:
            assert native[4] > 0  # the incumbent prune fired

    @pytest.mark.parametrize("weight", [1.0, 2.0])
    def test_paused_open_list_identical(self, weight):
        """Mid-run, the open list, its exact-state tier and the counters
        agree."""
        target = dicke_state(5, 2)

        def paused():
            run = AStarRun(target, SearchConfig(max_nodes=5_000,
                                                weight=weight))
            run.step(60)
            entries, pushed = _open_views(
                run._gen.gi_frame.f_locals["open_list"])
            view = (entries, [(p, g) for p, g, _ in pushed],
                    run.stats.nodes_generated, run.stats.nodes_pruned,
                    run.stats.max_queue)
            run.cancel()
            return view

        native = paused()
        with python_path():
            pure = paused()
        assert native == pure


def _moves_bits(moves) -> list:
    return [(m, m.theta.hex()) if isinstance(m, MergeMove) else (m, None)
            for m in moves]


def _drive(run, slice_size: int = 1 << 20, inject=None) -> None:
    """Step the run to its end (``inject`` goes to ``inject_incumbent``
    after the second slice)."""
    slices = 0
    while not run.step(slice_size).terminal:
        slices += 1
        if slices == 2 and inject is not None:
            run.inject_incumbent(inject)


def _view(run) -> tuple:
    """Everything the two open lists must agree on, of an ended run."""
    if run.status is RunStatus.SOLVED:
        result = run.result()
        outcome = (result.cnot_cost, result.optimal,
                   _moves_bits(result.moves))
    else:
        outcome = (type(run.error).__name__, run.error.lower_bound)
    stats = run.stats
    return (run.status, outcome, stats.nodes_expanded,
            stats.nodes_generated, stats.nodes_pruned,
            stats.incumbent_prunes, stats.bnb_transposition_prunes,
            stats.max_queue)


def _store_view(store) -> tuple:
    """A canonical-key store: its rows in insertion order (payload, key
    and the entry's hit count), its spill and its counters."""
    rows = [(payload, key.n, key.h, key.full, hits)
            for payload, key, hits in store._primary.values()]
    spill = [(payload, key.n, key.h, key.full)
             for payload, key in store._spill.items()]
    return rows, spill, store.snapshot()


def _tier_view(run) -> tuple:
    """:func:`_view` plus the class tier: the run's memo lookups, its full
    key computations, its U(2)-class tier and its memo."""
    canon = run._ctx.canon_ctx
    u2 = canon.u2_cache
    return (_view(run), run.stats.canon_cache_hits,
            run.stats.canon_cache_misses, canon.hits, canon.misses,
            canon.full_computations,
            (u2.hits, u2.misses, u2.evictions,
             [(h, key.h, key.full) for h, key in u2.data.items()]),
            _store_view(canon.memo))


def _run_view(target: QState, config: SearchConfig, *, incumbent=None,
              heuristic=None, memory=None, slice_size: int = 1 << 20,
              inject=None, view=_tier_view) -> tuple:
    run = AStarRun(target, config, heuristic=heuristic, memory=memory,
                   incumbent=incumbent)
    _drive(run, slice_size, inject)
    return view(run)


def _both_ways(build) -> tuple:
    """``build()`` with the extension, then on the Python path."""
    native = build()
    with python_path():
        pure = build()
    return native, pure


@needs_fastcore
class TestNativeOpenList:
    """Whole A* runs on the native open list and on the Python twin:
    statuses, costs and move lists, every counter, the exhaustion bound
    and the class tier (the memo's entries, hit counts and counters, the
    U(2)-class tier and the full key computations) are equal."""

    @pytest.mark.parametrize("weight", [1.0, 2.0])
    @pytest.mark.parametrize("kind", ["none", "int", "result"])
    @pytest.mark.parametrize("budget", [150, 20_000])
    def test_incumbents_and_weights(self, weight, kind, budget):
        for seed in (0, 1):
            target = _dense_state(np.random.default_rng(seed), 4)
            config = SearchConfig(max_nodes=budget, weight=weight)
            incumbent = None
            if kind == "int":
                incumbent = 9
            elif kind == "result":
                incumbent = astar_search(target, SearchConfig(weight=3.0))
            native, pure = _both_ways(
                lambda: _run_view(target, config, incumbent=incumbent))
            assert native == pure
            if kind != "none":
                assert native[0][5] > 0  # incumbent prunes

    @pytest.mark.parametrize("weight", [1.0, 2.0])
    def test_injected_between_slices(self, weight):
        target = dicke_state(5, 2)
        config = SearchConfig(max_nodes=3_000, weight=weight)
        native, pure = _both_ways(lambda: _run_view(
            target, config, slice_size=25, inject=9))
        assert native == pure
        assert native[0][5] > 0  # incumbent prunes

    def test_line_topology_and_int_heuristic(self):
        """The coupling bound and a custom heuristic are called back on a
        child interned before its callback."""
        target = _dense_state(np.random.default_rng(3), 4)
        line = SearchConfig(max_nodes=2_000,
                            topology=CouplingMap.line(4))
        native, pure = _both_ways(lambda: _run_view(target, line))
        assert native == pure
        custom = SearchConfig(max_nodes=400)
        int_h = lambda qs: int(entanglement_heuristic(qs))  # noqa: E731
        native, pure = _both_ways(lambda: _run_view(
            target, custom, heuristic=int_h, incumbent=11))
        assert native == pure

    def test_attached_memory_prunes_by_transposition(self):
        from repro.core.beam import BeamConfig, beam_search
        from repro.core.idastar import idastar_search
        from repro.states.random_states import random_uniform_state

        def build(seed):
            state = random_uniform_state(3, 4, seed=seed)
            memory = SearchMemory()
            idastar_search(state, memory=memory)
            incumbent = beam_search(state, BeamConfig(width=64),
                                    memory=memory)
            return _run_view(state, SearchConfig(max_nodes=120_000),
                             memory=memory, incumbent=incumbent)

        views = [_both_ways(lambda: build(seed)) for seed in range(6)]
        for native, pure in views:
            assert native == pure
        assert sum(native[0][6] for native, _ in views) > 0  # bnb prunes

    def test_patched_hash_interns_each_popped_state_once(self, monkeypatch):
        """With ``state_hash64`` forced to a constant the exact-state tier
        still keys by payload, so the run is the unpatched one, and the
        pool holds the start and the expanded states, each exactly once,
        in its one collision chain: a popped child its class prunes is
        never interned."""
        target = _dense_state(np.random.default_rng(7), 4)
        config = SearchConfig(max_nodes=120)
        reference = _run_view(target, config, view=_view)
        monkeypatch.setattr(kernel, "state_hash64", lambda payload: 42)
        run = AStarRun(target, config)
        run.step(config.max_nodes)
        expanded = list(run._gen.gi_frame.f_locals["parent"])
        pool = run._ctx.pool
        chain = pool._table[42]
        assert list(pool._table) == [42]
        assert len({s.payload for s in chain}) == len(chain) == pool.interned
        assert pool.hash_collisions == pool.interned - 1
        assert len(expanded) > 50
        assert all(any(s is c for c in chain) for s in expanded)
        assert pool.interned == len(expanded) + 1
        assert run.stats.nodes_pruned > pool.interned
        _drive(run)
        assert _view(run) == reference

    @pytest.mark.parametrize("level", list(CanonLevel),
                             ids=lambda lv: lv.name)
    @pytest.mark.parametrize("cache_cap", [64, 1 << 16])
    def test_class_tier_levels_detached(self, level, cache_cap):
        """At every canonicalization level, a per-run memo that evicts
        (and a U(2)-class tier that evicts) or holds every key."""
        for seed in (0, 1):
            target = _dense_state(np.random.default_rng(seed), 4)
            config = SearchConfig(max_nodes=1_500, canon_level=level,
                                  cache_cap=cache_cap)
            native, pure = _both_ways(lambda: _run_view(target, config))
            assert native == pure
            store = native[-1][2]
            assert (store["evictions"] > 0) == (cache_cap == 64)
            if level is CanonLevel.PU2:
                assert native[5] > 0  # full key computations
                assert (native[6][2] > 0) == (cache_cap == 64)

    @pytest.mark.parametrize("level", list(CanonLevel),
                             ids=lambda lv: lv.name)
    def test_attached_memory_warm_run(self, level):
        """On an attached memory the store is the memory's canon_store: a
        warm second run of the same search finds every key in it and
        bumps the entries' hit counts the same way."""
        target = _dense_state(np.random.default_rng(2), 4)
        config = SearchConfig(max_nodes=800, canon_level=level)

        def build():
            memory = SearchMemory()
            cold = _run_view(target, config, memory=memory)
            warm = _run_view(target, config, memory=memory)
            return cold, warm, _store_view(memory.canon_store)

        native, pure = _both_ways(build)
        assert native == pure
        cold, warm, _ = native
        assert cold[2] > 0 and warm[2] == 0  # canon_cache_misses
        assert warm[1] == cold[1] + cold[2]
        assert warm[0] == cold[0]

    def test_attached_store_sweeps_mid_run(self):
        """A canon store capped below one run's keys runs its hit-weighted
        eviction sweep mid-run (through ``HashStore.put``)."""
        target = _dense_state(np.random.default_rng(4), 4)
        config = SearchConfig(max_nodes=1_500)

        def build():
            memory = SearchMemory(store_cap=96)
            first = _run_view(target, config, memory=memory)
            second = _run_view(target, config, memory=memory)
            return first, second

        native, pure = _both_ways(build)
        assert native == pure
        assert native[0][-1][2]["evictions"] > 0

    def test_constant_hash_spills(self, monkeypatch):
        """At ``CanonLevel.NONE`` a class key's hash is its state's, so with
        ``state_hash64`` forced to a constant every key collides: best_g
        and the memo serve all but one class from their spills, and the
        run is the unpatched one."""
        target = _dense_state(np.random.default_rng(5), 4)
        config = SearchConfig(max_nodes=300, canon_level=CanonLevel.NONE)
        reference = _run_view(target, config, view=_view)
        maps: list = []

        class RecordedMap(HashKeyedMap):
            __slots__ = ()

            def __init__(self):
                super().__init__()
                maps.append(self)

        monkeypatch.setattr(kernel, "HashKeyedMap", RecordedMap)
        monkeypatch.setattr(astar, "HashKeyedMap", RecordedMap)
        monkeypatch.setattr(kernel, "state_hash64", lambda payload: 42)

        def build():
            view = _run_view(target, config)
            best_g = maps[-1]
            return view, len(best_g), best_g.collisions

        native, pure = _both_ways(build)
        assert native == pure
        view, classes, collisions = native
        assert view[0] == reference
        assert collisions == classes - 1 > 50
        rows, spill, counters = view[-1]
        assert len(rows) == 1 and len(spill) > 50
        assert counters["collisions"] == len(spill)

    @pytest.mark.parametrize("level", [CanonLevel.U2, CanonLevel.PU2],
                             ids=lambda lv: lv.name)
    def test_line_topology_class_tier(self, level):
        """On a line the PU2 key ranges over the coupling automorphisms
        and the coupling bound is called back; the class tier is the
        twin's, detached and on a memory."""
        target = _dense_state(np.random.default_rng(6), 4)
        config = SearchConfig(max_nodes=1_000, canon_level=level,
                              topology=CouplingMap.line(4), cache_cap=128)
        native, pure = _both_ways(lambda: _run_view(target, config))
        assert native == pure
        native, pure = _both_ways(lambda: _run_view(
            target, config, memory=SearchMemory()))
        assert native == pure

    def test_profile_keeps_counts_and_phases(self):
        """Under ``profile=True`` the run counts the same, and A* books its
        four phases, and the pop's orbit hashing under ``hashing``."""
        target = _dense_state(np.random.default_rng(8), 4)
        plain = SearchConfig(max_nodes=600)
        timed = SearchConfig(max_nodes=600, profile=True)

        def build():
            run = AStarRun(target, timed)
            _drive(run)
            return _tier_view(run), dict(run.stats.phase_seconds)

        reference = _run_view(target, plain)
        (native, nphases), (pure, pphases) = _both_ways(build)
        assert native == pure == reference
        for phases in (nphases, pphases):
            assert {"enumeration", "canonicalization", "heuristic",
                    "containers", "hashing"} <= set(phases)
            assert phases["canonicalization"] > 0
            assert 0 < phases["hashing"] <= phases["canonicalization"]

    def test_cancel_releases_every_state(self):
        """A run cancelled mid-search holds no state once its memory's
        pool rotates: the open list releases the states it interned, the
        parents its entries hold and the moves it built."""
        memory = SearchMemory(pool_rotate_cap=1)
        target = dicke_state(5, 2)
        run = AStarRun(target, SearchConfig(max_nodes=5_000), memory=memory)
        run.step(80)
        assert not run.status.terminal
        first_pool = memory.pool
        open_list = run._gen.gi_frame.f_locals["open_list"]
        assert len(open_list) > 100
        refs = [weakref.ref(s.idx) for entry in first_pool._table.values()
                for s in (entry if isinstance(entry, list) else [entry])]
        assert len(refs) > 50
        run.cancel()
        del run, open_list, first_pool
        astar_search(ghz_state(3), SearchConfig(max_nodes=2_000),
                     memory=memory)
        assert memory.pool_rotations >= 1
        gc.collect()
        assert sum(r() is not None for r in refs) == 0


# ----------------------------------------------------------------------
# The one-call native expansion
# ----------------------------------------------------------------------

def _expansion_case(seed: int):
    """A random packed state (n <= 8) with a random move-set option mix:
    merge-control cap 0..n-1 or None, topology None / line / ring, and
    X moves on or off."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, min(12, 1 << n) + 1))
    idx = rng.choice(1 << n, size=m, replace=False)
    amps = np.ones(m) if rng.random() < 0.3 else rng.standard_normal(m)
    state = QState(n, {int(i): float(a) for i, a in zip(idx, amps)})
    cap = None if rng.random() < 0.2 else int(rng.integers(0, n))
    kind = ("full", "line", "ring")[int(rng.integers(0, 3))]
    topology = None
    if kind == "line" or (kind == "ring" and n < 3):
        topology = CouplingMap.line(n)
    elif kind == "ring":
        topology = CouplingMap.ring(n)
    return state, cap, topology, bool(rng.integers(0, 2))


def _expand_twice(state, cap, topology, x_moves):
    """Expand the state, then its last child (whose children meet the
    pool's earlier states); returns the pool, the start state and the
    concatenated arcs."""
    pool = StatePool()
    start = pool.from_qstate(state)
    arcs = successors_packed(pool, start, cap, x_moves, topology)
    if arcs:
        arcs = arcs + successors_packed(pool, arcs[-1][1], cap, x_moves,
                                        topology)
    return pool, start, arcs


def _identity_pattern(states) -> list[int]:
    """Each object's first position in ``states`` (interned identity)."""
    first: dict[int, int] = {}
    return [first.setdefault(id(s), i) for i, s in enumerate(states)]


@needs_fastcore
class TestNativeExpansion:
    @staticmethod
    def _assert_expansions_equal(state, cap, topology, x_moves) -> list:
        """Same arcs in the same order, bit-identical children, the same
        interned identities and the same pool counters; returns the
        native arcs."""
        npool, nstart, native = _expand_twice(state, cap, topology, x_moves)
        with python_path():
            ppool, pstart, pure = _expand_twice(state, cap, topology,
                                                x_moves)
        assert [mv for mv, _ in native] == [mv for mv, _ in pure]
        for (_, a), (_, b) in zip(native, pure):
            assert_states_bit_identical(a, b)
            assert a.hash64 == b.hash64
        assert _identity_pattern([nstart] + [s for _, s in native]) == \
            _identity_pattern([pstart] + [s for _, s in pure])
        assert (npool.interned, npool.hits, npool.hash_collisions) == \
            (ppool.interned, ppool.hits, ppool.hash_collisions)
        return native

    @given(st.integers(0, 5000))
    @settings(max_examples=150, deadline=None)
    def test_matches_python_twin(self, seed):
        self._assert_expansions_equal(*_expansion_case(seed))

    @pytest.mark.parametrize("m", [1, 2, SHORT_SORT, SHORT_SORT + 1,
                                   SHORT_SORT + 2])
    def test_rows_around_the_sort_cut(self, m):
        """X and CX children of an m-entry state are rows of m entries,
        its merge children a little shorter: at, below and above the
        insertion-sort cut the arcs are the twin's."""
        rng = np.random.default_rng(m)
        for trial in range(3):
            idx = rng.choice(1 << 6, size=m, replace=False)
            amps = rng.standard_normal(m) if trial else np.ones(m)
            state = QState(6, {int(i): float(a) for i, a in zip(idx, amps)})
            native = self._assert_expansions_equal(state, 2, None, True)
            assert m in {child.m for _, child in native}

    @pytest.mark.parametrize("name", ["ghz4", "w4", "dicke42", "random5"])
    def test_patched_hash_interns_each_state_once(self, monkeypatch, name):
        """With ``state_hash64`` forced to a constant, the native call
        must hash through the patched function: every state lands in the
        one collision chain exactly once."""
        state = {"ghz4": ghz_state(4), "w4": w_state(4),
                 "dicke42": dicke_state(4, 2),
                 "random5": random_state(17)}[name]
        monkeypatch.setattr(kernel, "state_hash64", lambda payload: 42)
        pool, start, arcs = _expand_twice(state, None, None, True)
        chain = pool._table[42]
        assert list(pool._table) == [42]
        payloads = [s.payload for s in chain]
        assert len(set(payloads)) == len(chain) == pool.interned
        assert pool.hash_collisions == pool.interned - 1
        by_payload = {s.payload: s for s in chain}
        for _, child in arcs:
            assert child.hash64 == 42
            assert child is by_payload[child.payload]
        with python_path():
            ppool, _, _ = _expand_twice(state, None, None, True)
        assert (pool.interned, pool.hits, pool.hash_collisions) == \
            (ppool.interned, ppool.hits, ppool.hash_collisions)


def _suspended_astar_objects(monkeypatch) -> dict[str, list]:
    """One object list per kind the extension untracks, from an A* run
    paused mid-search on a fresh memory and fresh move memos."""
    monkeypatch.setattr(kernel, "_CX_MOVES_MEMO", {})
    monkeypatch.setattr(kernel, "_X_MOVES_MEMO", {})
    memory = SearchMemory()
    run = AStarRun(dicke_state(5, 2), SearchConfig(max_nodes=5_000),
                   memory=memory)
    run.step(40)
    frame = run._gen.gi_frame.f_locals
    open_list = frame["open_list"]
    states = [s for entry in memory.pool._table.values()
              for s in (entry if isinstance(entry, list) else [entry])]
    rows = list(memory.canon_store._primary.values())
    moves = [move for _, move in frame["parent"].values()]
    kinds = {
        "PackedState": states,
        "_counts": [s._counts for s in states if s._counts is not None],
        "MergeMove": [mv for mv in moves if isinstance(mv, MergeMove)],
        "CXMove": [mv for entry in kernel._CX_MOVES_MEMO.values()
                   for mv in entry[0]],
        "CanonKey": [row[1] for row in rows],
        "HashStore row": rows,
        "open list": [open_list],
    }
    if isinstance(open_list, astar._OpenList):
        kinds["open-list entry"] = list(open_list.heap)
    run.cancel()
    for kind, objs in kinds.items():
        assert objs, kind
    return kinds


class TestCyclicCollectorUntracking:
    @needs_fastcore
    def test_native_objects_are_untracked(self, monkeypatch):
        for kind, objs in _suspended_astar_objects(monkeypatch).items():
            assert not any(gc.is_tracked(o) for o in objs), kind

    def test_python_path_keeps_full_tracking(self, monkeypatch):
        if HAVE_FASTCORE:
            with python_path():
                kinds = _suspended_astar_objects(monkeypatch)
        else:
            kinds = _suspended_astar_objects(monkeypatch)
        for kind, objs in kinds.items():
            assert all(gc.is_tracked(o) for o in objs), kind

    def test_rotated_pool_frees_its_states(self):
        """Untracked states are still freed: once the memory rotates its
        pool, nothing keeps the first search's states alive.  (With the
        extension the pool holds the expanded states and the goal: W_5
        expands about 200.)"""
        memory = SearchMemory(pool_rotate_cap=1)
        result = astar_search(w_state(5), SearchConfig(max_nodes=2_000),
                              memory=memory)
        assert result.optimal
        first_pool = memory.pool
        start = first_pool.from_qstate(w_state(5))
        refs = [weakref.ref(s.idx) for entry in first_pool._table.values()
                for s in (entry if isinstance(entry, list) else [entry])
                if s is not start]
        assert len(refs) > 50
        del start, first_pool, result
        astar_search(ghz_state(3), SearchConfig(max_nodes=2_000),
                     memory=memory)
        assert memory.pool_rotations >= 1
        gc.collect()
        assert sum(r() is not None for r in refs) == 0


# ----------------------------------------------------------------------
# U64Map container semantics
# ----------------------------------------------------------------------

@needs_fastcore
class TestU64Map:
    def test_dict_semantics_random_ops(self):
        rng = np.random.default_rng(0)
        native = fastcore.active.U64Map()
        ref: dict[int, int] = {}
        keys = [int(k) for k in rng.integers(0, 2 ** 63, size=200)]
        keys += [0, 1, 2 ** 64 - 1, 2 ** 63, 2 ** 63 - 1]
        for step in range(4000):
            key = keys[int(rng.integers(0, len(keys)))]
            op = int(rng.integers(0, 10))
            if op < 6:
                native[key] = step
                ref[key] = step
            elif op < 8:
                assert native.get(key, -1) == ref.get(key, -1)
                assert (key in native) == (key in ref)
            elif key in ref:
                del native[key]
                del ref[key]
            assert len(native) == len(ref)
        assert list(native.items()) == list(ref.items())  # insertion order
        assert list(native.keys()) == list(ref.keys())
        assert list(native.values()) == list(ref.values())

    def test_missing_key_raises(self):
        native = fastcore.active.U64Map()
        with pytest.raises(KeyError):
            native[123]
        with pytest.raises(KeyError):
            del native[123]

    def test_low64_mask_aliasing_is_explicit(self):
        """Keys are compared by their low 64 bits (documented contract:
        every map instance is fed a single-sourced 64-bit key space)."""
        native = fastcore.active.U64Map()
        native[-1] = "neg"
        assert native[2 ** 64 - 1] == "neg"
        assert len(native) == 1


# ----------------------------------------------------------------------
# Always-on source-level tests (no extension required)
# ----------------------------------------------------------------------

class TestSplitmixSingleSource:
    def test_header_matches_python_table(self):
        """Parse ``_splitmix.h`` and compare with ``splitmix.py`` so the C
        and Python copies of the constants cannot drift independently."""
        header = (SRC_ROOT / "repro" / "core" / "_splitmix.h").read_text()
        macros = dict(
            (name, int(value, 16))
            for name, value in re.findall(
                r"#define\s+SM_(\w+)\s+0[xX]([0-9A-Fa-f]+)ULL", header)
        )
        assert macros == SPLITMIX_CONSTANTS

    def test_kernel_uses_shared_constants(self):
        from repro.core import splitmix

        assert kernel.GOLDEN is splitmix.GOLDEN
        assert kernel.MIX_A1 is splitmix.MIX_A1
        assert kernel.ORBIT_MUL is splitmix.ORBIT_MUL


class TestHashKeyedMapCollisions:
    def test_counts_distinct_spilled_keys_once(self):
        """Regression for the collision double-count: re-putting an
        already-spilled key is an update, not a new collision."""
        table = HashKeyedMap()
        k1 = CanonKey(3, 5, ("a",))
        k2 = CanonKey(3, 5, ("b",))
        k3 = CanonKey(3, 5, ("c",))
        table.put(k1, 1)
        assert table.collisions == 0
        table.put(k2, 2)
        assert table.collisions == 1
        table.put(k2, 20)  # update of a spilled key: not a new collision
        assert table.collisions == 1
        assert table.get(k2) == 20
        table.put(k3, 3)
        assert table.collisions == 2
        assert len(table) == 3
        assert [table.get(k) for k in (k1, k2, k3)] == [1, 20, 3]


class TestFallbackSelection:
    def test_env_var_disables_extension_in_fresh_process(self):
        """``REPRO_NO_FASTCORE=1`` must select the pure-Python path and the
        kernel must stay fully functional without the extension."""
        code = (
            "from repro.core import fastcore\n"
            "assert fastcore.active is None, fastcore.active\n"
            "assert not fastcore.available()\n"
            "from repro.core.astar import SearchConfig, astar_search\n"
            "from repro.states.families import w_state\n"
            "res = astar_search(w_state(3), SearchConfig(max_nodes=20000))\n"
            "assert res.cnot_cost == 4 and res.optimal\n"
            "print('fallback-ok')\n"
        )
        env = dict(os.environ, REPRO_NO_FASTCORE="1",
                   PYTHONPATH=str(SRC_ROOT))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "fallback-ok" in proc.stdout

    def test_set_enabled_round_trip(self):
        before = fastcore.active
        try:
            assert fastcore.set_enabled(False) is False
            assert fastcore.active is None
            restored = fastcore.set_enabled(True)
            assert restored == (fastcore._module is not None)
        finally:
            fastcore.active = before
