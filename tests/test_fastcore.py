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
* a forced global 64-bit hash collision must stay harmless with the native
  ``U64Map`` containers active, exactly as with dicts;
* the one-call native expansion must reproduce the Python
  ``successors_packed`` (arcs, bytes, interned identities, pool counters)
  under every move-set option, and honour a patched ``state_hash64``;
* the acyclic kernel objects leave the cyclic collector only with the
  extension loaded, and untracked states are still freed;
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
import os
import re
import subprocess
import sys
import weakref
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernel as kernel
from repro.arch.topologies import CouplingMap
from repro.core import fastcore
from repro.core.astar import AStarRun, SearchConfig, astar_search
from repro.core.canonical import CanonLevel
from repro.core.memory import SearchMemory
from repro.core.moves import MergeMove
from repro.core.kernel import (
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
from repro.sim.verify import prepares_state
from repro.states.families import dicke_state, ghz_state, w_state
from repro.states.qstate import QState

HAVE_FASTCORE = fastcore.available()
needs_fastcore = pytest.mark.skipif(
    not HAVE_FASTCORE,
    reason="compiled _fastcore unavailable (no compiler / REPRO_NO_FASTCORE)",
)

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


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
    @given(st.integers(0, 5000))
    @settings(max_examples=150, deadline=None)
    def test_matches_python_twin(self, seed):
        """Same arcs in the same order, bit-identical children, the same
        interned identities and the same pool counters."""
        state, cap, topology, x_moves = _expansion_case(seed)
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
    heap = run._gen.gi_frame.f_locals["open_heap"]
    states = [s for entry in memory.pool._table.values()
              for s in (entry if isinstance(entry, list) else [entry])]
    rows = list(memory.canon_store._primary.values())
    moves = [entry[6] for entry in heap if entry[6] is not None]
    kinds = {
        "PackedState": states,
        "_counts": [s._counts for s in states if s._counts is not None],
        "MergeMove": [mv for mv in moves if isinstance(mv, MergeMove)],
        "CXMove": [mv for entry in kernel._CX_MOVES_MEMO.values()
                   for mv in entry[0]],
        "CanonKey": [row[1] for row in rows],
        "HashStore row": rows,
        "open-list entry": list(heap),
    }
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
        pool, nothing keeps the first search's states alive."""
        memory = SearchMemory(pool_rotate_cap=1)
        result = astar_search(w_state(4), SearchConfig(max_nodes=2_000),
                              memory=memory)
        assert result.optimal
        first_pool = memory.pool
        start = first_pool.from_qstate(w_state(4))
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
