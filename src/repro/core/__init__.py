"""Exact CNOT synthesis: the paper's shortest-path formulation.

Moves (:mod:`repro.core.moves`, :mod:`repro.core.transitions`) define the
state transition graph; :mod:`repro.core.canonical` compresses it;
:mod:`repro.core.kernel` is the packed-array engine the hot loops run on;
:mod:`repro.core.astar` solves it optimally; :mod:`repro.core.beam` provides
the anytime fallback when A* runs out of budget with no circuit in hand;
:class:`ExactSynthesizer` is the public entry point.
"""

from repro.core.astar import (
    AStarRun,
    SearchConfig,
    SearchResult,
    SearchStats,
    astar_search,
)
from repro.core.beam import BeamConfig, BeamRun, beam_search
from repro.core.engine import EngineContext, EngineRun, RunStatus
from repro.core.canonical import (
    CanonLevel,
    canonical_key,
    canonicalize,
    pin_separable_qubits,
    xflip_minimize,
)
from repro.core.enumeration import (
    CanonicalCountRow,
    canonical_count_table,
    count_canonical_uniform_states,
)
from repro.core.exact import ExactConfig, ExactSynthesizer, synthesize_exact
from repro.core.heuristic import (
    combined_heuristic,
    entanglement_heuristic,
    scaled_heuristic,
    schmidt_cut_heuristic,
    schmidt_rank,
    zero_heuristic,
)
from repro.core.idastar import IDAStarConfig, IDAStarRun, idastar_search
from repro.core.kernel import (
    BoundedCache,
    CanonKey,
    HashKeyedMap,
    PackedState,
    StatePool,
    canonical_key_packed,
    enumerate_cx_packed,
    enumerate_merges_packed,
    num_entangled_packed,
    successors_packed,
)
from repro.core.memory import HashStore, SearchMemory, TranspositionTable
from repro.core.moves import (
    CXMove,
    MergeMove,
    Move,
    XMove,
    apply_controlled_ry,
    merge_angle,
    moves_to_circuit,
    product_state_rotations,
)
from repro.core.transitions import enumerate_cx, enumerate_merges, successors

__all__ = [
    "SearchConfig",
    "SearchResult",
    "SearchStats",
    "astar_search",
    "AStarRun",
    "BeamConfig",
    "BeamRun",
    "beam_search",
    "EngineContext",
    "EngineRun",
    "RunStatus",
    "IDAStarRun",
    "CanonLevel",
    "canonical_key",
    "canonicalize",
    "pin_separable_qubits",
    "xflip_minimize",
    "CanonicalCountRow",
    "canonical_count_table",
    "count_canonical_uniform_states",
    "ExactConfig",
    "ExactSynthesizer",
    "synthesize_exact",
    "entanglement_heuristic",
    "scaled_heuristic",
    "zero_heuristic",
    "combined_heuristic",
    "schmidt_cut_heuristic",
    "schmidt_rank",
    "IDAStarConfig",
    "idastar_search",
    "HashStore",
    "SearchMemory",
    "TranspositionTable",
    "BoundedCache",
    "CanonKey",
    "HashKeyedMap",
    "PackedState",
    "StatePool",
    "canonical_key_packed",
    "enumerate_cx_packed",
    "enumerate_merges_packed",
    "num_entangled_packed",
    "successors_packed",
    "Move",
    "XMove",
    "CXMove",
    "MergeMove",
    "apply_controlled_ry",
    "merge_angle",
    "moves_to_circuit",
    "product_state_rotations",
    "enumerate_cx",
    "enumerate_merges",
    "successors",
]
