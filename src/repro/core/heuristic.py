"""Admissible distance estimation for the A* search (paper Sec. V-A).

``delta_hat(psi, |0>)`` must never overestimate the true remaining CNOT
cost.  The paper's bound: a qubit whose cofactors are not proportional is
entangled with the rest; single-qubit gates cannot change that, so every
entangled qubit must be touched by at least one CNOT on the way to the
(fully separable) ground state.  A CNOT touches two qubits, hence

    delta_hat(psi) = ceil(#entangled_qubits(psi) / 2).

For the 4-qubit GHZ state this gives 2 although the optimum is 3 — an
underestimate, exactly as the paper notes.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterable

import numpy as np

from repro.states.analysis import num_entangled_qubits
from repro.states.qstate import QState

__all__ = [
    "HeuristicFn",
    "entanglement_heuristic",
    "CouplingHeuristic",
    "default_heuristic",
    "zero_heuristic",
    "scaled_heuristic",
    "schmidt_rank",
    "schmidt_cut_heuristic",
    "combined_heuristic",
]

#: A heuristic maps a state to a lower bound on its CNOT distance to ground.
HeuristicFn = Callable[[QState], float]


def entanglement_heuristic(state: QState) -> float:
    """``ceil(k/2)`` over the ``k`` non-separable qubits (admissible)."""
    k = num_entangled_qubits(state)
    return float((k + 1) // 2)


class CouplingHeuristic:
    """Topology-aware admissible bound: ``k - maxmatching(G[E])``.

    The paper's argument gives every entangled qubit at least one incident
    CNOT on the way to the ground state.  On a device, every CNOT is an
    *edge of the coupling graph* — so the CNOTs incident to the entangled
    set ``E`` form an edge set of ``G`` covering ``E``, and any such cover
    has at least ``|E| - maxmatching(G[E])`` edges (Gallai-style: the
    within-``E`` cover edges covering ``W`` split into ``p`` components,
    needing ``|W| - p`` edges, and one disjoint matching edge per
    component gives ``p <= maxmatching``; the remaining ``|E| - |W|``
    vertices need one edge each).  Hence ``k - maxmatching(G[E])`` never
    exceeds the true remaining CNOT cost — admissible.  On the all-to-all
    map the induced subgraph is complete, the matching is ``floor(k/2)``,
    and the bound collapses to the paper's ``ceil(k/2)`` exactly; the
    sparser the coupling among entangled qubits (distance > 1 pairs), the
    further it rises above it.

    The maximum matching is exact (blossom, via networkx) — a *greedy*
    matching would under-count and silently overshoot the true cost.
    Values are memoized per entangled-qubit bitmask, so families of states
    sharing entangled supports pay the matching once.

    Instances compare (and hash) by the topology's canonical key, which is
    what lets :class:`repro.core.memory.SearchMemory` fingerprint them.
    """

    __slots__ = ("topology", "_matching")

    def __init__(self, topology):
        self.topology = topology
        self._matching: dict[int, int] = {}

    def matching_size(self, entangled: tuple[int, ...]) -> int:
        """Maximum matching of the induced coupling subgraph (memoized)."""
        key = 0
        for q in entangled:
            key |= 1 << q
        size = self._matching.get(key)
        if size is None:
            import networkx as nx

            sub = self.topology.graph.subgraph(entangled)
            size = len(nx.max_weight_matching(sub, maxcardinality=True))
            self._matching[key] = size
        return size

    def bound(self, entangled: tuple[int, ...]) -> float:
        return float(len(entangled) - self.matching_size(entangled))

    def __call__(self, state: QState) -> float:
        from repro.states.analysis import entangled_qubits

        return self.bound(tuple(entangled_qubits(state)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CouplingHeuristic):
            return NotImplemented
        return self.topology.canonical_key() == other.topology.canonical_key()

    def __hash__(self) -> int:
        return hash(self.topology)

    def __repr__(self) -> str:
        return f"CouplingHeuristic({self.topology!r})"


def default_heuristic(topology=None) -> HeuristicFn:
    """The engine-default heuristic for a (normalized) topology.

    One definition shared by every engine *and* the regime fingerprint, so
    a service pinning ``search_regime_dict(config)`` and an engine
    attaching with its resolved default can never disagree.  A device
    gets one :class:`CouplingHeuristic` (maps compare by canonical key),
    so its per-support matching memo outlives a run.
    """
    if topology is None:
        return entanglement_heuristic
    return _coupling_heuristic(topology)


@functools.lru_cache(maxsize=32)
def _coupling_heuristic(topology) -> CouplingHeuristic:
    return CouplingHeuristic(topology)


def zero_heuristic(state: QState) -> float:
    """Always 0 — degrades A* to Dijkstra.  Used for ablation benchmarks."""
    return 0.0


def scaled_heuristic(weight: float) -> HeuristicFn:
    """Weighted variant ``w * h`` for weighted-A* ablations.

    ``weight > 1`` loses the optimality guarantee but explores fewer nodes;
    the search result is flagged non-optimal accordingly.
    """
    if weight < 0:
        raise ValueError("heuristic weight must be non-negative")

    def h(state: QState) -> float:
        return weight * entanglement_heuristic(state)

    return h


# ----------------------------------------------------------------------
# Schmidt-rank cut bound (extension)
# ----------------------------------------------------------------------
#
# Across any bipartition (A, B), a CNOT can at most double the Schmidt
# rank, while local gates (Ry, X, and any move confined to one side) leave
# it unchanged.  The ground state has rank 1, so any preparation needs at
# least ceil(log2 rank) CNOTs *crossing that cut* — a second admissible
# lower bound, incomparable with the entangled-qubit count: for states
# with few but strongly entangled qubits the paper's bound wins, for
# high-rank states across a balanced cut this one does.  This also holds
# for the backward move set: an MCRy merge of cost 2**k lowers to 2**k
# CNOTs, each of which at most halves the rank on the way down.

#: Enumerate every bipartition exactly up to this many qubits.
_EXACT_CUT_QUBITS = 10


def schmidt_rank(state: QState, cut: Iterable[int]) -> int:
    """Schmidt rank of ``state`` across the bipartition ``(cut, rest)``.

    Thin wrapper over :func:`repro.states.analysis.schmidt_rank` adding
    the edge-case handling the cut enumerator relies on (empty/full cuts
    have rank 1; out-of-range cuts are rejected).
    """
    from repro.states.analysis import schmidt_rank as _analysis_rank

    n = state.num_qubits
    cut_set = sorted(set(cut))
    if not cut_set or len(cut_set) == n:
        return 1
    if any(q < 0 or q >= n for q in cut_set):
        raise ValueError(f"cut {cut_set} outside the {n}-qubit register")
    return _analysis_rank(state, cut_set)


def schmidt_cut_heuristic(state: QState,
                          max_random_cuts: int = 64,
                          seed: int = 0) -> float:
    """``max_cut ceil(log2 SchmidtRank)`` over a family of bipartitions.

    Every bipartition yields an admissible bound, so any subset keeps the
    maximum admissible.  All ``2**(n-1) - 1`` cuts are enumerated for small
    registers; beyond that, all balanced contiguous cuts plus a seeded
    random sample.
    """
    n = state.num_qubits
    if n < 2 or state.cardinality <= 1:
        return 0.0
    best = 0
    for cut in _cut_family(n, max_random_cuts, seed):
        rank = schmidt_rank(state, cut)
        if rank > 1:
            best = max(best, math.ceil(math.log2(rank)))
    return float(best)


def combined_heuristic(state: QState) -> float:
    """``max`` of the paper's entangled-qubit bound and the Schmidt-cut
    bound — admissible because both components are."""
    return max(entanglement_heuristic(state), schmidt_cut_heuristic(state))


def _cut_family(n: int, max_random_cuts: int,
                seed: int) -> Iterable[tuple[int, ...]]:
    if n <= _EXACT_CUT_QUBITS:
        for size in range(1, n // 2 + 1):
            for combo in itertools.combinations(range(n), size):
                # skip mirror duplicates of the balanced size
                if 2 * size == n and 0 not in combo:
                    continue
                yield combo
        return
    # contiguous cuts of every size
    for size in range(1, n // 2 + 1):
        for start in range(n - size + 1):
            yield tuple(range(start, start + size))
    rng = np.random.default_rng(seed)
    half = n // 2
    for _ in range(max_random_cuts):
        yield tuple(int(q) for q in rng.choice(n, size=half, replace=False))
