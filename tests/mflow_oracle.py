"""Loop-based GH references: the test oracles for the vectorized m-flow
step and the packed-kernel reduction.

The seed implementations, kept out of the package so production code has
one of each:

* :func:`dif_qubits_reference` — GH Algorithm 1 as a per-bit loop
  (the package runs :func:`repro.baselines.mflow.dif_qubits` on the
  index bit matrix in NumPy);
* :func:`merge_step_reference` — one GH merge that rebuilds the state
  once per alignment CNOT (the package applies the alignment as one
  fan-out);
* :func:`gh_reduction_reference` — plain GH steps to the thresholds
  (the package's :class:`repro.qsp.reduction.GHTrajectory`);
* :func:`reduce_cardinality_reference` — the greedy multi-pair reduction
  on the reference merge enumeration of :mod:`repro.core.transitions`,
  with its own GH peek before every comparison and its own plain GH loop
  (the package enumerates on the packed kernel and computes one GH
  trajectory).

``tests/test_mflow.py`` and ``tests/test_reduction.py`` require the
package versions to agree with these move for move.

Usage::

    from mflow_oracle import dif_qubits_reference
    literals, pair = dif_qubits_reference(indices, n, minimize_literals=True)
"""

from __future__ import annotations

from repro.core.moves import CXMove, MergeMove, Move, merge_angle
from repro.core.transitions import enumerate_merges
from repro.exceptions import SynthesisError
from repro.qsp.reduction import ReductionConfig
from repro.states.analysis import num_entangled_qubits
from repro.states.qstate import QState
from repro.utils.bits import bit_of

__all__ = ["dif_qubits_reference", "merge_step_reference",
           "gh_reduction_reference", "reduce_cardinality_reference"]


def dif_qubits_reference(indices: list[int], num_qubits: int,
                         minimize_literals: bool = False
                         ) -> tuple[list[tuple[int, int]], list[int]]:
    """Greedy literal selection isolating two indices, one bit at a time."""
    if len(indices) < 2:
        raise SynthesisError("need at least two indices to isolate a pair")
    literals: list[tuple[int, int]] = []
    bucket = list(indices)
    while len(bucket) > 2:
        best: tuple[int, int, int] | None = None  # (count, qubit, value)
        fallback: tuple[int, int, int] | None = None
        for q in range(num_qubits):
            ones = sum(bit_of(i, q, num_qubits) for i in bucket)
            zeros = len(bucket) - ones
            for value, count in ((0, zeros), (1, ones)):
                if count == len(bucket) or count == 0:
                    continue  # constant column / empty side
                if count >= 2:
                    if best is None or count < best[0]:
                        best = (count, q, value)
                else:  # count == 1: only usable through the other side
                    other = len(bucket) - 1
                    if fallback is None or other < fallback[0]:
                        fallback = (other, q, 1 - value)
        chosen = best if best is not None else fallback
        if chosen is None:
            raise SynthesisError("identical indices in the bucket")
        _, q, value = chosen
        literals.append((q, value))
        bucket = [i for i in bucket if bit_of(i, q, num_qubits) == value]
    if not minimize_literals:
        return literals, sorted(bucket)
    pair = set(bucket)
    kept: list[tuple[int, int]] = []
    for pos, lit in enumerate(literals):
        trial = kept + literals[pos + 1:]
        selected = {i for i in indices
                    if all(bit_of(i, q, num_qubits) == v for q, v in trial)}
        if selected != pair:
            kept.append(lit)
    return kept, sorted(bucket)


def merge_step_reference(state: QState, minimize_literals: bool = False
                         ) -> tuple[list[Move], QState]:
    """One GH merge, applying each alignment CNOT to the state in turn."""
    n = state.num_qubits
    indices = sorted(state.index_set)
    literals, (b1, b2) = dif_qubits_reference(indices, n, minimize_literals)
    moves: list[Move] = []
    current = state

    diff = b1 ^ b2
    positions = [q for q in range(n) if (diff >> (n - 1 - q)) & 1]
    p = positions[0]
    for r in positions[1:]:
        move = CXMove(control=p, phase=1, target=r)
        moves.append(move)
        current = move.apply(current)
        mask = 1 << (n - 1 - r)
        if bit_of(b1, p, n) == 1:
            b1 ^= mask
        else:
            b2 ^= mask

    lo, hi = (b1, b2) if bit_of(b1, p, n) == 0 else (b2, b1)
    theta = merge_angle(current.amplitude(lo), current.amplitude(hi),
                        direction=0)
    merge = MergeMove(target=p, theta=theta, controls=tuple(literals))
    moves.append(merge)
    return moves, merge.apply(current)


def _best_multi_merge_reference(state: QState, config: ReductionConfig
                                ) -> tuple[Move, int] | None:
    best: tuple[float, int, Move] | None = None
    for target in range(state.num_qubits):
        for move in enumerate_merges(state, target,
                                     max_controls=config.max_merge_controls):
            drop = state.cardinality - move.apply(state).cardinality
            if drop < 1:
                continue
            score = move.cost / drop
            if best is None or score < best[0] or \
                    (score == best[0] and drop > best[1]):
                best = (score, drop, move)
    if best is None:
        return None
    return best[2], best[1]


def _thresholds_met(current: QState, stop_cardinality: int,
                    stop_entangled: int | None) -> bool:
    if current.cardinality > stop_cardinality:
        return False
    return stop_entangled is None or \
        num_entangled_qubits(current) <= stop_entangled


def gh_reduction_reference(state: QState, stop_cardinality: int = 1,
                           stop_entangled: int | None = None
                           ) -> tuple[list[Move], QState]:
    """Plain GH merge steps until the thresholds are met."""
    moves: list[Move] = []
    current = state
    while not _thresholds_met(current, stop_cardinality, stop_entangled) \
            and current.cardinality > 1:
        step_moves, current = merge_step_reference(current,
                                                   minimize_literals=True)
        moves.extend(step_moves)
    return moves, current


def reduce_cardinality_reference(state: QState, stop_cardinality: int = 1,
                                 stop_entangled: int | None = None,
                                 config: ReductionConfig | None = None
                                 ) -> tuple[list[Move], QState]:
    """The seed greedy reduction and plain GH loop; the cheaper wins."""
    if stop_cardinality < 1:
        raise SynthesisError("stop_cardinality must be >= 1")
    config = config or ReductionConfig()

    def greedy() -> tuple[list[Move], QState]:
        moves: list[Move] = []
        current = state
        while not _thresholds_met(current, stop_cardinality, stop_entangled):
            if current.cardinality == 1:
                break
            choice = _best_multi_merge_reference(current, config)
            if choice is not None:
                move, drop = choice
                gh_moves, _ = merge_step_reference(current,
                                                   minimize_literals=True)
                gh_cost = sum(m.cost for m in gh_moves)
                if move.cost == 0 or move.cost <= max(gh_cost, 1) * drop:
                    moves.append(move)
                    current = move.apply(current)
                    continue
            step_moves, current = merge_step_reference(
                current, minimize_literals=True)
            moves.extend(step_moves)
        return moves, current

    greedy_result = greedy()
    gh_result = gh_reduction_reference(state, stop_cardinality,
                                       stop_entangled)
    greedy_cost = sum(m.cost for m in greedy_result[0])
    gh_cost = sum(m.cost for m in gh_result[0])
    return greedy_result if greedy_cost <= gh_cost else gh_result
