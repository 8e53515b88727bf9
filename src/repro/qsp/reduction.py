"""Improved cardinality reduction — the workflow's sparse-path engine.

The baseline m-flow merges exactly one basis-state pair per step.  Our
reduction keeps the same backward-move vocabulary but chooses, at every
step, the move with the best *cost per merged pair* among:

* every valid AP merge the exact engine knows about (``Ry`` merges are
  free and can fold many pairs at once; ``CRy``/``MCRy`` merges fold all
  consistent pairs inside a cube), and
* the Gleinig-Hoefler pair merge (CNOT alignment + cube rotation) as the
  guaranteed-progress fallback.

On the uniform-amplitude benchmark states, amplitude ratios are frequently
consistent across many pairs, so multi-pair merges fire often — this is
where the workflow's sparse-state advantage over the m-flow baseline comes
from (Sec. VI-C reports 32% on average).

The greedy and the GH trajectory carry their state in the form
:func:`repro.baselines.mflow.carry` picks.  With the extension loaded (and
a register the kernel's int64 indices hold) that is a
:class:`~repro.baselines.mflow.PackedSparse`: each GH step is one
``_fastcore.gh_step`` call and each greedy scoring one
``_fastcore.best_merge`` call, which enumerates, applies and scores every
merge natively and returns the winner's merged arrays.  Otherwise it is a
:class:`QState`, and :func:`_best_multi_merge` is the Python twin: it
enumerates with :func:`repro.core.kernel.enumerate_merges_packed` (bound to
the module name ``enumerate_merges``), or with the reference in
:mod:`repro.core.transitions` for registers wider than int64 indices, and
applies each move with :meth:`~repro.core.moves.Move.apply`.  Both make the
same moves in the same order and bit-identical states.  The loops below
are written once, over either carrier.

The plain GH trajectory to the same thresholds is a :class:`GHTrajectory`,
computed once: the greedy walks its prefix for as long as it takes GH
steps, the result falls back to it when it is cheaper, and the workflow
serves it as its GH candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.baselines.mflow import (
    Carrier,
    PackedSparse,
    _gh_step,
    as_qstate,
    carry,
)
from repro.core import fastcore as _fastcore
from repro.core import transitions
from repro.core.kernel import PACKED_MAX_QUBITS, StatePool
from repro.core.kernel import enumerate_merges_packed as enumerate_merges
from repro.core.moves import MergeMove, Move
from repro.exceptions import SynthesisError
from repro.states.analysis import num_entangled_qubits
from repro.states.qstate import QState

__all__ = ["GHTrajectory", "ReductionConfig", "reduce_cardinality"]


@dataclass
class ReductionConfig:
    """Knobs of the improved reduction.

    ``max_merge_controls`` bounds the cube size considered for multi-pair
    merges (``2**k`` cost grows quickly, and the GH step usually beats
    large cubes).  The best multi-pair merge, lowering the cardinality by
    ``drop`` at CNOT cost ``cost``, is taken when it is free or when
    ``cost <= max(g, 1) * drop``, with ``g`` the cost of the GH step from
    the same state; otherwise the GH step is taken.
    """

    max_merge_controls: int = 2


class GHTrajectory:
    """The plain GH merge steps from ``state`` to the stop thresholds.

    One GH step (:func:`repro.baselines.mflow._gh_step` with literal
    minimization) after another, while the cardinality is above
    ``stop_cardinality`` or (when given) more than ``stop_entangled``
    qubits are entangled, and more than one index is left.  The steps are
    computed on first use, on the carrier :func:`carry` picks, and then
    shared by everyone who reads them.
    """

    def __init__(self, state: QState, stop_cardinality: int = 1,
                 stop_entangled: int | None = None):
        if stop_cardinality < 1:
            raise SynthesisError("stop_cardinality must be >= 1")
        self.state = state
        self.stop_cardinality = stop_cardinality
        self.stop_entangled = stop_entangled

    def reached(self, current: Carrier) -> bool:
        """True when ``current`` meets the stop thresholds."""
        if current.cardinality > self.stop_cardinality:
            return False
        return self.stop_entangled is None or \
            _num_entangled(current) <= self.stop_entangled

    @cached_property
    def start(self) -> Carrier:
        """``state`` as the reduction carries it."""
        return carry(self.state)

    @cached_property
    def steps(self) -> list[tuple[list[Move], Carrier]]:
        """``(moves, next_state)`` of every GH step, in order."""
        steps: list[tuple[list[Move], Carrier]] = []
        current = self.start
        while not self.reached(current) and current.cardinality > 1:
            step = _gh_step(current, minimize_literals=True)
            steps.append(step)
            current = step[1]
        return steps

    @property
    def moves(self) -> list[Move]:
        """All moves of the trajectory."""
        return [move for step_moves, _ in self.steps for move in step_moves]

    @cached_property
    def final(self) -> QState:
        """The state the trajectory ends in."""
        return as_qstate(self.steps[-1][1]) if self.steps else self.state


def _num_entangled(current: Carrier) -> int:
    """Entangled qubits of the carried state, by the rule of
    :func:`repro.states.analysis._cofactor_ratio`."""
    if isinstance(current, PackedSparse):
        return len(_fastcore._module.entangled_qubits(
            current.num_qubits, current.idx, current.amp))
    return num_entangled_qubits(current)


def _best_merge(current: Carrier, config: ReductionConfig
                ) -> tuple[MergeMove, int, Carrier] | None:
    """Cheapest-per-pair AP merge from the carried state, its cardinality
    drop and the merged state, if any merge folds an index away: one
    ``_fastcore.best_merge`` call on packed arrays,
    :func:`_best_multi_merge` on a ``QState``."""
    if not isinstance(current, PackedSparse):
        return _best_multi_merge(current, config)
    n = current.num_qubits
    cap = config.max_merge_controls
    found = _fastcore._module.best_merge(
        n, current.idx, current.amp, n - 1 if cap is None else cap)
    if found is None:
        return None
    target, theta, controls, drop, idx, amp = found
    return (MergeMove(target=target, theta=theta, controls=controls), drop,
            PackedSparse(n, idx, amp))


def _best_multi_merge(state: QState, config: ReductionConfig
                      ) -> tuple[MergeMove, int, QState] | None:
    """Python twin of ``_fastcore.best_merge``: the lowest ``cost / drop``
    over every merge, ties to the larger drop, then to the first
    enumerated.

    Enumerated on the packed kernel; a register too wide for its int64
    indices goes to the reference enumeration, which makes the same moves
    in the same order.
    """
    if state.num_qubits <= PACKED_MAX_QUBITS:
        subject, merges = StatePool().from_qstate(state), enumerate_merges
    else:
        subject, merges = state, transitions.enumerate_merges
    best: tuple[float, int, MergeMove, QState] | None = None
    for target in range(state.num_qubits):
        for move in merges(subject, target,
                           max_controls=config.max_merge_controls):
            merged = move.apply(state)
            drop = state.cardinality - merged.cardinality
            if drop < 1:
                continue
            score = move.cost / drop
            if best is None or score < best[0] or \
                    (score == best[0] and drop > best[1]):
                best = (score, drop, move, merged)
    if best is None:
        return None
    return best[2], best[1], best[3]


def _greedy(gh: GHTrajectory, config: ReductionConfig
            ) -> tuple[list[Move], Carrier]:
    """Multi-pair merges where they pay, GH steps elsewhere.

    Until its first multi-pair merge the greedy stands on ``gh``'s
    trajectory, so its GH steps are ``gh``'s.  Off the trajectory, the GH
    step it compares against is the step it takes.
    """
    moves: list[Move] = []
    current = gh.start
    on_gh: int | None = 0  # GH steps taken so far, while on the trajectory
    while True:
        if on_gh is not None:
            if on_gh == len(gh.steps):
                break
        elif gh.reached(current) or current.cardinality == 1:
            break  # a basis state needs only free gates
        choice = _best_merge(current, config)
        if choice is not None and choice[0].cost == 0:
            moves.append(choice[0])
            current = choice[2]
            on_gh = None
            continue
        step_moves, after = gh.steps[on_gh] if on_gh is not None else \
            _gh_step(current, minimize_literals=True)
        if choice is not None:
            move, drop, merged = choice
            gh_cost = sum(m.cost for m in step_moves)
            if move.cost <= max(gh_cost, 1) * drop:
                moves.append(move)
                current = merged
                on_gh = None
                continue
        moves.extend(step_moves)
        current = after
        if on_gh is not None:
            on_gh += 1
    return moves, current


def reduce_cardinality(state: QState, stop_cardinality: int = 1,
                       stop_entangled: int | None = None,
                       config: ReductionConfig | None = None,
                       gh: GHTrajectory | None = None
                       ) -> tuple[list[Move], QState]:
    """Apply backward moves until the state is small enough.

    Stops when ``cardinality <= stop_cardinality`` and (when given) the
    number of entangled qubits is ``<= stop_entangled``.  Returns the moves
    applied and the final state.

    ``gh`` is the :class:`GHTrajectory` of ``state`` to the same
    thresholds, for a caller that also uses it (the workflow serves it as
    its GH candidate); without it, the trajectory is computed here.
    """
    if stop_cardinality < 1:
        raise SynthesisError("stop_cardinality must be >= 1")
    config = config or ReductionConfig()
    if gh is None:
        gh = GHTrajectory(state, stop_cardinality, stop_entangled)
    elif gh.state is not state or \
            (gh.stop_cardinality, gh.stop_entangled) != \
            (stop_cardinality, stop_entangled):
        raise SynthesisError("the GH trajectory is for another state or "
                             "other thresholds")
    # Greedy multi-merging is usually cheaper but can lose to the GH order
    # on adversarial instances; returning the better of the two makes the
    # improved reduction dominate the baseline by construction.
    greedy_moves, greedy_state = _greedy(gh, config)
    gh_moves = gh.moves
    if sum(m.cost for m in greedy_moves) <= sum(m.cost for m in gh_moves):
        return greedy_moves, \
            as_qstate(greedy_state) if greedy_moves else state
    return gh_moves, gh.final
