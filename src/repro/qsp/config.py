"""Workflow configuration (paper Sec. VI-A, Fig. 5)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.astar import SearchConfig
from repro.core.beam import BeamConfig
from repro.core.exact import ExactConfig
from repro.qsp.reduction import ReductionConfig

__all__ = ["QSPConfig", "default_exact_config"]


def default_exact_config() -> ExactConfig:
    """Exact-engine budget used inside the workflow.

    The workflow only hands the engine entangled cores with ``n <= 4`` and
    ``m <= 16`` (the paper's activation thresholds), so a modest budget
    suffices: each core is searched under its n-flow or reduction-only
    circuit, which is served when the budget runs out.  The beam budget
    serves the topology-native stage only, whose search has no baseline.

    The node budget, not the wall-clock limit, is what bounds memory: an
    unsolvable dense ``n = 4`` core keeps up to about 40 KB of frontier
    per expansion with the extension, whose open list holds a child as
    rows until it pops it, and about 130 KB on the Python path, which
    interns every child (the core of ``random_dense_state(6, seed=0)``,
    searched alone to 30,000 expansions, peaks at 1.2 GB and 3.8 GB;
    that state's prepare at 1.1 GB).  So 30,000 expansions peak below
    4 GB on any host, where a time-bound search would grow with the
    engine's speed.
    """
    return ExactConfig(
        search=SearchConfig(max_nodes=30_000, time_limit=30.0),
        beam=BeamConfig(width=128, time_limit=10.0),
        verify=False,  # the workflow verifies the assembled circuit instead
    )


@dataclass
class QSPConfig:
    """End-to-end state-preparation configuration.

    Attributes
    ----------
    exact_qubits:
        Activate exact synthesis when the entangled core has at most this
        many qubits (paper: 4).
    exact_cardinality:
        ... and at most this many nonzero amplitudes (paper: 16).
    exact:
        Budgets of the exact engine.
    reduction:
        Improved sparse-path reduction knobs.
    use_exact:
        Disable to measure the pure reduction flows (ablation).
    improved_reduction:
        Use the multi-pair merge reduction on the sparse path; when false
        the plain GH m-flow steps are used (ablation).
    verify_max_qubits:
        Verify the final circuit by simulation when ``n`` is at most this.
    """

    exact_qubits: int = 4
    exact_cardinality: int = 16
    exact: ExactConfig = field(default_factory=default_exact_config)
    reduction: ReductionConfig = field(default_factory=ReductionConfig)
    use_exact: bool = True
    improved_reduction: bool = True
    verify_max_qubits: int = 12
