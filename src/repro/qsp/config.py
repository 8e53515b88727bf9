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
    suffices; the beam fallback guarantees progress regardless.
    """
    return ExactConfig(
        search=SearchConfig(max_nodes=150_000, time_limit=30.0),
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
