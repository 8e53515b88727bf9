"""Search-engine ablation: A* variants on identical instances.

Compares the paper's A* (entanglement heuristic, PU(2) canonicalization)
against the extension engines on the same instances:

* Dijkstra (zero heuristic) — how much the admissible bound prunes;
* A* with the Schmidt-cut / combined heuristic — a tighter bound;
* IDA* — same optimum, memory-light;
* beam search — the anytime fallback's optimality gap.

All optimal engines must agree on the CNOT cost (asserted); the table
reports nodes expanded and wall time per engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.astar import SearchConfig, astar_search
from repro.core.beam import BeamConfig, beam_search
from repro.core.heuristic import (
    combined_heuristic,
    entanglement_heuristic,
    zero_heuristic,
)
from repro.core.idastar import IDAStarConfig, idastar_search
from repro.exceptions import SearchBudgetExceeded
from repro.experiments.report import ExperimentTable
from repro.states.qstate import QState

__all__ = ["VariantRow", "search_variant_rows", "search_variants_experiment"]


@dataclass
class VariantRow:
    """One engine's outcome on one instance."""

    instance: str
    engine: str
    cnot_cost: int | None
    optimal: bool
    nodes_expanded: int
    seconds: float


def _engines(budget: SearchConfig):
    yield "dijkstra", lambda s: astar_search(s, budget,
                                             heuristic=zero_heuristic)
    yield "astar(paper)", lambda s: astar_search(
        s, budget, heuristic=entanglement_heuristic)
    yield "astar(combined)", lambda s: astar_search(
        s, budget, heuristic=combined_heuristic)
    yield "idastar", lambda s: idastar_search(
        s, IDAStarConfig(search=budget))
    yield "beam", lambda s: beam_search(s, BeamConfig(width=64),
                                        search=budget)


def search_variant_rows(instances: list[tuple[str, QState]],
                        budget: SearchConfig | None = None
                        ) -> list[VariantRow]:
    """Run every engine on every instance; optimal engines must agree."""
    budget = budget or SearchConfig(max_nodes=150_000, time_limit=60.0)
    rows: list[VariantRow] = []
    for label, state in instances:
        optimal_costs: set[int] = set()
        for engine_name, engine in _engines(budget):
            start = time.perf_counter()
            try:
                result = engine(state)
                cost: int | None = result.cnot_cost
                optimal = result.optimal
                expanded = result.stats.nodes_expanded
            except SearchBudgetExceeded:
                cost, optimal, expanded = None, False, budget.max_nodes
            elapsed = time.perf_counter() - start
            if optimal and cost is not None:
                optimal_costs.add(cost)
            rows.append(VariantRow(instance=label, engine=engine_name,
                                   cnot_cost=cost, optimal=optimal,
                                   nodes_expanded=expanded,
                                   seconds=elapsed))
        if len(optimal_costs) > 1:
            raise AssertionError(
                f"optimal engines disagree on {label}: {optimal_costs}")
    return rows


def search_variants_experiment(instances: list[tuple[str, QState]],
                               budget: SearchConfig | None = None
                               ) -> ExperimentTable:
    """Render the engine comparison as an experiment table."""
    table = ExperimentTable(
        experiment_id="EX3",
        title="search-engine ablation on identical instances",
        headers=["instance", "engine", "CNOTs", "optimal", "expansions",
                 "seconds"],
        paper_reference="Sec. V (algorithm design choices)",
        notes=["all engines share the move library and canonicalization",
               "beam is anytime: its cost may exceed the optimum"])
    for row in search_variant_rows(instances, budget):
        table.add_row(row.instance, row.engine,
                      "-" if row.cnot_cost is None else row.cnot_cost,
                      row.optimal, row.nodes_expanded,
                      f"{row.seconds:.3f}")
    return table
