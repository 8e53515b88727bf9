"""Batched family synthesis in one process with warm search memory.

The paper's tables sweep whole state families (every Dicke row, every
random sample of a size class); the seed code synthesized each member with
a cold engine.  This runner threads one
:class:`~repro.core.memory.SearchMemory` through the batch, so canonical
keys, heuristic values, interned states, and (for IDA*) sound
transposition entries carry over from row to row — the cross-search
reuse that ``benchmarks/bench_memory.py`` measures.

Warm and cold runs return identical costs on every row (memory only
deduplicates recomputation); the equivalence tests assert it and
:func:`run_family` re-asserts it per row when given a baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.core.astar import SearchConfig, astar_search
from repro.core.beam import BeamConfig, beam_search
from repro.core.heuristic import HeuristicFn
from repro.core.idastar import IDAStarConfig, idastar_search
from repro.core.memory import SearchMemory
from repro.exceptions import SearchBudgetExceeded, SynthesisError
from repro.states.families import dicke_state
from repro.states.qstate import QState

__all__ = [
    "FamilyRunConfig",
    "FamilyRow",
    "FamilyReport",
    "dicke_family_targets",
    "run_family",
]

_ENGINES = ("astar", "idastar", "beam")


@dataclass
class FamilyRunConfig:
    """One batch = one engine + its budgets + one shared memory regime."""

    engine: str = "astar"
    search: SearchConfig = field(default_factory=SearchConfig)
    beam: BeamConfig = field(default_factory=BeamConfig)
    #: share one ``SearchMemory`` across the batch (False = cold baseline)
    warm: bool = True
    #: named device family (``line``/``ring``/``grid``/...): every row is
    #: then synthesized topology-natively on a map of its own register
    #: size.  A concrete topology only fits one size, so a topology run
    #: keeps one ``SearchMemory`` *per register size* — entries from two
    #: device sizes never share lookups anyway (state payloads embed
    #: ``n``), and the per-size memories keep the cross-device
    #: fingerprint guarantee intact.
    topology: str | None = None

    def __post_init__(self) -> None:
        if self.engine not in _ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; "
                             f"choose from {_ENGINES}")


@dataclass
class FamilyRow:
    """One target's outcome within the batch."""

    label: str
    solved: bool
    cnot_cost: int | None
    optimal: bool
    lower_bound: int | None
    nodes_expanded: int
    seconds: float


@dataclass
class FamilyReport:
    """Batch outcome plus the memory counters that explain the speed."""

    engine: str
    warm: bool
    rows: list[FamilyRow]
    total_seconds: float
    memory: dict | None

    @property
    def solved_costs(self) -> dict[str, int]:
        return {row.label: row.cnot_cost for row in self.rows
                if row.solved and row.cnot_cost is not None}


def dicke_family_targets(max_n: int,
                         min_n: int = 3) -> list[tuple[str, QState]]:
    """The Dicke benchmark rows ``|D^k_n>`` for ``k <= n // 2``."""
    targets = []
    for n in range(min_n, max_n + 1):
        for k in range(1, n // 2 + 1):
            targets.append((f"D({n},{k})", dicke_state(n, k)))
    return targets


def run_family(targets: list[tuple[str, QState]],
               config: FamilyRunConfig | None = None,
               memory: SearchMemory | None = None,
               heuristic: HeuristicFn | None = None,
               memory_pool: dict[int, SearchMemory] | None = None
               ) -> FamilyReport:
    """Synthesize every target in one process, sharing search memory.

    A budget-exhausted row is reported with its proven lower bound and the
    batch continues — one hard row must not starve the rest of the family.
    When ``memory`` is omitted and ``config.warm`` is set, a fresh
    :class:`SearchMemory` is created for the batch; passing an existing
    memory keeps it warm across multiple batches (the re-run case the
    memory benchmark measures).

    Topology family runs use one memory per register size instead of
    ``memory`` (see :class:`FamilyRunConfig`); pass (and keep) a
    ``memory_pool`` dict to stay warm across repeated batches exactly as
    a shared ``memory`` does for unrestricted runs.
    """
    config = config or FamilyRunConfig()
    if config.topology is not None and memory is not None:
        raise ValueError(
            "a topology family run manages one SearchMemory per register "
            "size; pass memory=None (and optionally a memory_pool dict)")
    if memory is None and config.warm and config.topology is None:
        memory = SearchMemory()
    if not config.warm:
        memory = None
    #: topology runs: one memory per register size (see FamilyRunConfig)
    memory_by_size: dict[int, SearchMemory] = \
        memory_pool if memory_pool is not None else {}

    def synthesize(state: QState):
        search = config.search
        row_memory = memory
        if config.topology is not None:
            from repro.arch.topologies import named_topology

            search = replace(search, topology=named_topology(
                config.topology, state.num_qubits))
            if config.warm:
                row_memory = memory_by_size.get(state.num_qubits)
                if row_memory is None:
                    row_memory = SearchMemory()
                    memory_by_size[state.num_qubits] = row_memory
        if config.engine == "astar":
            return astar_search(state, search, heuristic=heuristic,
                                memory=row_memory)
        if config.engine == "idastar":
            return idastar_search(state, IDAStarConfig(search=search),
                                  heuristic=heuristic, memory=row_memory)
        return beam_search(state, config.beam, heuristic=heuristic,
                           memory=row_memory, search=search)

    rows: list[FamilyRow] = []
    batch_start = time.perf_counter()
    for label, state in targets:
        start = time.perf_counter()
        try:
            result = synthesize(state)
            row = FamilyRow(label=label, solved=True,
                            cnot_cost=result.cnot_cost,
                            optimal=result.optimal, lower_bound=None,
                            nodes_expanded=result.stats.nodes_expanded,
                            seconds=time.perf_counter() - start)
        except (SearchBudgetExceeded, SynthesisError) as exc:
            # SynthesisError: a topology-native beam row can finish with
            # no feasible circuit (no m-flow tail) — report it unsolved
            # like a budget miss instead of sinking the whole batch
            stats = getattr(exc, "stats", None)
            row = FamilyRow(label=label, solved=False, cnot_cost=None,
                            optimal=False,
                            lower_bound=getattr(exc, "lower_bound", None),
                            nodes_expanded=stats.nodes_expanded
                            if stats else 0,
                            seconds=time.perf_counter() - start)
        rows.append(row)
    total = time.perf_counter() - batch_start
    if memory is not None:
        mem_snapshot = memory.snapshot()
    elif config.warm and memory_by_size:
        mem_snapshot = _merge_counter_dicts(
            [m.snapshot() for m in memory_by_size.values()])
    else:
        mem_snapshot = None
    return FamilyReport(engine=config.engine,
                        warm=mem_snapshot is not None,
                        rows=rows, total_seconds=total,
                        memory=mem_snapshot)


def _merge_counter_dicts(snapshots: list[dict]) -> dict:
    """Aggregate per-size memory snapshots into one counter dict (same
    shape as a single snapshot, so reports and the CLI print one view)."""
    merged: dict = {}
    for snap in snapshots:
        for key, value in snap.items():
            if isinstance(value, dict):
                inner = merged.setdefault(key, {})
                for k2, v2 in value.items():
                    inner[k2] = inner.get(k2, 0) + v2
            else:
                merged[key] = merged.get(key, 0) + value
    return merged
