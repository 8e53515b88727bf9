"""The long-lived synthesis service behind ``repro-qsp serve``/``batch``.

One :class:`SynthesisService` owns the cooperating parts of the service
layer and runs the request-level orchestration:

1. a process-lifetime :class:`~repro.core.memory.SearchMemory`, optionally
   warm-started from an on-disk snapshot (family runs produce these) or —
   with a WAL configured — from the WAL's compacted snapshot plus its
   replayed per-request delta records;
2. the engine portfolio (:mod:`repro.service.portfolio`) for exact
   synthesis requests — every lane time-sliced in one process with live
   incumbent sharing and first-proven-optimal cancellation;
3. a :class:`~repro.service.cache.RequestCache` so repeated traffic for
   the same target returns the synthesized circuit without searching;
4. a :class:`~repro.service.scheduler.RequestScheduler` so *many*
   requests can be in flight at once (the concurrent serving model).

**One request path.**  :meth:`SynthesisService.submit` is the admission
path every front door drives — the socket front end
(:mod:`repro.service.asyncserver`, ``serve --listen``), the worker pool,
``batch`` (:meth:`~SynthesisService.run_batch_file`), and the
synchronous :meth:`SynthesisService.handle` (stdin ``serve``), which is
just ``submit`` plus scheduler turns until its own reply arrives.
``submit`` parses and validates the request, answers cache hits,
control ops, ``fast``, and errors immediately through the reply
callback, and otherwise registers a :class:`~repro.service.scheduler
.RequestSession` — the portfolio lanes as stepwise
:class:`~repro.core.engine.EngineRun` s — with the global scheduler,
which fair-shares expansion slices across all lanes of all in-flight
requests (earliest-deadline-first, round-robin among undeadlined
requests, per-client cancellation).  Admission is bounded: beyond
``max_inflight`` searching sessions the service answers ``ok: false,
busy: true`` instead of queueing without limit.  Within one session the
lane schedule is the interleaved portfolio's, so concurrency never
changes a request's cost, and neither does the front door.

Requests are JSON objects (one per line on the wire, stdin and socket
alike)::

    {"id": 1, "op": "prepare", "dicke": [4, 2]}
    {"id": 2, "op": "exact", "w": 4, "return_circuit": true}
    {"id": 3, "op": "exact", "w": 5, "topology": "heavy_hex"}
    {"id": 4, "op": "exact", "dicke": [6, 3], "deadline_ms": 250}
    {"id": 5, "op": "stats"}
    {"id": 6, "op": "snapshot", "path": "warm.qspmem.json"}
    {"id": 7, "op": "cache_snapshot", "path": "cache.qspreq.json"}
    {"id": 8, "op": "trace", "limit": 100}
    {"op": "shutdown"}

The target state may be given as a serialized state (``"state": {...}``
from :func:`repro.utils.serialization.state_to_dict`), as explicit terms
(``"terms": {"011": 0.5, ...}``), or by family shorthand (``dicke``,
``ghz``, ``w``).  ``op: prepare`` (the default) runs the paper's full
workflow — :func:`repro.qsp.workflow.prepare_state` wired through the
service memory — while ``op: exact`` runs the engine portfolio directly
on the (small) target.  Responses mirror the request ``id`` and carry
``ok``, ``cnot_cost``, optimality flags, ``cached``, ``seconds``, and the
circuit when ``return_circuit`` is set.  On the socket front end
responses arrive *out of request order* (a light request overtakes a
heavy one) — match them by ``id``.  ``prepare`` and ``exact`` both ride
the cross-request scheduler: a ``prepare`` session carries the whole
workflow as one stepwise :class:`~repro.qsp.workflow.WorkflowRun`
(wrapped in :class:`~repro.service.scheduler.WorkflowLanes`), so a dense
``prepare`` no longer blocks every caller at admission — it time-shares,
honors ``deadline_ms`` with a verified best-so-far flush (never cached),
and cancels on disconnect exactly like ``exact`` traffic.

Requests may carry a wall-clock budget ``deadline_ms`` (or the service
may set a default via ``serve --deadline-ms``): the portfolio
time-slices all engine lanes in this process, shares every feasible
cost as a live branch-and-bound incumbent, cancels everything at the
first proven optimum, and at the deadline returns the best feasible
circuit found so far (``deadline_expired: true``, never cached) instead
of an error.  A deadline also sets the request's EDF priority, and keeps
running while other sessions hold the CPU — it is a caller-facing
latency bound, not a CPU budget.

``op: fast`` is the latency-first tier over the same target shapes
(``{"op": "fast", "dicke": [6, 3]}``): it tries the ``fast`` and
``exact`` cache namespaces, then the *near-hit* path — the request
cache's signature index (:mod:`repro.core.pdb`) nominates cached donor
circuits whose targets share the state's entanglement signature, the
donor's backward move path is replayed on the new target with merge
angles re-derived from the target's own amplitudes, and a
deadline-bounded suffix search finishes from the most-promising
intermediate — and only then falls back to a full interleaved search
seeded with the pattern database's *learned* (inadmissible) bound tier.
Every circuit served by the near-hit or fallback path is verified
against the target with the simulator before the response leaves
(``verified: true``); a failed verification silently falls through to
the next tier.  ``fast`` results are never marked ``optimal`` unless a
*sound* bound certifies the cost, land in their own cache namespace
(never ``exact``), and deadline-truncated ones are never cached at all.

**Persistence.**  ``op: snapshot`` writes a full memory snapshot on
demand; ``serve --wal FILE`` keeps an incremental write-ahead log
instead (:class:`~repro.service.persistence.MemoryWAL`): each settled
request appends the knowledge the memory just learned (exhaustion
proofs, PDB evidence, lane stats; the canon-key and heuristic caches
stay process-local), boot replays the log on top of its compacted
sidecar snapshot, and compaction (every ``--wal-compact-every``
records, and at shutdown) folds it back into a fresh sidecar — so a
crash costs at most the record being written.  ``op: cache_snapshot`` (or ``serve --cache-snapshot`` at
shutdown) persists the exact-hit request cache the same way.  All of it
is gated by format-version + regime-fingerprint checks.

**Observability.**  With an enabled :class:`~repro.obs.ObsConfig`
(``ServiceConfig.obs`` — the serve CLI paths enable it by default,
``--no-obs`` opts out; library callers default to off), the service
instruments itself end to end: every request/turn/slice/settle lands in
a metrics registry and a ring-buffered JSONL tracer.  ``op: stats``
replies then grow a ``metrics`` section (the registry snapshot),
``op: trace`` returns the last ``limit`` trace records::

    {"id": 8, "op": "trace", "limit": 2}
    {"id": 8, "ok": true, "op": "trace", "emitted": 512, "records": [
      {"ts": 12.3459, "kind": "event", "name": "slice", "rid": 4,
       "lane": "beam", "expansions": 256, "status": "running"},
      {"ts": 12.4012, "kind": "end", "name": "request", "rid": 4,
       "outcome": "ok", "seconds": 0.055, "expansions": 1824}]}

``serve --trace FILE`` streams every record to a JSONL file (each
request reconstructs to a balanced admission → settle span via
:func:`repro.obs.trace.reconstruct_timelines`), and ``serve --metrics
HOST:PORT`` serves the Prometheus text exposition of the registry over
HTTP.  Observability *off* is the library default and is differentially
guaranteed free: costs, node counts, and expansion order are
bit-identical to an uninstrumented build (``tests/test_server_concurrent
.py``).

A service boots against at most one device topology
(``ServiceConfig.search.topology``, CLI ``--topology ...
--topology-size ...``): synthesis then runs topology-natively and the
memory, snapshots, WAL, and request cache are fingerprint-pinned to
that device.  A request may state its device (``"topology"``: a family
name sized by the request's register, or a canonical ``{size, edges}``
dict); a mismatch with the service device is answered with a loud
``MemoryCompatibilityError`` instead of entries computed for another
coupling map.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial

from repro.constants import (
    NEARHIT_DONOR_CANDIDATES,
    NEARHIT_SUFFIX_DEADLINE_MS,
    OBS_TRACE_DEFAULT_LIMIT,
    SERVICE_MAX_INFLIGHT,
    SERVICE_REQUEST_CACHE_CAP,
    SHUTDOWN_DRAIN_MS,
    WAL_COMPACT_INTERVAL,
)
from repro.obs import ObsConfig, build_obs
from repro.circuits.circuit import QCircuit
from repro.core.astar import SearchConfig, SearchResult
from repro.core.kernel import PACKED_MAX_QUBITS, StatePool
from repro.core.memory import SearchMemory
from repro.core.pdb import entanglement_signature
from repro.exceptions import MemoryCompatibilityError
from repro.qsp.config import QSPConfig
from repro.qsp.workflow import WorkflowRun
from repro.service.cache import RequestCache
from repro.service.persistence import MemoryWAL, load_memory_snapshot, \
    save_memory_snapshot
from repro.service.portfolio import (
    EngineSpec,
    LaneScheduler,
    autotune_specs,
    default_portfolio,
    interleaved_portfolio,
)
from repro.service.scheduler import (
    RequestScheduler,
    RequestSession,
    WorkflowLanes,
)
from repro.states.families import dicke_state, ghz_state, w_state
from repro.states.qstate import QState
from repro.utils.fingerprint import fingerprint_from_dict, \
    search_regime_dict
from repro.utils.serialization import circuit_to_dict, state_from_dict

__all__ = ["ServiceConfig", "SynthesisService", "serve_loop",
           "parse_request_line", "parse_request_state"]


def parse_request_state(request: dict) -> QState:
    """The request's target state; raises ``ValueError`` when absent.

    Module-level so the worker-pool router can parse (for
    signature-affinity routing) with exactly the service's semantics —
    a state the router accepts is a state every worker accepts.
    """
    if "state" in request:
        return state_from_dict(request["state"])
    if "dicke" in request:
        n, k = request["dicke"]
        return dicke_state(int(n), int(k))
    if "ghz" in request:
        return ghz_state(int(request["ghz"]))
    if "w" in request:
        return w_state(int(request["w"]))
    if "terms" in request:
        return QState.from_bitstring_weights(
            {bits: float(w) for bits, w in request["terms"].items()})
    raise ValueError(
        "request carries no target state (need one of: state, dicke, "
        "ghz, w, terms)")


def _check_search_width(op: str, state: QState) -> None:
    """Reject a search op on a register the packed kernel cannot hold.

    ``exact`` and ``fast`` search the whole register; ``prepare`` reduces
    a wide sparse register to a small core first, so it serves them.
    """
    if state.num_qubits > PACKED_MAX_QUBITS:
        raise ValueError(
            f"op {op!r} searches at most {PACKED_MAX_QUBITS} qubits (the "
            f"packed kernel's index width); this register has "
            f"{state.num_qubits} (op 'prepare' serves wider sparse states)")


@dataclass
class ServiceConfig:
    """Service-level knobs.

    ``search`` fixes the exact-engine regime *and* budgets for ``exact``
    requests; ``qsp`` configures the full workflow for ``prepare``
    requests (its exact stage shares the same default regime, which is
    what lets one memory serve both paths).
    """

    search: SearchConfig = field(default_factory=SearchConfig)
    specs: tuple[EngineSpec, ...] = field(default_factory=default_portfolio)
    qsp: QSPConfig = field(default_factory=QSPConfig)
    snapshot_path: str | None = None
    use_cache: bool = True
    cache_cap: int = SERVICE_REQUEST_CACHE_CAP
    #: persist/restore the exact-hit request cache here (``serve
    #: --cache-snapshot``): loaded at boot when the file exists (gated by
    #: the same fingerprint + format-version checks as the memory
    #: snapshot), written back on shutdown
    cache_snapshot_path: str | None = None
    #: default wall-clock budget per ``exact``, ``prepare``, or ``fast``
    #: request in milliseconds: when it expires the request is answered
    #: with the best feasible circuit found so far instead of an error;
    #: a request's own ``deadline_ms`` field overrides this
    deadline_ms: float | None = None
    #: incremental snapshot WAL (``serve --wal``): learned-knowledge
    #: deltas appended per settled request, replayed on boot, compacted on
    #: an interval and at shutdown.  The WAL's compacted sidecar snapshot
    #: wins over ``snapshot_path`` at boot (the latter only seeds the
    #: very first boot, and is the only source of warm memory caches).
    wal_path: str | None = None
    wal_compact_interval: int = WAL_COMPACT_INTERVAL
    #: admission cap of the cross-request scheduler (``serve
    #: --max-inflight``): searching sessions in flight at once; requests
    #: beyond it are answered ``ok: false, busy: true``
    max_inflight: int = SERVICE_MAX_INFLIGHT
    #: observability (:mod:`repro.obs`): ``None`` / disabled (the library
    #: default) keeps every hook a no-op and the serving path
    #: bit-identical to an uninstrumented build; the serve CLI paths pass
    #: an enabled config by default (``--no-obs`` opts out, ``--trace``
    #: adds the JSONL stream).
    obs: ObsConfig | None = None


# ----------------------------------------------------------------------
# Near-hit adaptation (the fast op's middle tier)
# ----------------------------------------------------------------------

def _reangle_move(move, state: QState):
    """One donor move adapted to ``state``; returns ``(move, next_state)``.

    X and CX moves are amplitude-pattern-independent and replay as-is.  A
    :class:`~repro.core.moves.MergeMove`'s angle, however, was derived
    from the *donor's* amplitudes — on a perturbed near-neighbor the same
    rotation would only approximately merge.  So the angle is re-derived
    from the current state's own amplitude pair inside the move's control
    cube (both merge directions are tried, plus the donor's original
    angle), keeping whichever candidate shrinks the state most
    (cardinality, then entangled-qubit count).  The application itself is
    the exact sparse gate, so whatever angle wins, the state evolution —
    and hence the final verification — stays exact.
    """
    from repro.core.moves import MergeMove, merge_angle
    from repro.states.analysis import num_entangled_qubits
    from repro.utils.bits import bit_of

    if not isinstance(move, MergeMove):
        return move, move.apply(state)
    n = state.num_qubits
    target_bit = 1 << (n - 1 - move.target)
    thetas = [move.theta]
    for idx, _amp in state.items():
        if all(bit_of(idx, q, n) == p for q, p in move.controls):
            base = idx & ~target_bit
            a0 = state.amplitude(base)
            a1 = state.amplitude(base | target_bit)
            # one pair suffices: in the adaptable regime (a perturbed
            # sibling of the donor target) every selected pair shares
            # the ratio, exactly as the donor's own merge did
            thetas.append(merge_angle(a0, a1, 0))
            thetas.append(merge_angle(a0, a1, 1))
            break
    best = None
    for theta in thetas:
        candidate = replace(move, theta=theta)
        nxt = candidate.apply(state)
        if nxt.cardinality == 0:
            continue  # numerically annihilated — not a usable branch
        score = (nxt.cardinality, num_entangled_qubits(nxt))
        if best is None or score < best[0]:
            best = (score, candidate, nxt)
    if best is None:
        return move, move.apply(state)
    return best[1], best[2]


def _adapt_near_hit(state: QState, donor: SearchResult,
                    search: SearchConfig, specs: tuple[EngineSpec, ...],
                    memory: SearchMemory | None,
                    deadline_ms: float | None):
    """Adapt a donor's backward move path to a near-neighbor target.

    Replays the donor's moves on ``state`` (merge angles re-derived, see
    :func:`_reangle_move`), scores every intermediate by ``prefix cost +
    admissible remaining bound``, and runs a deadline-bounded suffix
    search from the most promising one.  Returns ``(result, truncated)``
    — the assembled circuit is *candidate* output only; the caller must
    simulator-verify it before serving — or ``None`` when the donor path
    does not lead anywhere a suffix search can finish from in time.
    """
    from repro.states.analysis import entanglement_lower_bound

    moves = list(getattr(donor, "moves", ()) or ())
    if not moves:
        return None
    prefix_states = [state]
    adapted: list = []
    costs = [0]
    current = state
    for move in moves:
        move, current = _reangle_move(move, current)
        adapted.append(move)
        prefix_states.append(current)
        costs.append(costs[-1] + move.cost)
    best_i, best_score = None, None
    for i in range(1, len(prefix_states)):
        score = costs[i] + entanglement_lower_bound(prefix_states[i])
        if best_score is None or score < best_score:
            best_score, best_i = score, i
    if best_i is None:
        return None
    outcome = interleaved_portfolio(prefix_states[best_i], search, specs,
                                    memory=memory, deadline_ms=deadline_ms)
    if not outcome.solved:
        return None
    suffix = outcome.result
    prefix = adapted[:best_i]
    # suffix.circuit prepares the intermediate from |0..0>; undoing the
    # prefix moves (their forward gates, newest first) then carries it on
    # to the requested target — the exact assembly rule of
    # :func:`repro.core.moves.moves_to_circuit`
    circuit = QCircuit(state.num_qubits, suffix.circuit.gates)
    for move in reversed(prefix):
        circuit.extend(move.forward_gates())
    full_moves = prefix + list(suffix.moves) if suffix.moves else []
    result = SearchResult(circuit=circuit,
                          cnot_cost=costs[best_i] + suffix.cnot_cost,
                          optimal=False, moves=full_moves,
                          stats=suffix.stats)
    return result, outcome.deadline_expired


class SynthesisService:
    """Request-level orchestration over memory + portfolio + cache."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        from repro.arch.topologies import native_topology
        # a full map means the unrestricted model: normalize at boot so
        # the request check, stats, and the engines all agree with the
        # regime fingerprint (which normalizes the same way); a
        # disconnected map fails here, not at the first request
        self.config.search.topology = \
            native_topology(self.config.search.topology)
        # obs first: WAL boot already wants to report replay/truncation
        self.obs = build_obs(self.config.obs)
        self.wal: MemoryWAL | None = None
        if self.config.wal_path is not None:
            # the WAL's compacted sidecar + replayed records win over the
            # plain snapshot, which only seeds the very first boot
            fallback = self.config.snapshot_path
            if fallback is not None and not os.path.exists(fallback):
                fallback = None
            self.memory, self.wal = MemoryWAL.boot(
                self.config.wal_path, fallback_snapshot=fallback,
                compact_interval=self.config.wal_compact_interval,
                obs=self.obs)
        elif self.config.snapshot_path is not None:
            self.memory = load_memory_snapshot(self.config.snapshot_path)
        else:
            self.memory = SearchMemory()
        regime = search_regime_dict(self.config.search)
        self.regime = regime
        # A snapshot recorded under a different regime must fail at boot,
        # not at the first unlucky request.
        self.memory.pin(fingerprint_from_dict(regime))
        self.cache = None
        if self.config.use_cache:
            cache_path = self.config.cache_snapshot_path
            if cache_path is not None and os.path.exists(cache_path):
                from repro.service.persistence import load_request_cache
                # regime (incl. topology) checked before any entry lands;
                # the configured cap wins over the snapshot's recorded one
                self.cache = load_request_cache(cache_path, regime,
                                                cap=self.config.cache_cap)
            else:
                self.cache = RequestCache(regime, self.config.cache_cap)
        self.scheduler = RequestScheduler(
            max_inflight=self.config.max_inflight, obs=self.obs)
        self.requests = 0
        self.cache_hits = 0
        self.errors = 0
        self.busy_rejections = 0
        #: near-hit path outcomes (``op: fast``), mirrored to obs when
        #: enabled: served / verify_failed / truncated / no_neighbor
        self.nearhits = {"served": 0, "verify_failed": 0,
                         "truncated": 0, "no_neighbor": 0}

    def save_cache_snapshot(self, path=None) -> str | None:
        """Persist the request cache (no-op without a cache or a path)."""
        path = path or self.config.cache_snapshot_path
        if self.cache is None or path is None:
            return None
        from repro.service.persistence import save_request_cache
        save_request_cache(self.cache, path)
        return str(path)

    # -- request plumbing ------------------------------------------------

    def _request_deadline(self, request: dict) -> float | None:
        """Effective wall-clock budget of one request (ms or ``None``).

        The request's own ``deadline_ms`` overrides the service default;
        the single resolution point for both the serve and batch paths,
        so the same field can never mean different things between them.
        """
        deadline = request.get("deadline_ms", self.config.deadline_ms)
        return None if deadline is None else float(deadline)

    def _check_topology(self, request: dict, state: QState) -> None:
        """Reject requests whose device disagrees with the service regime.

        The memory and the request cache are pinned to one topology (part
        of the regime fingerprint), so a request for a different device
        must fail loudly instead of being served entries computed for
        another coupling map.  ``topology`` may be a family name (sized by
        the request's register) or a canonical ``{size, edges}`` dict.
        """
        spec = request.get("topology")
        if spec is None:
            return
        from repro.arch.topologies import CouplingMap, named_topology

        if isinstance(spec, str):
            requested = named_topology(spec, state.num_qubits)
        elif isinstance(spec, dict):
            requested = CouplingMap.from_canonical_dict(spec)
        else:
            raise ValueError(f"bad topology spec {spec!r}")
        service_topology = self.config.search.topology
        if requested.is_full() and service_topology is None:
            return  # all-to-all == the unrestricted service regime
        if service_topology is None or requested != service_topology:
            raise MemoryCompatibilityError(
                f"request topology {requested!r} does not match the "
                f"service topology {service_topology!r}; memory and cache "
                f"entries never mix across devices — boot a service with "
                f"--topology for this device")

    def handle(self, request: dict) -> dict:
        """One request dict in, one response dict out (never raises).

        The synchronous front door (stdin ``serve``, ``prepare --mode
        fast``, tests): :meth:`submit`, then drive the scheduler until
        this request's reply arrives.  An ``exact`` or ``prepare`` request
        therefore runs exactly the session a socket client would get —
        same lanes, auto-tuning, deadline flush, and settle path.
        """
        replies: list[dict] = []
        self.submit(request, replies.append)
        while not replies and self.scheduler.run_turn():
            pass
        return replies[0]

    def _dispatch(self, rid, op: str, request: dict) -> dict:
        """Answer a control op or a ``fast`` request inline."""
        if op == "stats":
            return dict(self.stats(), id=rid, ok=True, op="stats")
        if op == "trace":
            if self.obs is None:
                raise ValueError(
                    "observability is disabled on this service; boot with "
                    "an enabled ObsConfig (serve does by default)")
            limit = request.get("limit", OBS_TRACE_DEFAULT_LIMIT)
            return {"id": rid, "ok": True, "op": "trace",
                    "emitted": self.obs.tracer.emitted,
                    "records": self.obs.trace_tail(int(limit))}
        if op == "snapshot":
            data = save_memory_snapshot(self.memory, request["path"])
            return {"id": rid, "ok": True, "op": "snapshot",
                    "path": request["path"],
                    "entries": len(data["canon_store"]) +
                    len(data["h_store"])}
        if op == "cache_snapshot":
            path = self.save_cache_snapshot(request.get("path"))
            return {"id": rid, "ok": path is not None,
                    "op": "cache_snapshot", "path": path,
                    "entries": 0 if self.cache is None
                    else len(self.cache)}
        state = parse_request_state(request)
        self._check_topology(request, state)
        if op == "fast":
            _check_search_width(op, state)
            return self._handle_fast(rid, state, request)
        raise ValueError(f"unknown op {op!r}")

    # -- synthesis paths -------------------------------------------------

    def _handle_fast(self, rid, state: QState, request: dict) -> dict:
        """Latency-first serving: cache → near-hit → learned-tier search.

        Tier 1 answers from the ``fast`` and ``exact`` cache namespaces.
        Tier 2 adapts a signature-indexed donor circuit
        (:func:`_adapt_near_hit`) and serves it only after the simulator
        confirms it prepares the requested state — a failed verification
        or an unusable donor silently falls through.  Tier 3 is a full
        interleaved search with the pattern database's learned
        (inadmissible) bound tier, also verified before serving.  Results
        land only in the ``fast`` namespace (they may be non-optimal, so
        they must never answer ``exact`` traffic), and deadline-truncated
        ones are never cached at all.
        """
        from repro.sim.verify import prepares_state

        start = time.perf_counter()
        deadline_ms = self._request_deadline(request)
        signature = entanglement_signature(state)
        if self.cache is not None:
            for namespace in ("fast", "exact"):
                result = self.cache.get(namespace, state)
                if result is not None:
                    self.cache_hits += 1
                    if self.obs is not None:
                        self.obs.cache_hit(rid, result.cnot_cost)
                    return self._exact_response(
                        rid, request, result, start, op="fast",
                        engine="cache", cached=True)
            suffix_ms = NEARHIT_SUFFIX_DEADLINE_MS \
                if deadline_ms is None else deadline_ms
            donors = (self.cache.near("exact", signature)
                      + self.cache.near("fast", signature))
            for _payload, donor in donors[:NEARHIT_DONOR_CANDIDATES]:
                adapted = _adapt_near_hit(
                    state, donor, self.config.search, self.config.specs,
                    self.memory, suffix_ms)
                if adapted is None:
                    continue
                result, truncated = adapted
                if not prepares_state(result.circuit, state):
                    self._note_nearhit("verify_failed")
                    continue
                if result.cnot_cost <= \
                        self.memory.pdb.admissible_bound(signature):
                    # a sound structural bound certifies the adapted cost
                    result = replace(result, optimal=True)
                self._note_nearhit("truncated" if truncated else "served")
                self.memory.pdb.observe(signature,
                                        solved_cost=result.cnot_cost,
                                        optimal=result.optimal)
                if not truncated:
                    self.cache.put("fast", state, result,
                                   signature=signature)
                self._wal_record()
                response = self._exact_response(
                    rid, request, result, start, op="fast",
                    engine="nearhit", deadline_expired=truncated)
                response.update(near_hit=True, verified=True)
                return response
            if not donors:
                self._note_nearhit("no_neighbor")
        outcome = interleaved_portfolio(
            state, self.config.search, self.config.specs,
            memory=self.memory, deadline_ms=deadline_ms,
            pdb_tier="learned")
        if outcome.solved and \
                not prepares_state(outcome.result.circuit, state):
            # never expected (move replay is exact); refuse to serve an
            # unverified fast-mode circuit rather than trust it
            raise RuntimeError(
                "fast-mode search result failed simulator verification")
        response = self._finish_exact(rid, request, state, outcome, start,
                                      mode="fast")
        if outcome.solved:
            response["verified"] = True
        return response

    def _note_nearhit(self, outcome: str) -> None:
        self.nearhits[outcome] += 1
        if self.obs is not None:
            self.obs.near_hit(outcome)

    def _exact_response(self, rid, request: dict, result: SearchResult,
                        start: float, *, engine: str | None,
                        op: str = "exact", cached: bool = False,
                        deadline_expired: bool = False) -> dict:
        """The one ``exact``/``fast`` success response (cache hit, near
        hit, or settled search)."""
        response = {"id": rid, "ok": True, "op": op,
                    "cnot_cost": result.cnot_cost,
                    "optimal": result.optimal, "engine": engine,
                    "cached": cached,
                    "seconds": round(time.perf_counter() - start, 6)}
        if deadline_expired:
            response["deadline_expired"] = True
        if request.get("return_circuit"):
            response["circuit"] = circuit_to_dict(result.circuit)
        return response

    def _prepare_response(self, rid, request: dict, result, start: float,
                          *, cached: bool = False,
                          deadline_expired: bool = False) -> dict:
        """The one ``prepare`` success response (cache hit or settled
        workflow session); ``result`` is a ``QSPResult``."""
        response = {"id": rid, "ok": True, "op": "prepare",
                    "cnot_cost": result.cnot_cost,
                    "exact_optimal": result.exact_optimal,
                    "sparse_path": result.sparse_path, "cached": cached,
                    "seconds": round(time.perf_counter() - start, 6)}
        if deadline_expired:
            response["deadline_expired"] = True
        if request.get("trace"):
            response["trace"] = list(result.trace)
        if request.get("return_circuit"):
            response["circuit"] = circuit_to_dict(result.circuit)
        return response

    def _finish_exact(self, rid, request: dict, state: QState,
                      outcome, start: float, mode: str = "exact") -> dict:
        """Portfolio outcome → response: the settle path shared by
        ``exact`` sessions and the ``fast`` fallback search (cache put,
        WAL append, PDB evidence distillation, response shape).  ``mode``
        is both the response op and the cache namespace — fast-mode
        results may be non-optimal and must never land under
        ``exact``."""
        deadline_expired = outcome.deadline_expired
        signature = entanglement_signature(state)
        if not outcome.solved:
            if outcome.lower_bound and not deadline_expired:
                # an exhausted search's bound is member evidence for the
                # signature's learned tier (never the admissible one)
                self.memory.pdb.observe(signature,
                                        lower_bound=outcome.lower_bound)
            self._wal_record()
            response = {"id": rid, "ok": False, "op": mode,
                        "lower_bound": outcome.lower_bound,
                        "error": "no portfolio lane produced a "
                                 "circuit within budget"}
            if deadline_expired:
                response["deadline_expired"] = True
            return response
        result = outcome.result
        self.memory.pdb.observe(signature, solved_cost=result.cnot_cost,
                                optimal=result.optimal)
        if self.cache is not None and not deadline_expired:
            # a deadline-truncated answer reflects a wall-clock
            # cutoff, not the request's search budgets — caching it
            # would serve the truncation to later, unhurried requests
            self.cache.put(mode, state, result, signature=signature)
        self._wal_record()
        return self._exact_response(rid, request, result, start, op=mode,
                                    engine=outcome.winner,
                                    deadline_expired=deadline_expired)

    def _wal_record(self) -> None:
        """Append what the memory just learned to the WAL (if configured)."""
        if self.wal is not None:
            self.wal.record_learned()

    # -- concurrent admission path ---------------------------------------

    def submit(self, request: dict, reply, client: object = None) -> bool:
        """Non-blocking admission: the one entry point of every request.

        Control ops, ``fast``, parse/validation errors, cache hits, and
        busy rejections are answered immediately through ``reply`` and
        the method returns ``False``.  An ``exact`` or ``prepare`` cache
        miss registers a :class:`RequestSession` with the scheduler and
        returns ``True`` — the reply arrives later, when the scheduler
        settles the session.  An ``exact`` session carries the portfolio
        lanes (auto-tuned from lane history, see
        :func:`~repro.service.portfolio.autotune_specs`); a ``prepare``
        session wraps the whole workflow in a stepwise
        :class:`~repro.qsp.workflow.WorkflowRun`, so a dense preparation
        time-shares with light ``exact`` traffic.  Beyond the admission
        cap the request is answered ``ok: false, busy: true``.
        """
        rid = request.get("id")
        op = request.get("op", "prepare")
        self.requests += 1
        if self.obs is not None:
            # count every outcome, immediate or settled, through the one
            # reply funnel
            inner_reply = reply

            def reply(response, _inner=inner_reply, _op=op):
                self.obs.request(_op, _outcome_of(response))
                _inner(response)
        start = time.perf_counter()
        try:
            if op in ("exact", "prepare"):
                response = self._admit(rid, op, request, reply, client,
                                       start)
            else:
                response = self._dispatch(rid, op, request)
        except Exception as exc:
            self.errors += 1
            response = {"id": rid, "ok": False,
                        "error": f"{type(exc).__name__}: {exc}"}
        if response is None:
            return True  # the scheduler replies when the session settles
        reply(response)
        return False

    def _admit(self, rid, op: str, request: dict, reply, client,
               start: float) -> dict | None:
        """Answer an ``exact``/``prepare`` request from the cache, reject
        it as busy, or register its session (``None``)."""
        state = parse_request_state(request)
        self._check_topology(request, state)
        if op == "exact":
            _check_search_width(op, state)
        deadline_ms = self._request_deadline(request)
        if self.cache is not None:
            result = self.cache.get(op, state)
            if result is not None:
                self.cache_hits += 1
                if self.obs is not None:
                    self.obs.cache_hit(rid, result.cnot_cost)
                if op == "prepare":
                    return self._prepare_response(rid, request, result,
                                                  start, cached=True)
                return self._exact_response(rid, request, result, start,
                                            engine="cache", cached=True)
        if self.scheduler.full:
            self.busy_rejections += 1
            if self.obs is not None:
                self.obs.busy_rejected(rid)
            return {"id": rid, "ok": False, "busy": True, "op": op,
                    "error": f"service at max in-flight requests "
                             f"({self.scheduler.max_inflight})"}
        if self.obs is not None:
            self.obs.admission(rid, op, deadline_ms,
                               len(self.scheduler.sessions))
        if op == "prepare":
            run = WorkflowRun(state, self.config.qsp, memory=self.memory,
                              topology=self.config.search.topology)
            lanes = WorkflowLanes(run, deadline_ms=deadline_ms, tag=rid,
                                  obs=self.obs)
            on_settle = self._settle_prepare
        else:
            specs, budgets = autotune_specs(self.config.specs, self.memory)
            lanes = LaneScheduler(state, self.config.search, specs,
                                  memory=self.memory,
                                  deadline_ms=deadline_ms,
                                  slice_budgets=budgets, tag=rid,
                                  obs=self.obs)
            on_settle = self._settle_exact
        self.scheduler.submit(RequestSession(
            rid=rid, request=request, state=state, lanes=lanes,
            reply=reply, on_settle=on_settle, client=client, start=start))
        return None

    def _settle_exact(self, session: RequestSession, outcome) -> dict:
        """Settle hook for ``exact`` sessions."""
        return self._finish_exact(session.rid, session.request,
                                  session.state, outcome, session.start)

    def _settle_prepare(self, session: RequestSession, outcome) -> dict:
        """Settle hook for ``prepare`` sessions.

        A deadline-flushed best-so-far answer is marked
        ``deadline_expired`` and never enters the request cache (it
        reflects the wall-clock cutoff, not the configured budgets)."""
        rid, request, state = session.rid, session.request, session.state
        deadline_expired = outcome.deadline_expired
        self._wal_record()
        if not outcome.solved:
            error = next((row.get("error") for row in outcome.attempts
                          if row.get("error")),
                         "the workflow produced no circuit within the "
                         "deadline")
            response = {"id": rid, "ok": False, "op": "prepare",
                        "error": error}
            if deadline_expired:
                response["deadline_expired"] = True
            return response
        result = outcome.result
        if self.cache is not None and not deadline_expired:
            self.cache.put("prepare", state, result)
        return self._prepare_response(rid, request, result, session.start,
                                      deadline_expired=deadline_expired)

    def shutdown(self, drain_ms: float = SHUTDOWN_DRAIN_MS) -> dict:
        """Graceful shutdown: drain sessions, compact the WAL, persist.

        In-flight sessions get ``drain_ms`` of wall clock to finish
        normally; whatever remains is deadline-flushed (every pending
        caller still receives its best-so-far answer).  The WAL is then
        compacted into its sidecar snapshot and closed, and the request
        cache persisted — a warm boot starts with every piece of knowledge
        (and every cached answer) this process had, while the memory's
        canon-key and heuristic caches start cold and refill from traffic.
        """
        flushed = self.scheduler.drain(drain_ms)
        if self.wal is not None:
            self.wal.close()  # compacts into the sidecar snapshot
        cache_path = self.save_cache_snapshot()
        if self.obs is not None:
            self.obs.tracer.event("shutdown", drained=flushed)
            self.obs.close()
        return {"drained": flushed, "cache_snapshot": cache_path,
                "wal_snapshot": None if self.wal is None
                else str(self.wal.snapshot_path)}

    def stats(self) -> dict:
        """Service counters (also served as the ``stats`` op)."""
        topology = self.config.search.topology
        return {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "errors": self.errors,
            "busy_rejections": self.busy_rejections,
            "topology": None if topology is None
            else topology.to_canonical_dict(),
            "nearhit": dict(self.nearhits),
            "cache": None if self.cache is None else self.cache.snapshot(),
            "signature_index": None if self.cache is None
            else self.cache.signature_occupancy(),
            "memory": self.memory.snapshot(),
            "scheduler": self.scheduler.snapshot(),
            "wal": None if self.wal is None else self.wal.snapshot(),
            "metrics": None if self.obs is None
            else self.obs.metrics_snapshot(self),
        }

    # -- batch mode ------------------------------------------------------

    def run_batch_file(self, in_path, out_path, workers: int = 1,
                       with_circuit: bool = False) -> dict:
        """File in / file out: one JSONL request per line, one response.

        Every line is an ``exact`` request (the batch workload of the
        ROADMAP: many small cores, one warm memory), whatever its ``op``
        says.  Lines go through :meth:`submit` — this service's, or a
        :class:`~repro.service.pool.WorkerPool`'s for ``workers >= 2`` —
        with one request in flight per worker, so a batch row is answered
        exactly as a ``serve`` request would be.  Rows come back in input
        order.
        """
        requests: list[tuple[int, dict]] = []
        rows: dict[int, dict] = {}
        with open(in_path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle):
                line = line.strip()
                if not line:
                    continue
                try:
                    requests.append((lineno, parse_request_line(line)))
                except ValueError as exc:
                    rows[lineno] = {"id": None, "ok": False,
                                    "error": f"bad request line: {exc}"}
        # Dedupe identical targets within the file: repeated traffic is
        # the expected batch shape, and without grouping the duplicates
        # would each run a full search (possibly in different workers,
        # blind to each other).  One representative searches; the result
        # fans out to every duplicate line.  The group key includes the
        # request's effective deadline, so a deadline-truncated answer
        # never fans out to a duplicate that asked for a full search.
        groups: dict[object, list[int]] = {}
        interner = StatePool()
        for pos, request in requests:
            try:
                state = parse_request_state(request)
                key = (interner.from_qstate(state).payload,
                       self._request_deadline(request))
            except Exception:
                key = pos  # its own group: submit() reports the error
            groups.setdefault(key, []).append(pos)
        request_by_pos = dict(requests)
        representatives = [members[0] for members in groups.values()]
        answers: dict[int, dict] = {}
        workers = max(1, workers)
        target = self
        if workers >= 2:
            from repro.service.pool import WorkerPool
            target = WorkerPool(self.config, workers)
        try:
            submitted = 0
            while len(answers) < len(representatives):
                while submitted < len(representatives) and \
                        submitted - len(answers) < workers:
                    pos = representatives[submitted]
                    submitted += 1
                    target.submit(dict(request_by_pos[pos], op="exact",
                                       return_circuit=with_circuit),
                                  partial(answers.__setitem__, pos))
                target.scheduler.run_turn()
        finally:
            if target is not self:
                target.shutdown(drain_ms=0.0)
        for members in groups.values():
            answer = answers[members[0]]
            for pos in members:
                row = dict(answer, id=request_by_pos[pos].get("id", pos))
                if pos != members[0]:
                    row["cached"] = True
                rows[pos] = row
        with open(out_path, "w", encoding="utf-8") as handle:
            for pos in sorted(rows):
                handle.write(json.dumps(rows[pos]) + "\n")
        summary = {"requests": len(requests),
                   "solved": sum(1 for r in rows.values() if r.get("ok")),
                   "cache_hits": sum(1 for r in rows.values()
                                     if r.get("cached")),
                   "workers": workers}
        if target is not self:
            summary["pool"] = target.routing_snapshot()
        return summary


def _outcome_of(response: dict) -> str:
    """Classify a response for the ``qsp_requests_total`` counter."""
    if response.get("busy"):
        return "busy"
    if not response.get("ok"):
        return "error"
    if response.get("deadline_expired"):
        return "deadline_flush"
    if response.get("cached"):
        return "cached"
    return "ok"


def parse_request_line(line: str) -> dict:
    """One wire line → request dict; raises ``ValueError`` on bad input.

    Shared by the stdin loop and the socket front end so the two
    protocols reject exactly the same garbage with the same message.
    """
    request = json.loads(line)
    if not isinstance(request, dict):
        raise ValueError(f"request must be a JSON object, got "
                         f"{type(request).__name__}")
    return request


def serve_loop(service: SynthesisService, in_stream, out_stream) -> int:
    """The ``repro-qsp serve`` request loop: JSONL in, JSONL out.

    Runs until the input stream ends or a ``shutdown`` op arrives; every
    input line produces exactly one output line, errors included, so a
    pipelined client can match responses by position as well as by id.
    Nothing a client sends can take the loop down: malformed JSON, an
    unknown ``op``, and even an unexpected exception escaping the
    handler all turn into an ``ok: false`` response (echoing the request
    ``id`` when one was parsed) and the loop reads on.
    Returns the number of requests handled.
    """
    handled = 0
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        try:
            request = parse_request_line(line)
        except ValueError as exc:
            response: dict = {"ok": False,
                              "error": f"bad request line: {exc}"}
            request = None
        else:
            if request.get("op") == "shutdown":
                out_stream.write(json.dumps(
                    {"id": request.get("id"), "ok": True,
                     "op": "shutdown"}) + "\n")
                out_stream.flush()
                handled += 1
                break
            try:
                response = service.handle(request)
            except Exception as exc:
                # handle() already converts request-level failures; this
                # is the last-resort guard for handler bugs — the server
                # must outlive any single request
                service.errors += 1
                response = {"id": request.get("id"), "ok": False,
                            "error": f"{type(exc).__name__}: {exc}"}
        handled += 1
        out_stream.write(json.dumps(response) + "\n")
        out_stream.flush()
    return handled
