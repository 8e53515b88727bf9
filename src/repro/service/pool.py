"""Multi-process serving tier: ``serve --listen ... --workers N``, ``batch``.

One asyncio acceptor (the unchanged :class:`~repro.service.asyncserver
.AsyncFrontEnd`) fronts ``N`` scheduler processes, each running a full
:class:`~repro.service.server.SynthesisService` — its own cross-request
scheduler, request cache, :class:`~repro.core.memory.SearchMemory`, and
WAL shard (``<wal>.w<i>`` + sidecar).  :class:`WorkerPool` duck-types
the exact service surface the front end drives (``submit`` /
``scheduler.pending`` / ``scheduler.run_turn`` /
``scheduler.cancel_client`` / ``shutdown`` / ``errors`` / ``obs``), so
the acceptor cannot tell a pool from an inline service.

Routing is least-in-flight with signature-affinity stickiness: a
request whose entanglement signature was last served by worker ``w``
stays on ``w`` while ``w``'s load is within
:data:`~repro.constants.POOL_STICKY_SLACK` of the least-loaded worker,
so the flywheel caches (request cache, near-hit donors, PDB evidence)
for a traffic cluster heat up in one process instead of being diluted
across all of them.

What one worker learns, the others receive: every
:data:`~repro.constants.POOL_CROSS_MERGE_INTERVAL` settled requests the
router pulls each worker's learned-knowledge delta (transposition
entries, PDB evidence, lane stats; each worker's canon-key and heuristic
caches stay its own) — the same WAL-record wire shape
:class:`~repro.service.persistence.MemoryWAL` appends to disk — and fans
it out to every *other* worker
(:func:`~repro.service.persistence.merge_wal_delta`).  Deltas are
improve-only and idempotent, so ordering, re-shipment, and crossing
with a worker's own learning are all harmless; the interval trades
only propagation latency against IPC volume.

Graceful drain fans out: each worker runs its own
:meth:`~repro.service.server.SynthesisService.shutdown` (deadline-flush
of in-flight sessions — every pending caller still gets its
best-so-far answer — then WAL compaction and cache persistence), and
the pool aggregates the per-worker summaries.

All pool IPC runs over :mod:`multiprocessing` pipes from the event-loop
thread; the parent never blocks longer than one short
:func:`multiprocessing.connection.wait` per scheduler turn, so socket
reads and writes stay live exactly as with an inline service.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, replace
from multiprocessing.connection import wait as _connection_wait

from repro.constants import (
    POOL_CROSS_MERGE_INTERVAL,
    POOL_STICKY_SLACK,
    SHUTDOWN_DRAIN_MS,
)
from repro.core.pdb import entanglement_signature
from repro.obs import ObsConfig, build_obs
from repro.service.persistence import merge_wal_delta
from repro.service.server import (
    ServiceConfig,
    SynthesisService,
    parse_request_state,
)
from repro.utils.serialization import (
    memory_baseline,
    memory_delta_is_empty,
    memory_to_dict,
    wal_record_to_dict,
)

__all__ = ["WorkerPool", "worker_shard_path"]

#: Wall-clock allowance (seconds) for a blocking control-op round trip
#: to a worker before the router gives up and answers with an error
#: (control ops are cheap — stats, snapshots, trace — so a worker that
#: cannot answer within this is wedged, not busy).
_CONTROL_TIMEOUT_S = 30.0

#: Per-turn poll window (seconds) of the router: short enough that the
#: event loop stays responsive, long enough to sleep instead of
#: busy-spinning when every worker is deep in a search.
_TURN_WAIT_S = 0.005

#: Signature-affinity entries kept before the oldest mapping is
#: forgotten (affinity is a cache hint, never correctness).
_AFFINITY_CAP = 1 << 16


def worker_shard_path(base: str | None, index: int) -> str | None:
    """Per-worker variant of a shared persistence path (``<base>.w<i>``).

    Applied to both the WAL (whose sidecar snapshot then lands at
    ``<base>.w<i>.snapshot``) and the request-cache snapshot, so ``N``
    workers never contend for one append-only file.
    """
    return None if base is None else f"{base}.w{index}"


def _pool_worker_main(conn, config: ServiceConfig, index: int) -> None:
    """One worker process: a full service driven by pipe messages.

    The loop interleaves the message pump with scheduler turns the same
    way the asyncio driver does — one turn, then a poll — so a routed
    light request is admitted (and time-shared) while a heavy one runs.
    Message kinds from the router:

    ``("request", mid, request, token_key)``
        Admit via ``service.submit``; the reply (immediate or settled)
        travels back as ``("reply", mid, response)``.  ``token_key`` is
        interned to a process-local identity object so the scheduler's
        ``is``-based client matching works across pickling.
    ``("cancel", token_key)``
        The client disconnected: abort its in-flight sessions.
    ``("merge", record)``
        Fold a sibling worker's learned delta into this memory.
    ``("pull",)``
        Ship what this memory learned since the last pull as
        ``("delta", index, record-or-None)``.
    ``("handle", mid, request)``
        Synchronous control op; answered as a ``reply``.
    ``("drain", drain_ms)``
        Graceful shutdown; answers ``("drained", index, summary)`` and
        exits the loop.
    """
    service = SynthesisService(config)
    tokens: dict[int, object] = {}
    baseline = memory_baseline(service.memory)
    pull_seq = 0
    try:
        while True:
            timeout = 0.0 if service.scheduler.pending else 0.05
            if conn.poll(timeout):
                message = conn.recv()
                kind = message[0]
                if kind == "request":
                    _, mid, request, token_key = message
                    client = tokens.setdefault(token_key, object())

                    def reply(response: dict, _mid=mid) -> None:
                        conn.send(("reply", _mid, response))

                    try:
                        service.submit(request, reply, client=client)
                    except Exception as exc:  # same guard as the loops
                        service.errors += 1
                        reply({"id": request.get("id"), "ok": False,
                               "error": f"{type(exc).__name__}: {exc}"})
                elif kind == "cancel":
                    client = tokens.pop(message[1], None)
                    if client is not None:
                        service.scheduler.cancel_client(client)
                elif kind == "merge":
                    merge_wal_delta(service.memory, message[1])
                elif kind == "pull":
                    delta = memory_to_dict(service.memory, since=baseline)
                    if memory_delta_is_empty(delta):
                        conn.send(("delta", index, None))
                    else:
                        pull_seq += 1
                        baseline = memory_baseline(service.memory)
                        conn.send(("delta", index,
                                   wal_record_to_dict(pull_seq, delta)))
                elif kind == "handle":
                    _, mid, request = message
                    conn.send(("reply", mid, service.handle(request)))
                elif kind == "drain":
                    summary = service.shutdown(message[1])
                    summary["worker"] = index
                    conn.send(("drained", index, summary))
                    return
            elif service.scheduler.pending:
                service.scheduler.run_turn()
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # router gone (or interrupt): nothing left to serve
    finally:
        conn.close()


@dataclass
class _Worker:
    index: int
    process: object
    conn: object
    inflight: int = 0
    summary: dict | None = None

    @property
    def alive(self) -> bool:
        return self.summary is None and self.process.is_alive()


class _PoolScheduler:
    """The scheduler-shaped surface the async front end drives."""

    def __init__(self, pool: "WorkerPool") -> None:
        self._pool = pool

    @property
    def sessions(self):
        """In-flight request ids (sized by ``obs.collect``)."""
        return self._pool._callbacks

    @property
    def pending(self) -> bool:
        return bool(self._pool._callbacks)

    def run_turn(self) -> bool:
        return self._pool._run_turn()

    def cancel_client(self, client: object) -> None:
        self._pool._cancel_client(client)

    def snapshot(self) -> dict:
        return self._pool.routing_snapshot()


class WorkerPool:
    """N service processes behind one acceptor (see the module docstring).

    Construct *before* starting the event loop (workers are forked at
    construction).  ``config`` is the single-service configuration; each
    worker receives a copy with per-worker persistence shards
    (:func:`worker_shard_path`) and observability disabled — the pool's
    own ``obs`` (built from ``obs_config``) carries the ``qsp_pool_*``
    routing/merge metrics and serves the ``--metrics`` exposition.
    """

    def __init__(self, config: ServiceConfig, workers: int,
                 obs_config: ObsConfig | None = None) -> None:
        if workers < 2:
            raise ValueError(
                f"a worker pool needs at least 2 workers, got {workers} "
                f"(run the inline service instead)")
        self.config = config
        self.num_workers = workers
        self.obs = build_obs(obs_config)
        self.errors = 0
        #: the front end's duck-typed surface expects these (obs.collect
        #: skips memory/cache occupancy when they are None)
        self.memory = None
        self.cache = None
        self.scheduler = _PoolScheduler(self)
        self._workers: list[_Worker] = []
        self._by_conn: dict = {}
        ctx = multiprocessing.get_context("fork")
        for index in range(workers):
            parent_conn, child_conn = ctx.Pipe()
            worker_config = replace(
                config,
                wal_path=worker_shard_path(config.wal_path, index),
                cache_snapshot_path=worker_shard_path(
                    config.cache_snapshot_path, index),
                obs=None)
            process = ctx.Process(target=_pool_worker_main,
                                  args=(child_conn, worker_config, index),
                                  daemon=True)
            process.start()
            child_conn.close()
            worker = _Worker(index=index, process=process, conn=parent_conn)
            self._workers.append(worker)
            self._by_conn[parent_conn] = worker
        self._mid = 0
        #: mid -> (reply, worker index, token key) for requests in flight
        self._callbacks: dict[int, tuple] = {}
        self._client_keys: dict[object, int] = {}
        self._client_mids: dict[int, set[int]] = {}
        self._next_token_key = 0
        self._affinity: dict = {}
        self._settled_since_merge = 0
        # routing/merge counters (routing_snapshot + op: stats)
        self.routed = [0] * workers
        self.affinity_hits = 0
        self.merge_rounds = 0
        self.deltas_pulled = 0
        self.deltas_shipped = 0

    # -- admission (front-end surface) -----------------------------------

    def submit(self, request: dict, reply, client: object = None) -> bool:
        """Route one request; mirrors ``SynthesisService.submit``.

        Synthesis ops (``exact``/``prepare``/``fast``) are routed to a
        worker and settle asynchronously (returns ``True``).  ``stats``
        aggregates every worker plus the pool's routing section; the
        remaining control ops run on worker 0, whose shards are the
        pool's canonical persistence (returns ``False`` — answered
        before returning, like any control op).
        """
        op = request.get("op", "prepare")
        if op in ("exact", "prepare", "fast"):
            return self._route(request, reply, client)
        if op == "stats":
            reply(self._aggregate_stats(request))
            return False
        reply(self._control(0, request))
        return False

    def _route(self, request: dict, reply, client: object) -> bool:
        worker, policy = self._pick_worker(request)
        if worker is None:
            self.errors += 1
            reply({"id": request.get("id"), "ok": False,
                   "error": "no live pool workers"})
            return False
        self._mid += 1
        mid = self._mid
        token_key = self._token_key(client)
        try:
            worker.conn.send(("request", mid, request, token_key))
        except OSError:
            self.errors += 1
            reply({"id": request.get("id"), "ok": False,
                   "error": f"pool worker {worker.index} unreachable"})
            return False
        self._callbacks[mid] = (reply, worker.index, token_key,
                                request.get("id"))
        if token_key is not None:
            self._client_mids.setdefault(token_key, set()).add(mid)
        worker.inflight += 1
        self.routed[worker.index] += 1
        if self.obs is not None:
            self.obs.pool_routed_to(worker.index, policy, worker.inflight)
        return True

    def _pick_worker(self, request: dict):
        live = [w for w in self._workers if w.alive]
        if not live:
            return None, ""
        least = min(live, key=lambda w: (w.inflight, w.index))
        signature = self._signature_of(request)
        if signature is None:
            return least, "least_loaded"
        sticky = self._affinity.get(signature)
        if sticky is not None:
            worker = self._workers[sticky]
            if worker.alive and \
                    worker.inflight <= least.inflight + POOL_STICKY_SLACK:
                self.affinity_hits += 1
                return worker, "affinity"
        self._affinity[signature] = least.index
        if len(self._affinity) > _AFFINITY_CAP:
            self._affinity.pop(next(iter(self._affinity)))
        return least, "least_loaded"

    @staticmethod
    def _signature_of(request: dict):
        """Affinity key, or ``None`` when the request cannot say (a
        worker will then produce the real parse error)."""
        try:
            return entanglement_signature(parse_request_state(request))
        except Exception:
            return None

    def _token_key(self, client: object) -> int | None:
        if client is None:
            return None
        key = self._client_keys.get(client)
        if key is None:
            self._next_token_key += 1
            key = self._client_keys[client] = self._next_token_key
        return key

    # -- scheduler surface ------------------------------------------------

    def _run_turn(self) -> bool:
        """One router turn: drain whatever the workers have to say."""
        conns = [w.conn for w in self._workers if w.alive]
        if not conns:
            return False
        progressed = False
        for conn in _connection_wait(conns, timeout=_TURN_WAIT_S):
            worker = self._by_conn[conn]
            try:
                while conn.poll(0):
                    self._dispatch(worker, conn.recv())
                    progressed = True
            except (EOFError, OSError):
                self._worker_lost(worker)
        return progressed

    def _dispatch(self, worker: _Worker, message: tuple) -> None:
        kind = message[0]
        if kind == "reply":
            self._on_reply(message[1], message[2])
        elif kind == "delta":
            self._on_delta(message[1], message[2])
        elif kind == "drained":
            self._workers[message[1]].summary = message[2]

    def _on_reply(self, mid: int, response: dict) -> None:
        entry = self._callbacks.pop(mid, None)
        if entry is None:
            return  # cancelled while the reply was in flight
        reply, worker_index, token_key, _rid = entry
        worker = self._workers[worker_index]
        worker.inflight = max(0, worker.inflight - 1)
        if token_key is not None:
            self._client_mids.get(token_key, set()).discard(mid)
        if self.obs is not None:
            self.obs.pool_worker_inflight(worker_index, worker.inflight)
        try:
            reply(response)
        except Exception:
            pass  # client gone mid-settle: nothing left to tell
        self._settled_since_merge += 1
        if self._settled_since_merge >= POOL_CROSS_MERGE_INTERVAL:
            self._begin_cross_merge()

    def _begin_cross_merge(self) -> None:
        """Ask every worker for its learned delta (answers arrive as
        ``delta`` messages through the normal turn loop — the router
        never blocks on the round)."""
        self._settled_since_merge = 0
        self.merge_rounds += 1
        for worker in self._workers:
            if worker.alive:
                try:
                    worker.conn.send(("pull",))
                except OSError:
                    self._worker_lost(worker)

    def _on_delta(self, source_index: int, record: dict | None) -> None:
        if record is None:
            return
        self.deltas_pulled += 1
        if self.obs is not None:
            self.obs.pool_delta_pulled(source_index)
        for worker in self._workers:
            if worker.index == source_index or not worker.alive:
                continue
            try:
                worker.conn.send(("merge", record))
            except OSError:
                self._worker_lost(worker)
                continue
            self.deltas_shipped += 1
            if self.obs is not None:
                self.obs.pool_delta_merged(worker.index)

    def _cancel_client(self, client: object) -> None:
        key = self._client_keys.pop(client, None)
        if key is None:
            return
        for mid in self._client_mids.pop(key, set()):
            entry = self._callbacks.pop(mid, None)
            if entry is not None:
                worker = self._workers[entry[1]]
                worker.inflight = max(0, worker.inflight - 1)
                if self.obs is not None:
                    self.obs.pool_worker_inflight(worker.index,
                                                  worker.inflight)
        for worker in self._workers:
            if worker.alive:
                try:
                    worker.conn.send(("cancel", key))
                except OSError:
                    self._worker_lost(worker)

    def _worker_lost(self, worker: _Worker) -> None:
        """A worker died mid-serve: fail its in-flight requests loudly
        (improve-only memory means nothing else needs repair)."""
        if worker.summary is None:
            worker.summary = {"worker": worker.index, "lost": True}
        for mid, entry in list(self._callbacks.items()):
            if entry[1] != worker.index:
                continue
            reply, _, token_key, rid = self._callbacks.pop(mid)
            if token_key is not None:
                self._client_mids.get(token_key, set()).discard(mid)
            self.errors += 1
            try:
                reply({"id": rid, "ok": False,
                       "error": f"pool worker {worker.index} died "
                                f"mid-request"})
            except Exception:
                pass
        worker.inflight = 0

    # -- control ops -------------------------------------------------------

    def _control(self, index: int, request: dict) -> dict:
        """Blocking round trip of one control op to one worker."""
        worker = self._workers[index]
        if not worker.alive:
            return {"id": request.get("id"), "ok": False,
                    "error": f"pool worker {index} is not running"}
        self._mid += 1
        mid = self._mid
        try:
            worker.conn.send(("handle", mid, request))
            return self._await_reply(worker, mid)
        except (EOFError, OSError):
            self._worker_lost(worker)
            return {"id": request.get("id"), "ok": False,
                    "error": f"pool worker {index} died during a "
                             f"control op"}

    def _await_reply(self, worker: _Worker, mid: int) -> dict:
        """Wait for one specific reply, dispatching everything else."""
        deadline = time.monotonic() + _CONTROL_TIMEOUT_S
        while time.monotonic() < deadline:
            if not worker.conn.poll(0.05):
                continue
            message = worker.conn.recv()
            if message[0] == "reply" and message[1] == mid:
                return message[2]
            self._dispatch(worker, message)
        raise OSError(f"pool worker {worker.index} control-op timeout")

    def _aggregate_stats(self, request: dict) -> dict:
        """``op: stats`` across the pool: summed front-door counters,
        per-worker sections, and the routing/merge section."""
        per_worker: dict[str, dict] = {}
        totals = {"requests": 0, "cache_hits": 0, "errors": self.errors,
                  "busy_rejections": 0}
        for worker in self._workers:
            if not worker.alive:
                per_worker[str(worker.index)] = {"ok": False,
                                                 "error": "not running"}
                continue
            stats = self._control(worker.index, dict(request, id=None))
            per_worker[str(worker.index)] = stats
            if stats.get("ok"):
                for key in ("requests", "cache_hits", "busy_rejections",
                            "errors"):
                    totals[key] += stats.get(key, 0)
        response = {"id": request.get("id"), "ok": True, "op": "stats",
                    **totals,
                    "pool": self.routing_snapshot(),
                    "workers": per_worker}
        if self.obs is not None:
            response["metrics"] = self.obs.metrics_snapshot(self)
        return response

    def routing_snapshot(self) -> dict:
        """Router counters (``op: stats`` ``pool`` section)."""
        return {
            "workers": self.num_workers,
            "live": sum(1 for w in self._workers if w.alive),
            "inflight": [w.inflight for w in self._workers],
            "routed": list(self.routed),
            "affinity_hits": self.affinity_hits,
            "affinity_entries": len(self._affinity),
            "merge_rounds": self.merge_rounds,
            "deltas_pulled": self.deltas_pulled,
            "deltas_shipped": self.deltas_shipped,
            "cross_merge_interval": POOL_CROSS_MERGE_INTERVAL,
            "sticky_slack": POOL_STICKY_SLACK,
        }

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, drain_ms: float = SHUTDOWN_DRAIN_MS) -> dict:
        """Fan the graceful drain out; aggregate the worker summaries.

        Replies workers flush during their drain are still delivered
        (the message pump keeps running until every worker reports
        ``drained`` or dies), so pending callers receive their
        best-so-far answers exactly as with an inline service.
        """
        for worker in self._workers:
            if worker.alive:
                try:
                    worker.conn.send(("drain", float(drain_ms)))
                except OSError:
                    self._worker_lost(worker)
        deadline = time.monotonic() + max(0.0, drain_ms) / 1000.0 + 10.0
        while time.monotonic() < deadline:
            waiting = [w for w in self._workers if w.summary is None
                       and w.process.is_alive()]
            if not waiting:
                break
            for conn in _connection_wait([w.conn for w in waiting],
                                         timeout=0.1):
                worker = self._by_conn[conn]
                try:
                    while conn.poll(0):
                        self._dispatch(worker, conn.recv())
                except (EOFError, OSError):
                    self._worker_lost(worker)
        for worker in self._workers:
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.terminate()
            if worker.summary is None:
                worker.summary = {"worker": worker.index, "lost": True}
        if self.obs is not None:
            self.obs.tracer.event(
                "pool_shutdown",
                drained=[w.summary.get("drained") for w in self._workers])
            self.obs.close()
        return {
            "drained": sum(w.summary.get("drained", 0) or 0
                           for w in self._workers),
            "workers": {str(w.index): w.summary for w in self._workers},
            "pool": self.routing_snapshot(),
        }
