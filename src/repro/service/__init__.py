"""Synthesis service layer: persistence, portfolio scheduling, caching.

Turns the search kernel + persistent :class:`~repro.core.memory.SearchMemory`
into a long-lived synthesis service:

* :mod:`repro.service.persistence` — versioned on-disk snapshots of a
  ``SearchMemory`` (warm-start files), gated by the regime fingerprint;
* :mod:`repro.service.portfolio` — the engine portfolio per request:
  every lane time-sliced in one process, feasible costs shared as live
  incumbents, first proven optimum cancels the rest;
* :mod:`repro.service.cache` — exact-hit request cache mapping target
  states to finished :class:`~repro.qsp.workflow.QSPResult` objects;
* :mod:`repro.service.scheduler` — the cross-request expansion
  scheduler: many in-flight requests fair-share slices in one process
  (earliest-deadline-first, round-robin for undeadlined requests);
* :mod:`repro.service.server` — the :class:`SynthesisService` facade
  behind ``repro-qsp serve`` (stdin/stdout JSONL) and ``repro-qsp batch``
  (file in / file out); every ``exact``/``prepare`` request, whatever
  its front door, is a scheduler session;
* :mod:`repro.service.pool` — ``--workers N``: N service processes
  behind one router (``serve --listen`` and ``batch``);
* :mod:`repro.service.asyncserver` — the asyncio socket front end
  (``serve --listen``): many concurrent clients, out-of-order responses
  matched by id, graceful drain + WAL compaction at shutdown.
"""

from repro.service.cache import RequestCache
from repro.service.persistence import MemoryWAL, load_memory_snapshot, \
    save_memory_snapshot
from repro.service.portfolio import (
    EngineSpec,
    LaneScheduler,
    PortfolioOutcome,
    autotune_specs,
    default_portfolio,
    interleaved_portfolio,
)
from repro.service.scheduler import RequestScheduler, RequestSession
from repro.service.server import ServiceConfig, SynthesisService, serve_loop

__all__ = [
    "RequestCache",
    "MemoryWAL",
    "save_memory_snapshot",
    "load_memory_snapshot",
    "EngineSpec",
    "LaneScheduler",
    "PortfolioOutcome",
    "autotune_specs",
    "default_portfolio",
    "interleaved_portfolio",
    "RequestScheduler",
    "RequestSession",
    "ServiceConfig",
    "SynthesisService",
    "serve_loop",
]
