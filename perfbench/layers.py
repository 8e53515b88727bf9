"""Counters and timing wrappers installed on the program from outside.

Nothing here edits program code: every wrapper replaces a name where
its *caller* looks it up (a module global or a class attribute), so
the program runs unchanged underneath.  Two levels:

* :class:`RunCounters` (every run) — low-frequency hooks that give the
  determinism fingerprint: expansions per engine when a run ends, and
  request-cache gets and puts.  It also lets calibration ticks run
  between engine steps, so a long request is calibrated while it runs.
* :class:`Tracer` (the traced run only) — per-layer count and self time.
  Outer layers also record one span per call, tagged with the request
  id (taken from the submitted request or the lane ``tag``); hot inner
  calls (successor enumeration, canonical keys, interning) only add to
  per-request aggregates.  A layer's self time is its duration minus
  the time its wrapped children cover.
"""

from __future__ import annotations

import json
import types
from collections import defaultdict
from time import perf_counter

#: pseudo-layer of calibration ticks that run inside a span
CALIB_LAYER = "bench.calib"

#: StepwiseRun.engine tag -> layer
ENGINE_LAYERS = {"astar": "core.astar", "beam": "core.beam",
                 "idastar": "core.idastar", "workflow": "qsp.workflow"}


def _patch_method(cls, name: str, make):
    """Replace ``cls.name`` (a plain function or classmethod) by
    ``make(original_function)``."""
    raw = cls.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(make(raw.__func__)))
    else:
        setattr(cls, name, make(raw))


class RunCounters:
    """Request-independent totals every run reports for its fingerprint."""

    def __init__(self) -> None:
        self.expansions: dict[str, int] = defaultdict(int)
        self.runs: dict[str, int] = defaultdict(int)
        #: A* expansions spent in runs that ended without a circuit
        self.astar_exhausted = 0
        self.cache_gets = 0
        self.cache_hits = 0
        self.cache_puts = 0
        self.core_reuse = 0

    def reset(self) -> None:
        self.__init__()

    def install(self, between_steps=None) -> None:
        """Install the hooks; ``between_steps()`` runs before every
        engine or workflow step (the calibrator's ``maybe_tick``)."""
        from repro.core.engine import RunStatus, StepwiseRun
        from repro.service.cache import RequestCache

        counters = self

        def ended(run) -> None:
            engine = run.engine
            if engine == "workflow":
                counters.core_reuse += run.core_reuse
                return  # its expansions are its inner engines'
            done = run.stats.nodes_expanded
            counters.expansions[engine] += done
            counters.runs[engine] += 1
            if engine == "astar" and run.status is not RunStatus.SOLVED:
                counters.astar_exhausted += done

        def finish(original):
            def _finish(run, status, **kwargs):
                original(run, status, **kwargs)
                ended(run)
            return _finish

        def cancel(original):
            def _cancel(run):
                live = not run.status.terminal
                original(run)
                if live:
                    ended(run)
            return _cancel

        def get(original):
            def _get(cache, mode, state):
                result = original(cache, mode, state)
                counters.cache_gets += 1
                counters.cache_hits += result is not None
                return result
            return _get

        def put(original):
            def _put(cache, *args, **kwargs):
                counters.cache_puts += 1
                return original(cache, *args, **kwargs)
            return _put

        def step(original):
            def _step(run, *args, **kwargs):
                between_steps()
                return original(run, *args, **kwargs)
            return _step

        if between_steps is not None:
            _patch_method(StepwiseRun, "step", step)
        _patch_method(StepwiseRun, "_finish", finish)
        _patch_method(StepwiseRun, "cancel", cancel)
        _patch_method(RequestCache, "get", get)
        _patch_method(RequestCache, "put", put)

    def fingerprint(self) -> dict:
        return {"expansions": dict(sorted(self.expansions.items())),
                "runs": dict(sorted(self.runs.items())),
                "astar_exhausted": self.astar_exhausted,
                "cache_gets": self.cache_gets,
                "cache_hits": self.cache_hits,
                "cache_puts": self.cache_puts,
                "core_reuse": self.core_reuse}


class Tracer:
    """Per-layer spans and aggregates for one traced run."""

    def __init__(self, calib_spent=lambda: 0.0) -> None:
        #: seconds spent in calibration ticks so far (a callable)
        self.calib_spent = calib_spent
        self.stack: list[list] = []
        self.rid = None
        self.boot_s: list[float] = []
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (called when timing starts)."""
        #: (rid, layer) -> [calls, inclusive seconds, self seconds]
        self.agg: dict[tuple, list] = {}
        #: outer spans: (layer, rid, start, end, parent layer)
        self.spans: list[tuple] = []
        #: seconds covered by outermost spans, and the calibration ticks
        #: that ran inside them
        self.covered_s = 0.0
        self.calib_nested_s = 0.0
        #: engine spans driven from inside a workflow (exact cores)
        self.exact_core_s = 0.0
        self.expansions: dict[str, int] = defaultdict(int)
        self.queue_waits: list[float] = []
        self.turns = 0
        self.rounds = 0
        self.lane_expansions = 0
        self.loser_expansions = 0
        self.wal_records = 0

    def wrap(self, fn, layer, outer: bool = True, rid_of=None,
             after=None):
        """``fn`` timed as ``layer`` (a name, or a function of the call's
        arguments).  ``rid_of(args)`` sets the request id for the call's
        duration; ``after(args, result)`` records call-specific counts."""
        tracer = self

        def traced(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(args)
            saved = tracer.rid
            if rid_of is not None:
                tracer.rid = rid_of(args)
            stack = tracer.stack
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                key = (tracer.rid, name)
                row = tracer.agg.get(key)
                if row is None:
                    row = tracer.agg[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]
                parent = stack[-1] if stack else None
                if parent is None:
                    if name != CALIB_LAYER:
                        tracer.covered_s += elapsed
                else:
                    parent[1] += elapsed
                    if name == CALIB_LAYER:
                        tracer.calib_nested_s += elapsed
                if outer:
                    tracer.spans.append(
                        (name, tracer.rid, start, end,
                         None if parent is None else parent[0]))
                    if parent is not None and parent[0] == "qsp.workflow" \
                            and name in _CORE_ENGINES:
                        tracer.exact_core_s += elapsed
                tracer.rid = saved
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import repro.baselines.mflow as mflow
        import repro.core.astar as astar
        import repro.core.beam as beam
        import repro.core.idastar as idastar
        import repro.core.kernel as kernel
        import repro.core.pdb as pdb
        import repro.core.transitions as transitions
        import repro.qsp.reduction as reduction
        import repro.qsp.workflow as workflow
        import repro.service.persistence as persistence
        import repro.service.server as server
        import repro.sim.verify as verify
        from repro.core.engine import StepwiseRun
        from repro.obs import ServiceObs
        from repro.service.cache import RequestCache
        from repro.service.portfolio import LaneScheduler
        from repro.service.scheduler import RequestScheduler, WorkflowLanes

        wrap = self.wrap

        def module_attr(modules, name, layer, outer=False):
            for module in modules:
                setattr(module, name,
                        wrap(getattr(module, name), layer, outer=outer))

        # hot inner calls: per-request aggregates only
        module_attr((astar, beam, idastar, kernel), "successors_packed",
                    "core.kernel.successors")
        _patch_method(kernel.CanonContext, "key",
                      lambda f: wrap(f, "core.kernel.canon", outer=False))
        _patch_method(kernel.StatePool, "_intern",
                      lambda f: wrap(f, "core.kernel.intern", outer=False))
        module_attr((transitions, reduction), "enumerate_merges",
                    "core.transitions.merges")
        module_attr((server, idastar, pdb), "entanglement_signature",
                    "core.pdb.signature")

        # engines: one span per step slice, expansions counted per slice
        def stepped(args, _status) -> None:
            run = args[0]
            self.expansions[ENGINE_LAYERS.get(run.engine, run.engine)] += \
                run.last_slice_expansions

        _patch_method(StepwiseRun, "step", lambda f: wrap(
            f, lambda a: ENGINE_LAYERS.get(a[0].engine, a[0].engine),
            after=stepped))
        for cls in (astar.AStarRun, beam.BeamRun, idastar.IDAStarRun):
            _patch_method(cls, "__init__",
                          lambda f: wrap(f, "core.engine"))

        # workflow stages
        module_attr((workflow,), "reduce_cardinality", "qsp.reduction",
                    outer=True)
        module_attr((workflow, mflow), "mflow_reduction_moves",
                    "baselines.mflow", outer=True)
        module_attr((workflow,), "nflow_synthesize", "baselines.nflow",
                    outer=True)
        module_attr((workflow,), "qubit_reduction_prefix",
                    "baselines.nflow", outer=True)
        module_attr((workflow,), "extract_core", "qsp.extraction",
                    outer=True)
        module_attr((workflow,), "embed_core_circuit", "qsp.extraction",
                    outer=True)
        # every verification entry point ends in one fidelity() call
        module_attr((verify,), "fidelity", "sim.verify", outer=True)

        # service: admission, encoding, scheduler, lanes, cache, WAL
        by_request = lambda a: a[1].get("id")  # noqa: E731
        _patch_method(server.SynthesisService, "handle", lambda f: wrap(
            f, "service.server.admit", rid_of=by_request))
        _patch_method(server.SynthesisService, "submit", lambda f: wrap(
            f, "service.server.admit", rid_of=by_request))
        module_attr((server,), "parse_request_line", "service.server.admit",
                    outer=True)
        module_attr((server,), "circuit_to_dict", "service.server.encode",
                    outer=True)
        proxy = types.SimpleNamespace(**vars(json))
        proxy.dumps = wrap(json.dumps, "service.server.encode")
        server.json = proxy

        def turned(_args, _ran) -> None:
            self.turns += 1

        _patch_method(RequestScheduler, "run_turn", lambda f: wrap(
            f, "service.scheduler", after=turned))
        _patch_method(RequestScheduler, "_settle", lambda f: wrap(
            f, "service.scheduler", rid_of=lambda a: a[1].rid))

        # queue wait = admission to first turn, minus calibration ticks
        # that ran while the request waited
        admitted: dict = {}

        def admission(original):
            def _admission(obs, rid, *args, **kwargs):
                admitted[rid] = self.calib_spent()
                return original(obs, rid, *args, **kwargs)
            return _admission

        def first_turn(original):
            def _first_turn(obs, rid, wait_seconds):
                ticks = self.calib_spent() - admitted.pop(rid, 0.0)
                self.queue_waits.append(wait_seconds - ticks)
                return original(obs, rid, wait_seconds)
            return _first_turn

        by_tag = lambda a: a[0].tag  # noqa: E731
        def rounded(_args, _more) -> None:
            self.rounds += 1

        _patch_method(LaneScheduler, "run_round", lambda f: wrap(
            f, "service.portfolio", rid_of=by_tag, after=rounded))

        def settled(args, outcome) -> None:
            for row in outcome.attempts:
                done = row.get("nodes_expanded", 0) or 0
                self.lane_expansions += done
                if row["name"] != outcome.winner:
                    self.loser_expansions += done

        _patch_method(LaneScheduler, "finish", lambda f: wrap(
            f, "service.portfolio", rid_of=by_tag, after=settled))
        _patch_method(WorkflowLanes, "run_round", lambda f: wrap(
            f, "service.scheduler", rid_of=by_tag))
        _patch_method(WorkflowLanes, "finish", lambda f: wrap(
            f, "service.scheduler", rid_of=by_tag))
        _patch_method(RequestCache, "get",
                      lambda f: wrap(f, "service.cache.get"))
        _patch_method(RequestCache, "put",
                      lambda f: wrap(f, "service.cache.put"))

        def recorded(_args, seq) -> None:
            self.wal_records += seq is not None

        _patch_method(persistence.MemoryWAL, "record_learned", lambda f: wrap(
            f, "service.persistence.record", after=recorded))
        _patch_method(persistence.MemoryWAL, "compact", lambda f: wrap(
            f, "service.persistence.compact"))

        def boot(original):
            def _boot(cls, *args, **kwargs):
                start = perf_counter()
                try:
                    return original(cls, *args, **kwargs)
                finally:
                    self.boot_s.append(perf_counter() - start)
            return _boot

        _patch_method(persistence.MemoryWAL, "boot", boot)
        module_attr((persistence,), "memory_to_dict", "utils.serialization",
                    outer=True)

        # obs: every public hook of the service's instrumentation object
        for name, value in list(vars(ServiceObs).items()):
            if name.startswith("_") or not isinstance(value,
                                                      types.FunctionType):
                continue
            if name == "first_turn":
                value = first_turn(value)
            elif name == "admission":
                value = admission(value)
            setattr(ServiceObs, name, wrap(value, "obs", outer=False))

    # -- results --------------------------------------------------------

    def layer_totals(self) -> dict[str, list]:
        """layer -> [calls, inclusive seconds, self seconds]."""
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (_rid, layer), (calls, incl, own) in self.agg.items():
            row = totals[layer]
            row[0] += calls
            row[1] += incl
            row[2] += own
        return totals

    def write(self, path: str) -> None:
        """Spans and per-request aggregates, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for layer, rid, start, end, parent in self.spans:
                out.write(json.dumps({"kind": "span", "layer": layer,
                                      "rid": rid, "start": start,
                                      "end": end, "parent": parent}) + "\n")
            for (rid, layer), (calls, incl, own) in sorted(
                    self.agg.items(), key=lambda kv: (str(kv[0][0]),
                                                      kv[0][1])):
                out.write(json.dumps({"kind": "aggregate", "rid": rid,
                                      "layer": layer, "calls": calls,
                                      "incl_s": incl, "self_s": own}) + "\n")


_CORE_ENGINES = ("core.astar", "core.beam", "core.idastar")
