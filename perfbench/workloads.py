"""One workload in one process: set up, run the timed phase, measure.

Started by ``run.py``, which pins the hash seed and puts ``src`` on the
path::

    python3 perfbench/workloads.py --workload prepare_dense --seed 1 \
        --seconds 30 --trace 0 --out result.json

The work of a run is fixed by ``--seed`` and ``--seconds``: request
counts scale with ``--seconds`` and are sized so the timed phase takes
about that long on the reference host.  Search budgets are expansion
counts, never wall-clock limits, so a faster program shows up as less
time rather than as more work.

``--make-fixture DIR`` instead writes the ``serve_mix`` warm-restart
fixture (WAL sidecar, WAL records and request-cache snapshot) to DIR.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

import calib
import check
import gen
from layers import CALIB_LAYER, RunCounters, Tracer

#: the prepare workflow's A* node budget, in place of its default 30 s
#: wall-clock limit (which reaches about 20k nodes on the reference
#: host).  Half that keeps one budget-bound n=5 row affordable next to
#: enough n=4 rows for a steady median; the row's answer comes from the
#: beam fallback either way.
ASTAR_MAX_NODES = 10_000
#: fresh service constructions per prepare run (setup_s is their median)
SETUPS = 3
#: warm boots per serve_mix run (setup_s is their median)
BOOTS = 5
#: callers with one request outstanding each in serve_mix
MIX_CALLERS = 3
#: fixture traffic, then the WAL records it leaves for the boot to replay
FIXTURE_REQUESTS = 200
FIXTURE_REPLAY = 60

WORKLOADS = ("prepare_dense", "prepare_sparse", "serve_mix")


class GuardError(RuntimeError):
    """The run would not do the same work as every other run."""


def guard_environment() -> None:
    from repro.core import fastcore

    if sys.flags.hash_randomization or \
            os.environ.get("PYTHONHASHSEED") != "0":
        raise GuardError("PYTHONHASHSEED must be pinned to 0: node counts "
                         "depend on the hash seed")
    if not fastcore.available():
        raise GuardError(f"the native _fastcore kernel is not available "
                         f"({fastcore.build_error}); the Python path is a "
                         f"different program")


def service_config(wal_dir: str | None = None):
    """The service as ``repro-qsp serve`` configures it (cache and obs
    on; ``wal_dir`` adds ``--wal`` and ``--cache-snapshot``), with the
    prepare workflow's wall-clock limits replaced by its node budget."""
    from repro.obs import ObsConfig
    from repro.qsp.config import QSPConfig
    from repro.service.server import ServiceConfig

    qsp = QSPConfig()
    qsp.exact.search.time_limit = None
    qsp.exact.search.max_nodes = ASTAR_MAX_NODES
    qsp.exact.beam.time_limit = None
    extra = {}
    if wal_dir is not None:
        extra = {"wal_path": os.path.join(wal_dir, "service.qspwal"),
                 "cache_snapshot_path": os.path.join(wal_dir,
                                                     "cache.qspreq.json")}
    config = ServiceConfig(qsp=qsp, obs=ObsConfig.on(), **extra)
    limits = {"search.time_limit": config.search.time_limit,
              "qsp.exact.search.time_limit": qsp.exact.search.time_limit,
              "qsp.exact.beam.time_limit": qsp.exact.beam.time_limit,
              "deadline_ms": config.deadline_ms}
    set_limits = {k: v for k, v in limits.items() if v is not None}
    if set_limits:
        raise GuardError(f"wall-clock limits configured: {set_limits}")
    return config


def _no_deadlines(items) -> None:
    for item in items:
        if "deadline_ms" in item.request:
            raise GuardError(f"request {item.request['id']} carries a "
                             f"deadline")


class Timer:
    """Wall time minus the calibration ticks that ran inside it."""

    def __init__(self, cal: calib.Calibrator) -> None:
        self.cal = cal
        self.start = perf_counter()
        self.ticks0 = cal.spent_s

    def elapsed(self) -> float:
        return (perf_counter() - self.start) - (self.cal.spent_s - self.ticks0)


class Record:
    """What one timed request produced (checked after the timed phase)."""

    __slots__ = ("item", "line", "latency")

    def __init__(self, item, line: str, latency: float) -> None:
        self.item = item
        self.line = line
        self.latency = latency


# -- the stdin front door: serve_loop over in-memory streams -------------

def serve_closed_loop(service, items, cal: calib.Calibrator,
                      records: list[Record]) -> None:
    """One caller, one request outstanding: the next line is read only
    after the previous reply was written.  A reply's latency excludes
    the ticks that ran while it was in flight."""
    from repro.service.server import serve_loop

    sent = {}

    class Replies:
        def write(self, line: str) -> None:
            latency = (perf_counter() - sent["at"]) - \
                (cal.spent_s - sent["ticks"])
            records.append(Record(sent["item"], line, latency))

        def flush(self) -> None:
            pass

    def lines():
        for item in items:
            cal.maybe_tick()
            line = json.dumps(item.request)
            sent["item"] = item
            sent["ticks"] = cal.spent_s
            sent["at"] = perf_counter()
            yield line

    serve_loop(service, lines(), Replies())


def run_prepare(kind: str, seed: int, seconds: int, cal, begin):
    from repro.service.server import SynthesisService

    if kind == "prepare_dense":
        items = gen.dense_items(seed, n4=max(1, round(seconds * 0.8)),
                                n5=round(seconds / 30))
        warmup = gen.warmup_items("dense", 2)
    else:
        items = gen.sparse_items(seed, per_row=max(1, round(seconds / 4.3)))
        warmup = gen.warmup_items("sparse", 4)
    _no_deadlines(items + warmup)
    setups, warm_records = [], []
    service = None
    for _ in range(SETUPS):
        del service
        gc.collect()
        cal.tick()
        timer = Timer(cal)
        service = SynthesisService(service_config())
        serve_closed_loop(service, warmup, cal, warm_records)
        setups.append(timer.elapsed())
        cal.tick()
    memory0 = begin(service)
    records: list[Record] = []
    timer = Timer(cal)
    serve_closed_loop(service, items, cal, records)
    timed = timer.elapsed()
    cal.tick()
    return {"setups": setups, "timed": timed, "records": records,
            "warm_records": warm_records, "service": service,
            "memory0": memory0}


# -- serve_mix: submit() + run_turn(), a few callers in one thread -------

def mix_closed_loop(service, items, cal: calib.Calibrator,
                    records: list[Record], encode, parse) -> None:
    """``MIX_CALLERS`` callers, each sending its next request as soon as
    its previous reply arrives; scheduler turns in between.  A reply's
    latency excludes the ticks that ran while it was in flight."""
    pending = list(reversed(items))
    ready = list(range(MIX_CALLERS))

    def replier(caller, item, start, ticks0):
        def reply(response) -> None:
            line = encode(response)
            latency = (perf_counter() - start) - (cal.spent_s - ticks0)
            records.append(Record(item, line, latency))
            ready.append(caller)
        return reply

    while True:
        while ready and pending:
            caller = ready.pop()
            item = pending.pop()
            line = json.dumps(item.request)
            start, ticks0 = perf_counter(), cal.spent_s
            service.submit(parse(line), replier(caller, item, start, ticks0),
                           client=caller)
        if not service.scheduler.run_turn():
            if not pending:
                break
        cal.maybe_tick()


def make_fixture(directory: str) -> None:
    """Serve the fixture traffic as ``serve --wal`` would, compact, then
    serve fresh targets until ``FIXTURE_REPLAY`` records sit in the WAL,
    and write the request-cache snapshot."""
    from repro.service.server import SynthesisService

    items, extra = gen.fixture_items(FIXTURE_REQUESTS)
    service = SynthesisService(service_config(directory))
    failures = 0

    def serve(item) -> None:
        nonlocal failures
        response = service.handle(dict(item.request))
        failures += check.check_response(item.num_qubits, item.target,
                                         response) is not None

    for item in items:
        serve(item)
    service.wal.compact()
    for item in extra:
        if service.wal.records >= FIXTURE_REPLAY:
            break
        serve(item)
    if failures or service.wal.records != FIXTURE_REPLAY:
        raise SystemExit(f"fixture: {failures} answers failed the check, "
                         f"{service.wal.records} WAL records")
    service.save_cache_snapshot()
    service.wal.close(compact=False)


def run_mix(seed: int, seconds: int, cal, tracer, begin, fixture: str):
    from repro.service.server import SynthesisService, parse_request_line

    items = gen.mix_items(seed, count=max(40, round(seconds * 25)),
                          dense=max(1, round(seconds * 0.3)))
    _no_deadlines(items)
    workdir = tempfile.mkdtemp(prefix="mix-", dir=os.path.dirname(fixture))
    try:
        for name in os.listdir(fixture):
            shutil.copy(os.path.join(fixture, name), workdir)
        setups = []
        service = None
        for _ in range(BOOTS):
            if service is not None:
                service.wal.close(compact=False)
            del service
            gc.collect()
            cal.tick()
            timer = Timer(cal)
            service = SynthesisService(service_config(workdir))
            setups.append(timer.elapsed())
            cal.tick()
        encode, parse = json.dumps, parse_request_line
        if tracer is not None:
            encode = tracer.wrap(encode, "service.server.encode")
            parse = tracer.wrap(parse, "service.server.admit")
        memory0 = begin(service)
        wal0 = dict(service.wal.snapshot())
        records: list[Record] = []
        timer = Timer(cal)
        mix_closed_loop(service, items, cal, records, encode, parse)
        timed = timer.elapsed()
        cal.tick()
        wal1 = service.wal.snapshot()
        service.wal.close(compact=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"setups": setups, "timed": timed, "records": records,
            "warm_records": [], "service": service, "memory0": memory0,
            "wal_counts": {
                "wal_records": wal1["seq"] - wal0["seq"],
                "wal_compactions": wal1["compactions"] - wal0["compactions"]},
            "wal_bytes": wal1["bytes_appended"] - wal0["bytes_appended"]}


# -- measurement ---------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it:
    ``(value, percentile, samples)``; the maximum below 11 samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _checked(records: list[Record], failures: list[dict]) -> list[dict]:
    """Responses of the records that pass the independent check; the
    others are added to ``failures``."""
    passed = []
    for rec in records:
        response = json.loads(rec.line)
        reason = check.check_response(rec.item.num_qubits, rec.item.target,
                                      response)
        if reason is None:
            passed.append((rec, response))
        else:
            failures.append({"id": rec.item.request["id"],
                             "request": rec.item.request, "reason": reason})
    return passed


def summarize(out: dict, cal: calib.Calibrator, counters) -> dict:
    failures: list[dict] = []
    warmup_failed = len(out["warm_records"]) - len(
        _checked(out["warm_records"], failures))
    answers = _checked(out["records"], failures)
    cnots = proven = 0
    misses: list[float] = []
    for rec, response in answers:
        cnots += check.recount_cnots(response["circuit"])
        flag = "exact_optimal" if response["op"] == "prepare" \
            else "optimal"
        proven += bool(response.get(flag))
        if not response.get("cached"):
            misses.append(rec.latency)
    factor = cal.factor
    sent = len(out["records"])
    tail_s, tail_pct, tail_n = tail(misses) if misses else (0.0, 0.0, 0)
    raw = {"setup_s": statistics.median(out["setups"]),
           "setups_s": out["setups"], "timed_s": out["timed"],
           "latency_p50_s": statistics.median(misses) if misses else 0.0,
           "latency_tail_s": tail_s}
    metrics = {
        "setup_s": raw["setup_s"] * factor,
        "throughput_rps": len(answers) / (out["timed"] * factor),
        "latency_p50_s": raw["latency_p50_s"] * factor,
        "latency_tail_s": tail_s * factor,
        "cnot_total": cnots,
        "proven_share": proven / len(answers) if answers else 0.0,
        "ok_share": len(answers) / sent if sent else 0.0,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    fingerprint = {"requests": sent, "answers": len(answers),
                   "misses": len(misses), "cnot_total": cnots,
                   "proven": proven, **counters.fingerprint(),
                   **out.get("wal_counts", {})}
    return {"metrics": metrics, "raw": raw, "failures": failures,
            "attempted": sent, "failed": sent - len(answers),
            "warmup_failures": warmup_failed,
            "fingerprint": fingerprint, "factor": factor,
            "calib_tick_s": cal.mean_tick, "ticks": len(cal.ticks),
            "tail_percentile": tail_pct, "tail_samples": tail_n}


def memory_counters(service) -> dict:
    memory = service.memory
    return {"canon_hits": memory.canon_store.hits,
            "canon_misses": memory.canon_store.misses,
            "h_hits": memory.h_store.hits,
            "h_misses": memory.h_store.misses,
            "canon_entries": len(memory.canon_store)}


def layer_metrics(tracer: Tracer, out: dict, summary: dict,
                  memory0: dict, memory1: dict) -> dict:
    """The per-layer metrics of a traced run (times normalized)."""
    factor = summary["factor"]
    totals = tracer.layer_totals()

    def calls(layer):
        return totals[layer][0] if layer in totals else 0

    def own(layer):
        return (totals[layer][2] if layer in totals else 0.0) * factor

    def incl(layer):
        return (totals[layer][1] if layer in totals else 0.0) * factor

    def share(part, whole):
        return part / whole if whole else 0.0

    def delta(key):
        return memory1[key] - memory0[key]

    fp = summary["fingerprint"]
    astar_total = tracer.expansions["core.astar"]
    cache_gets = calls("service.cache.get")
    m = {
        "core.kernel.successors_calls": calls("core.kernel.successors"),
        "core.kernel.successors_self_s": own("core.kernel.successors"),
        "core.kernel.canon_calls": calls("core.kernel.canon"),
        "core.kernel.canon_self_s": own("core.kernel.canon"),
        "core.kernel.intern_calls": calls("core.kernel.intern"),
        "core.kernel.intern_self_s": own("core.kernel.intern"),
        "core.astar.expansions": astar_total,
        "core.astar.self_s": own("core.astar"),
        "core.astar.exhausted_share": share(fp["astar_exhausted"],
                                            fp["expansions"].get("astar",
                                                                 0)),
        "core.beam.expansions": tracer.expansions["core.beam"],
        "core.beam.self_s": own("core.beam"),
        "core.idastar.expansions": tracer.expansions["core.idastar"],
        "core.idastar.self_s": own("core.idastar"),
        "core.engine.runs": calls("core.engine"),
        "core.engine.start_s": incl("core.engine"),
        "core.memory.canon_store_hit_share": share(
            delta("canon_hits"), delta("canon_hits") + delta("canon_misses")),
        "core.memory.h_store_hit_share": share(
            delta("h_hits"), delta("h_hits") + delta("h_misses")),
        "core.memory.canon_store_entries": memory1["canon_entries"],
        "core.pdb.signature_calls": calls("core.pdb.signature"),
        "core.pdb.signature_self_s": own("core.pdb.signature"),
        "core.transitions.merges_calls": calls("core.transitions.merges"),
        "core.transitions.merges_self_s": own("core.transitions.merges"),
        "qsp.reduction.self_s": own("qsp.reduction"),
        "baselines.mflow.self_s": own("baselines.mflow"),
        "baselines.nflow.self_s": own("baselines.nflow"),
        "qsp.extraction.self_s": own("qsp.extraction"),
        "qsp.workflow.self_s": own("qsp.workflow"),
        "qsp.workflow.exact_core_s": tracer.exact_core_s * factor,
        "qsp.workflow.core_reuse": fp["core_reuse"],
        "sim.verify.calls": calls("sim.verify"),
        "sim.verify.self_s": own("sim.verify"),
        "service.server.admit_self_s": own("service.server.admit"),
        "service.server.encode_s": incl("service.server.encode"),
        "service.scheduler.turns": tracer.turns,
        "service.scheduler.overhead_s": own("service.scheduler"),
        "service.scheduler.queue_wait_p50_s": (
            statistics.median(tracer.queue_waits) * factor
            if tracer.queue_waits else 0.0),
        "service.portfolio.rounds": tracer.rounds,
        "service.portfolio.loser_share": share(tracer.loser_expansions,
                                               tracer.lane_expansions),
        "service.cache.get_calls": cache_gets,
        "service.cache.hit_share": share(fp["cache_hits"],
                                         fp["cache_gets"]),
        "service.cache.get_self_s": own("service.cache.get"),
        "service.cache.put_self_s": own("service.cache.put"),
        "service.persistence.wal_records": tracer.wal_records,
        "service.persistence.wal_bytes": out.get("wal_bytes", 0),
        "service.persistence.wal_record_self_s":
            own("service.persistence.record"),
        "service.persistence.compactions":
            calls("service.persistence.compact"),
        "service.persistence.compact_s": incl("service.persistence.compact"),
        "service.persistence.boot_s": (
            statistics.median(tracer.boot_s) * factor
            if tracer.boot_s else 0.0),
        "utils.serialization.self_s": own("utils.serialization"),
        "obs.hook_calls": calls("obs"),
        "obs.hook_self_s": own("obs"),
        "bench.calib_tick_s": summary["calib_tick_s"],
        "bench.unattributed_share": max(
            0.0, 1.0 - (tracer.covered_s - tracer.calib_nested_s)
            / out["timed"]),
    }
    return m


def run(workload: str, seed: int, seconds: int, trace: bool,
        fixture: str | None, spans_path: str | None) -> dict:
    guard_environment()
    cal = calib.Calibrator()
    counters = RunCounters()
    tracer = None
    if trace:
        # installed first, so each step's tick runs outside the step's
        # span; ticks inside an outer span count as that span's child
        tracer = Tracer(lambda: cal.spent_s)
        tracer.install()
        cal.tick = tracer.wrap(cal.tick, CALIB_LAYER, outer=False)
    counters.install(between_steps=cal.maybe_tick)

    def begin(service) -> dict:
        """Timing starts: counts and spans cover the timed phase only."""
        counters.reset()
        if tracer is not None:
            tracer.reset()
        return memory_counters(service)

    cal.tick()
    if workload == "serve_mix":
        if fixture is None:
            raise GuardError("serve_mix needs --fixture")
        out = run_mix(seed, seconds, cal, tracer, begin, fixture)
    else:
        out = run_prepare(workload, seed, seconds, cal, begin)
    memory1 = memory_counters(out.pop("service"))
    summary = summarize(out, cal, counters)
    if tracer is not None:
        summary["layers"] = layer_metrics(tracer, out, summary,
                                          out["memory0"], memory1)
        if spans_path:
            tracer.write(spans_path)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixture", default=None)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--make-fixture", default=None, metavar="DIR")
    args = parser.parse_args(argv)
    try:
        if args.make_fixture:
            guard_environment()
            make_fixture(args.make_fixture)
            return 0
        summary = run(args.workload, args.seed, args.seconds,
                      bool(args.trace), args.fixture, args.spans)
    except GuardError as exc:
        print(f"refusing to run: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(summary)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
