"""Observability layer (PR 8): metrics registry, tracer, service wiring.

Covers the observability acceptance criteria: the metrics registry's
label/bucket/escaping semantics and JSON round-trip, span/event tracing
with balanced per-request timelines (including cancellation and deadline
flush), the ``op: trace`` / ``op: stats`` surfacing, trace-file JSONL
streaming, WAL torn-tail warnings, the engine phase timers behind
``SearchConfig(profile=True)``, and the HTTP metrics exposition.  The
zero-overhead differential (obs disabled == obs enabled, bit for bit)
lives with the scheduler tests in ``test_server_concurrent.py``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.astar import SearchConfig
from repro.core.beam import BeamConfig, beam_search
from repro.core.idastar import IDAStarConfig, idastar_search
from repro.obs import ObsConfig, build_obs
from repro.obs.metrics import Gauge, Histogram, MetricsRegistry
from repro.obs.trace import Tracer, read_jsonl, reconstruct_timelines
from repro.service.asyncserver import AsyncFrontEnd
from repro.service.persistence import MemoryWAL
from repro.service.server import ServiceConfig, SynthesisService
from repro.states.families import dicke_state


def _cfg(**kwargs) -> ServiceConfig:
    kwargs.setdefault("search", SearchConfig(max_nodes=50_000,
                                             time_limit=20.0))
    kwargs.setdefault("use_cache", False)
    return ServiceConfig(**kwargs)


def _drive(service: SynthesisService, requests, client=None):
    replies: list[dict] = []
    for request in requests:
        service.submit(request, replies.append, client=client)
    while service.scheduler.pending:
        service.scheduler.run_turn()
    return {r["id"]: r for r in replies}


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_inc_and_value(self):
        r = MetricsRegistry()
        c = r.counter("c_total", "plain counter")
        assert c.value == 0
        c.inc()
        c.inc(3)
        assert c.value == 4
        assert c.snapshot() == {"type": "counter", "help": "plain counter",
                                "value": 4}

    def test_label_arity_enforced(self):
        r = MetricsRegistry()
        c = r.counter("lc_total", labelnames=("op", "outcome"))
        c.labels("exact", "ok").inc()
        with pytest.raises(ValueError):
            c.labels("exact")
        with pytest.raises(ValueError):
            c.inc()  # labelled family has no unlabelled cell

    def test_gauge_set_and_dec(self):
        g = Gauge("g")
        g.set(7)
        g.dec(2)
        assert g.value == 5

    def test_histogram_bucket_edges(self):
        h = Histogram("h_seconds", buckets=(1.0, 2.0, 4.0))
        h.observe(1.0)   # exactly on an edge lands in that bucket (le)
        h.observe(1.5)
        h.observe(2.0)
        h.observe(4.1)   # beyond the last edge: overflow
        snap = h.snapshot()
        assert snap["buckets"] == [[1.0, 1], [2.0, 2], [4.0, 0]]
        assert snap["overflow"] == 1
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(8.6)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=())
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(1.0, 1.0))

    def test_histogram_quantile(self):
        h = Histogram("q_seconds", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 0.5, 1.5, 1.5):
            h.observe(v)
        assert h.quantile(0.5) == pytest.approx(1.0)
        assert h.quantile(1.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)
        empty = Histogram("e_seconds", buckets=(1.0,))
        assert empty.quantile(0.5) == 0.0
        over = Histogram("o_seconds", buckets=(1.0, 4.0))
        over.observe(100.0)  # overflow-only clamps to the last edge
        assert over.quantile(0.5) == pytest.approx(4.0)

    def test_registry_idempotent_and_conflicting(self):
        r = MetricsRegistry()
        a = r.counter("same_total", labelnames=("x",))
        assert r.counter("same_total", labelnames=("x",)) is a
        with pytest.raises(ValueError):
            r.gauge("same_total", labelnames=("x",))
        with pytest.raises(ValueError):
            r.counter("same_total", labelnames=("y",))

    def test_prometheus_escaping(self):
        r = MetricsRegistry()
        c = r.counter("esc_total", 'help with "newline"\nhere',
                      labelnames=("path",))
        c.labels('a"b\\c\nd').inc()
        text = r.render_prometheus()
        assert '# HELP esc_total help with "newline"\\nhere' in text
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_prometheus_histogram_shape(self):
        r = MetricsRegistry()
        h = r.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        lines = r.render_prometheus().splitlines()
        assert 'lat_seconds_bucket{le="0.1"} 1' in lines
        assert 'lat_seconds_bucket{le="1"} 2' in lines  # cumulative
        assert 'lat_seconds_bucket{le="+Inf"} 2' in lines
        assert 'lat_seconds_count 2' in lines
        assert any(line.startswith("lat_seconds_sum ") for line in lines)

    def test_snapshot_json_round_trip(self):
        r = MetricsRegistry()
        r.counter("a_total", labelnames=("k",)).labels("v").inc(2)
        r.gauge("b").set(1.5)
        r.histogram("c_seconds", buckets=(1.0,)).observe(0.3)
        snap = r.snapshot()
        assert json.loads(json.dumps(snap)) == snap


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------

class TestTracer:
    def test_ring_cap_and_emitted(self):
        t = Tracer(ring_cap=3, clock=lambda: 0.0)
        for i in range(5):
            t.event("e", rid=i)
        assert t.emitted == 5
        assert [r["rid"] for r in t.last()] == [2, 3, 4]
        assert [r["rid"] for r in t.last(2)] == [3, 4]

    def test_stream_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as stream:
            t = Tracer(stream=stream, clock=lambda: 1.0)
            t.begin("request", rid="a", op="exact")
            t.event("turn", rid="a", policy="edf")
            t.end("request", rid="a", outcome="ok")
        records = read_jsonl(path)
        assert records == list(t.ring)
        timelines = reconstruct_timelines(records)
        assert timelines["a"]["balanced"]
        (span,) = timelines["a"]["spans"]
        assert span["name"] == "request" and span["outcome"] == "ok"

    def test_reconstruct_flags_imbalance(self):
        t = Tracer(clock=lambda: 0.0)
        t.end("request", rid="x")  # end without begin
        t.begin("request", rid="y")  # begin without end
        t.event("boot")  # rid-less records group under None
        timelines = reconstruct_timelines(t.last())
        assert timelines["x"]["balanced"] is False
        assert timelines["y"]["balanced"] is False
        assert timelines[None]["events"][0]["name"] == "boot"


# ----------------------------------------------------------------------
# service integration (real searches, small targets)
# ----------------------------------------------------------------------

class TestServiceObs:
    def test_request_span_tree_balanced(self):
        service = SynthesisService(_cfg(obs=ObsConfig.on()))
        got = _drive(service, [{"id": "w4", "op": "exact", "w": 4},
                               {"id": "ghz4", "op": "exact", "ghz": 4}])
        assert all(r["ok"] for r in got.values())
        timelines = reconstruct_timelines(service.obs.trace_tail())
        for rid in ("w4", "ghz4"):
            tl = timelines[rid]
            assert tl["balanced"]
            (span,) = tl["spans"]
            assert span["name"] == "request"
            assert span["outcome"] == "ok"
            assert span["duration"] >= 0
            names = {e["name"] for e in tl["events"]}
            assert {"turn", "first_turn", "slice",
                    "lane_settled"} <= names
        requests = service.obs.registry.get("qsp_requests_total")
        assert requests.labels("exact", "ok").value == 2
        settled = service.obs.registry.get("qsp_sessions_settled_total")
        assert settled.labels("ok").value == 2

    def test_lane_settled_promotes_profile_stats(self):
        # SearchConfig(profile=True) phase timers surface as span-event
        # attributes via the lane_settled hook (engine profiling promotion)
        service = SynthesisService(_cfg(
            search=SearchConfig(max_nodes=50_000, time_limit=20.0,
                                profile=True),
            obs=ObsConfig.on()))
        _drive(service, [{"id": "d42", "op": "exact", "dicke": [4, 2]}])
        settles = [r for r in service.obs.trace_tail()
                   if r["name"] == "lane_settled"]
        assert settles
        profiled = [r for r in settles if r.get("phase_seconds")]
        assert profiled, "no lane promoted its phase timers"
        for record in profiled:
            assert record["expanded"] >= 0
            assert all(v >= 0.0
                       for v in record["phase_seconds"].values())

    def test_op_trace_and_stats_metrics(self):
        service = SynthesisService(_cfg(obs=ObsConfig.on()))
        _drive(service, [{"id": 1, "op": "exact", "w": 4}])
        trace = service.handle({"id": 2, "op": "trace", "limit": 5})
        assert trace["ok"] and trace["op"] == "trace"
        assert len(trace["records"]) == 5
        assert trace["emitted"] >= len(trace["records"])
        stats = service.handle({"id": 3, "op": "stats"})
        metrics = stats["metrics"]
        assert metrics["qsp_requests_total"]["values"]
        assert json.loads(json.dumps(metrics)) == metrics

    def test_handle_counts_each_request_once(self):
        # handle() rides submit(): one request, one count, on both the
        # service counter and qsp_requests_total
        service = SynthesisService(_cfg(obs=ObsConfig.on(), use_cache=True))
        for request in ({"id": 1, "op": "exact", "w": 4},
                        {"id": 2, "op": "exact", "w": 4},
                        {"id": 3, "op": "prepare", "ghz": 3},
                        {"id": 4, "op": "exact"}):
            service.handle(request)
        stats = service.stats()
        assert stats["requests"] == 4
        counted = {tuple(row["labels"]): row["value"] for row in
                   stats["metrics"]["qsp_requests_total"]["values"]}
        assert counted == {("exact", "ok"): 1, ("exact", "cached"): 1,
                           ("prepare", "ok"): 1, ("exact", "error"): 1}

    def test_op_trace_requires_obs(self):
        service = SynthesisService(_cfg())
        assert service.obs is None
        response = service.handle({"id": 1, "op": "trace"})
        assert response["ok"] is False
        assert "observability is disabled" in response["error"]
        stats = service.handle({"id": 2, "op": "stats"})
        assert stats["metrics"] is None

    def test_cancellation_closes_span(self):
        service = SynthesisService(_cfg(obs=ObsConfig.on()))
        token = object()
        service.submit({"id": "d52", "op": "exact", "dicke": [5, 2]},
                       lambda _: None, client=token)
        service.scheduler.run_turn()
        service.scheduler.run_turn()
        assert service.scheduler.cancel_client(token) == 1
        timelines = reconstruct_timelines(service.obs.trace_tail())
        tl = timelines["d52"]
        assert tl["balanced"]
        (span,) = tl["spans"]
        assert span["outcome"] == "cancelled"
        assert span["reason"] == "client_disconnect"
        settled = service.obs.registry.get("qsp_sessions_settled_total")
        assert settled.labels("cancelled").value == 1

    def test_deadline_flush_closes_span(self):
        service = SynthesisService(_cfg(obs=ObsConfig.on()))
        replies: list[dict] = []
        service.submit({"id": "d52", "op": "exact", "dicke": [5, 2],
                        "deadline_ms": 60_000}, replies.append)
        service.scheduler.run_turn()
        assert service.scheduler.drain(0) == 1  # force the flush path
        assert replies and replies[0].get("deadline_expired") is True
        timelines = reconstruct_timelines(service.obs.trace_tail())
        tl = timelines["d52"]
        assert tl["balanced"]
        (span,) = tl["spans"]
        assert span["outcome"] == "deadline_flush"
        assert "slack_seconds" in span
        settled = service.obs.registry.get("qsp_sessions_settled_total")
        assert settled.labels("deadline_flush").value == 1

    def test_trace_file_streams_jsonl(self, tmp_path):
        path = tmp_path / "svc.trace.jsonl"
        service = SynthesisService(_cfg(
            obs=ObsConfig.on(trace_path=str(path))))
        _drive(service, [{"id": "w4", "op": "exact", "w": 4}])
        service.shutdown()
        records = read_jsonl(path)
        assert records[-1]["name"] == "shutdown"
        timelines = reconstruct_timelines(records)
        assert timelines["w4"]["balanced"]
        assert timelines["w4"]["spans"][0]["outcome"] == "ok"


# ----------------------------------------------------------------------
# WAL boot warnings
# ----------------------------------------------------------------------

class TestWalObsWarnings:
    def test_torn_tail_warning_and_counter(self, tmp_path):
        wal_path = tmp_path / "torn.qspwal"
        writer = SynthesisService(_cfg(wal_path=str(wal_path),
                                       wal_compact_interval=0))
        _drive(writer, [{"id": "w4", "op": "exact", "w": 4},
                        {"id": "ghz4", "op": "exact", "ghz": 4}])
        writer.wal.close(compact=False)
        raw = wal_path.read_text(encoding="utf-8")
        wal_path.write_text(raw[:-40], encoding="utf-8")  # mid-append crash
        obs = build_obs(ObsConfig.on())
        _memory, wal = MemoryWAL.boot(wal_path, obs=obs)
        assert wal.truncations == {"torn_final_line": 1}
        truncations = obs.registry.get("qsp_wal_truncations_total")
        assert truncations.labels("torn_final_line").value == 1
        warnings = [r for r in obs.trace_tail()
                    if r["kind"] == "warning" and r["name"] == "wal_truncated"]
        assert warnings and warnings[0]["reason"] == "torn_final_line"
        assert warnings[0]["dropped_bytes"] > 0
        if wal.replayed:
            replayed = obs.registry.get("qsp_wal_replayed_records_total")
            assert replayed.value == wal.replayed
        snap = wal.snapshot()
        assert snap["truncations"] == {"torn_final_line": 1}
        assert snap["replayed"] == wal.replayed

    def test_clean_boot_emits_no_warning(self, tmp_path):
        obs = build_obs(ObsConfig.on())
        _memory, wal = MemoryWAL.boot(tmp_path / "clean.qspwal", obs=obs)
        assert wal.truncations == {}
        assert not [r for r in obs.trace_tail() if r["kind"] == "warning"]


# ----------------------------------------------------------------------
# engine phase timers (profiling promotion, satellite 2)
# ----------------------------------------------------------------------

class TestEnginePhaseTimers:
    def test_idastar_fills_phase_seconds(self):
        target = dicke_state(4, 2)
        plain = idastar_search(target, IDAStarConfig(
            search=SearchConfig(profile=False)))
        profiled = idastar_search(target, IDAStarConfig(
            search=SearchConfig(profile=True)))
        assert plain.stats.phase_seconds == {}
        assert {"enumeration", "canonicalization", "heuristic",
                "hashing"} <= set(profiled.stats.phase_seconds)
        # the timers never change the search itself
        assert profiled.cnot_cost == plain.cnot_cost
        assert profiled.stats.nodes_expanded == plain.stats.nodes_expanded
        assert profiled.stats.nodes_generated == plain.stats.nodes_generated
        assert profiled.stats.nodes_pruned == plain.stats.nodes_pruned

    def test_beam_fills_phase_seconds(self):
        target = dicke_state(4, 2)
        plain = beam_search(target, BeamConfig(profile=False))
        profiled = beam_search(target, BeamConfig(profile=True))
        assert plain.stats.phase_seconds == {}
        assert {"enumeration", "canonicalization", "heuristic",
                "hashing"} <= set(profiled.stats.phase_seconds)
        assert profiled.cnot_cost == plain.cnot_cost
        assert profiled.stats.nodes_expanded == plain.stats.nodes_expanded
        assert profiled.stats.nodes_generated == plain.stats.nodes_generated
        assert profiled.stats.nodes_pruned == plain.stats.nodes_pruned


# ----------------------------------------------------------------------
# HTTP metrics exposition
# ----------------------------------------------------------------------

class TestMetricsEndpoint:
    def test_metrics_requires_obs(self):
        service = SynthesisService(_cfg())
        with pytest.raises(ValueError, match="observability-enabled"):
            AsyncFrontEnd(service, "127.0.0.1", 0,
                          metrics_host="127.0.0.1", metrics_port=0)

    def test_scrape_over_http(self):
        service = SynthesisService(_cfg(obs=ObsConfig.on()))

        async def scenario():
            front = AsyncFrontEnd(service, "127.0.0.1", 0,
                                  metrics_host="127.0.0.1", metrics_port=0)
            run = asyncio.ensure_future(front.run())
            while front.bound_port is None or \
                    front.bound_metrics_port is None:
                await asyncio.sleep(0.01)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", front.bound_port)
            writer.write(b'{"id": 1, "op": "exact", "w": 4}\n')
            await writer.drain()
            answer = json.loads(await reader.readline())
            scrape_r, scrape_w = await asyncio.open_connection(
                "127.0.0.1", front.bound_metrics_port)
            scrape_w.write(b"GET /metrics HTTP/1.0\r\n\r\n")
            await scrape_w.drain()
            scrape = (await scrape_r.read()).decode("utf-8")
            scrape_w.close()
            writer.write(b'{"id": 2, "op": "shutdown"}\n')
            await writer.drain()
            await reader.readline()
            writer.close()
            return answer, scrape, await run

        answer, scrape, summary = asyncio.run(scenario())
        assert answer["ok"] and answer["cnot_cost"] is not None
        head, _, body = scrape.partition("\r\n\r\n")
        assert head.startswith("HTTP/1.0 200 OK")
        assert "text/plain; version=0.0.4" in head
        assert 'qsp_requests_total{op="exact",outcome="ok"} 1' in body
        assert summary["metrics_scrapes"] == 1
