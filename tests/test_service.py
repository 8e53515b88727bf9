"""Tests for the synthesis service layer (repro.service).

Covers the regime-fingerprint codec, disk snapshot round trips (including
the loud failure modes), the request cache, the engine portfolio
(best-of over its lanes, live incumbent sharing), batch files inline and
across a worker pool, the service facade + serve loop, the CLI wiring,
and the shared benchmark-artifact stamp.
"""

from __future__ import annotations

import gzip
import io
import json

import pytest

from repro.constants import BENCH_SCHEMA_VERSION, MEMORY_SNAPSHOT_VERSION
from repro.core.astar import SearchConfig, astar_search
from repro.core.heuristic import entanglement_heuristic, zero_heuristic
from repro.core.idastar import idastar_search
from repro.core.memory import SearchMemory
from repro.exceptions import MemoryCompatibilityError
from repro.experiments.family_runner import (
    FamilyRunConfig,
    dicke_family_targets,
    run_family,
)
from repro.qsp.workflow import prepare_state
from repro.service.cache import RequestCache
from repro.service.persistence import (
    load_memory_snapshot,
    merge_memory_snapshot,
    save_memory_snapshot,
)
from repro.service.portfolio import (
    EngineSpec,
    build_engine_run,
    default_portfolio,
    interleaved_portfolio,
)
from repro.service.server import ServiceConfig, SynthesisService, serve_loop
from repro.sim.verify import prepares_state
from repro.states.families import dicke_state, ghz_state, w_state
from repro.utils.fingerprint import (
    fingerprint_digest,
    fingerprint_from_dict,
    fingerprint_to_dict,
    heuristic_ref,
    resolve_heuristic,
    search_regime_dict,
    stamp_benchmark,
)
from repro.utils.serialization import memory_from_dict, memory_to_dict


def _default_fingerprint(heuristic=entanglement_heuristic,
                         topo_key=None) -> tuple:
    cfg = SearchConfig()
    return (cfg.canon_level, cfg.tie_cap, cfg.perm_cap,
            cfg.max_merge_controls, cfg.include_x_moves, heuristic,
            topo_key)


class TestFingerprint:
    def test_heuristic_ref_roundtrip(self):
        ref = heuristic_ref(entanglement_heuristic)
        assert resolve_heuristic(ref) is entanglement_heuristic

    def test_lambda_rejected(self):
        with pytest.raises(MemoryCompatibilityError):
            heuristic_ref(lambda s: 0.0)

    def test_dict_roundtrip(self):
        fp = _default_fingerprint()
        data = fingerprint_to_dict(fp)
        assert fingerprint_from_dict(data) == fp
        json.dumps(data)  # portable form must be JSON-safe

    def test_digest_stable_and_sensitive(self):
        a = fingerprint_to_dict(_default_fingerprint())
        b = fingerprint_to_dict(_default_fingerprint(zero_heuristic))
        assert fingerprint_digest(a) == fingerprint_digest(a)
        assert fingerprint_digest(a) != fingerprint_digest(b)

    def test_malformed_dict_fails_loudly(self):
        data = fingerprint_to_dict(_default_fingerprint())
        data["canon_level"] = "NO_SUCH_LEVEL"
        with pytest.raises(MemoryCompatibilityError):
            fingerprint_from_dict(data)

    def test_stamp_benchmark_fields(self):
        report = stamp_benchmark({"metric": "x"})
        assert report["schema_version"] == BENCH_SCHEMA_VERSION
        regime = report["regime_fingerprint"]
        assert regime["canon_level"] == "PU2"
        assert regime["digest"]
        json.dumps(report)


class TestSnapshotRoundTrip:
    """save -> load -> warm run must match the in-process warm run."""

    def test_memory_dict_roundtrip_preserves_stores(self):
        memory = SearchMemory()
        idastar_search(dicke_state(4, 2), memory=memory)
        data = memory_to_dict(memory)
        json.dumps(data)
        restored = memory_from_dict(data)
        assert len(restored.canon_store) == len(memory.canon_store)
        assert len(restored.h_store) == len(memory.h_store)
        assert restored.transposition.data == memory.transposition.data
        assert restored.transposition.cond == memory.transposition.cond
        assert restored.fingerprint == memory.fingerprint

    @pytest.mark.parametrize("suffix", ["qspmem.json", "qspmem.json.gz"])
    def test_family_warm_run_matches_in_process(self, tmp_path, suffix):
        targets = dicke_family_targets(4)
        config = FamilyRunConfig(engine="idastar")
        memory = SearchMemory()
        run_family(targets, config, memory=memory)  # cold pass
        path = tmp_path / f"warm.{suffix}"
        save_memory_snapshot(memory, path)

        hits_after_cold = memory.canon_store.hits
        tt_hits_after_cold = memory.transposition.hits
        in_process = run_family(targets, config, memory=memory)
        restored_memory = load_memory_snapshot(path)
        restored = run_family(targets, config, memory=restored_memory)

        assert restored.solved_costs == in_process.solved_costs
        # same per-row work: every expansion count matches the in-process
        # warm pass, because the restored stores serve exactly what the
        # live ones would
        assert [row.nodes_expanded for row in restored.rows] == \
            [row.nodes_expanded for row in in_process.rows]
        # and the store/table hit counters tell the same reuse story
        assert restored_memory.canon_store.hits == \
            memory.canon_store.hits - hits_after_cold
        assert restored_memory.transposition.hits == \
            memory.transposition.hits - tt_hits_after_cold
        assert restored_memory.canon_store.hits > 0
        assert restored_memory.transposition.hits > 0

    def test_snapshot_warm_astar_equals_cold(self, tmp_path):
        state = dicke_state(4, 2)
        cold = astar_search(state, SearchConfig())
        memory = SearchMemory()
        astar_search(state, SearchConfig(), memory=memory)
        path = tmp_path / "warm.json"
        save_memory_snapshot(memory, path)
        warm = astar_search(state, SearchConfig(),
                            memory=load_memory_snapshot(path))
        assert warm.cnot_cost == cold.cnot_cost
        assert warm.optimal == cold.optimal
        assert prepares_state(warm.circuit, state)

    def test_merge_snapshot_combines_entries(self, tmp_path):
        mem_a = SearchMemory()
        astar_search(dicke_state(4, 1), SearchConfig(), memory=mem_a)
        mem_b = SearchMemory()
        astar_search(dicke_state(4, 2), SearchConfig(), memory=mem_b)
        path = tmp_path / "b.json"
        save_memory_snapshot(mem_b, path)
        before = len(mem_a.canon_store)
        merge_memory_snapshot(mem_a, path)
        assert len(mem_a.canon_store) > before

    def test_corrupted_file_fails_loudly(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json", encoding="utf-8")
        with pytest.raises(MemoryCompatibilityError):
            load_memory_snapshot(path)

    def test_truncated_gzip_fails_loudly(self, tmp_path):
        path = tmp_path / "bad.json.gz"
        memory = SearchMemory()
        astar_search(ghz_state(3), SearchConfig(), memory=memory)
        save_memory_snapshot(memory, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(MemoryCompatibilityError):
            load_memory_snapshot(path)

    def test_wrong_kind_fails_loudly(self, tmp_path):
        path = tmp_path / "kind.json"
        path.write_text(json.dumps({"kind": "qstate"}), encoding="utf-8")
        with pytest.raises(MemoryCompatibilityError):
            load_memory_snapshot(path)

    def test_version_mismatch_fails_loudly(self, tmp_path):
        memory = SearchMemory()
        astar_search(ghz_state(3), SearchConfig(), memory=memory)
        data = memory_to_dict(memory)
        data["version"] = MEMORY_SNAPSHOT_VERSION + 1
        path = tmp_path / "vers.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(MemoryCompatibilityError):
            load_memory_snapshot(path)

    def test_corrupted_entry_fails_loudly(self, tmp_path):
        memory = SearchMemory()
        astar_search(ghz_state(3), SearchConfig(), memory=memory)
        data = memory_to_dict(memory)
        data["canon_store"][0][0] = "%%% not base64 %%%"
        with pytest.raises(MemoryCompatibilityError):
            memory_from_dict(data)

    def test_missing_file_raises_filenotfound(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_memory_snapshot(tmp_path / "nope.json")

    def test_regime_mismatch_on_attach_after_load(self, tmp_path):
        memory = SearchMemory()
        astar_search(ghz_state(3), SearchConfig(), memory=memory)
        path = tmp_path / "warm.json"
        save_memory_snapshot(memory, path)
        restored = load_memory_snapshot(path)
        with pytest.raises(MemoryCompatibilityError):
            astar_search(ghz_state(3), SearchConfig(tie_cap=7),
                         memory=restored)

    def test_unpinned_memory_snapshots_without_fingerprint(self):
        data = memory_to_dict(SearchMemory())
        assert data["fingerprint"] is None
        restored = memory_from_dict(data)
        assert restored.fingerprint is None

    def test_delta_snapshot_ships_only_new_entries(self):
        from repro.utils.serialization import (
            memory_baseline,
            memory_merge_dict,
        )

        memory = SearchMemory()
        idastar_search(dicke_state(4, 1), memory=memory)
        baseline_dict = memory_to_dict(memory)
        baseline = memory_baseline(memory)
        idastar_search(dicke_state(4, 2), memory=memory)
        delta = memory_to_dict(memory, since=baseline)
        full = memory_to_dict(memory)

        def entries(data):
            table = data["transposition"]
            return len(table["data"]) + len(table["cond"])

        assert 0 < entries(delta) < entries(full)
        # a delta carries knowledge only; the caches stay behind
        assert full["canon_store"]
        assert delta["canon_store"] == [] and delta["h_store"] == []
        # baseline + delta reconstructs every knowledge section
        rebuilt = memory_from_dict(baseline_dict)
        memory_merge_dict(rebuilt, delta)
        assert rebuilt.transposition.data == memory.transposition.data
        assert rebuilt.transposition.cond == memory.transposition.cond
        assert rebuilt.pdb.to_dict() == memory.pdb.to_dict()
        assert rebuilt.lane_stats == memory.lane_stats

    def test_snapshot_files_are_json_dump_bytes(self, tmp_path):
        """The C-encoder writes give the bytes ``json.dump`` would."""
        from repro.service.persistence import save_request_cache

        service = SynthesisService(ServiceConfig())
        service.handle({"id": 1, "op": "exact", "dicke": [4, 1]})
        service.handle({"id": 2, "op": "prepare", "w": 4})
        memory_path = tmp_path / "memory.json"
        cache_path = tmp_path / "cache.json"
        for data, path in (
                (save_memory_snapshot(service.memory, memory_path),
                 memory_path),
                (save_request_cache(service.cache, cache_path), cache_path)):
            expected = io.StringIO()
            json.dump(data, expected)
            assert path.read_text(encoding="utf-8") == expected.getvalue()


class TestRequestCache:
    def test_hit_after_put(self):
        cache = RequestCache()
        state = dicke_state(4, 2)
        assert cache.get("exact", state) is None
        cache.put("exact", state, "result")
        assert cache.get("exact", state) == "result"
        assert len(cache) == 1

    def test_modes_are_separate_namespaces(self):
        cache = RequestCache()
        state = w_state(3)
        cache.put("exact", state, "a")
        assert cache.get("prepare", state) is None

    def test_distinct_states_do_not_alias(self):
        cache = RequestCache()
        cache.put("exact", dicke_state(4, 1), "d41")
        cache.put("exact", dicke_state(4, 2), "d42")
        assert cache.get("exact", dicke_state(4, 1)) == "d41"
        assert cache.get("exact", dicke_state(4, 2)) == "d42"

    def test_regime_pin_mismatch_rejected(self):
        cache = RequestCache(search_regime_dict(SearchConfig()))
        with pytest.raises(MemoryCompatibilityError):
            cache.pin(search_regime_dict(SearchConfig(tie_cap=7)))

    def test_snapshot_counters(self):
        cache = RequestCache()
        state = ghz_state(3)
        cache.get("exact", state)
        cache.put("exact", state, 1)
        cache.get("exact", state)
        snap = cache.snapshot()
        assert snap["exact"]["hits"] == 1
        assert snap["exact"]["misses"] == 1


class TestPortfolio:
    def test_never_worse_than_best_single_engine(self):
        search = SearchConfig(max_nodes=60_000)
        for state in (dicke_state(4, 2), w_state(4), ghz_state(4)):
            single = []
            for spec in default_portfolio():
                try:
                    single.append(build_engine_run(
                        spec, state, search).run_to_completion().cnot_cost)
                except Exception:
                    continue
            outcome = interleaved_portfolio(state, search)
            assert outcome.solved
            assert outcome.result.cnot_cost <= min(single)

    def test_incumbent_threading_reaches_astar(self):
        # beam's feasible cost is injected into the A* lane live; A*
        # exhausts everything cheaper, and the proof is A*'s win
        memory = SearchMemory()
        outcome = interleaved_portfolio(dicke_state(4, 2), SearchConfig(),
                                        memory=memory)
        assert outcome.solved and outcome.result.optimal
        astar_attempt = next(a for a in outcome.attempts
                             if a["name"] == "astar")
        assert astar_attempt["status"] in ("solved", "proven")
        assert outcome.winner == "astar"
        assert memory.lane_stats["astar"]["wins"] == 1

    def test_budget_exhausted_lane_reports_lower_bound(self):
        search = SearchConfig(max_nodes=10)
        specs = (EngineSpec("astar", "astar"),)
        outcome = interleaved_portfolio(dicke_state(5, 2), search,
                                        specs=specs)
        assert not outcome.solved
        assert outcome.lower_bound > 0

    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError):
            EngineSpec("x", "dijkstra")


def _batch_file(service, tmp_path, requests, **kwargs):
    """Write ``requests`` as a JSONL file, batch it, read the rows."""
    in_path = tmp_path / "in.jsonl"
    out_path = tmp_path / "out.jsonl"
    in_path.write_text("".join(json.dumps(r) + "\n" for r in requests),
                       encoding="utf-8")
    summary = service.run_batch_file(in_path, out_path, **kwargs)
    return summary, [json.loads(line)
                     for line in out_path.read_text().splitlines()]


class TestBatch:
    ROWS = [(3, 1), (4, 1), (4, 2)]

    def _requests(self):
        return [{"id": f"D({n},{k})", "dicke": [n, k]}
                for n, k in self.ROWS]

    def test_single_process_batch(self, tmp_path):
        service = SynthesisService(ServiceConfig(
            search=SearchConfig(max_nodes=60_000)))
        _summary, rows = _batch_file(service, tmp_path, self._requests(),
                                     workers=1)
        assert [r["id"] for r in rows] == \
            [r["id"] for r in self._requests()]
        assert all(r["ok"] and r["optimal"] for r in rows)

    def test_sharded_batch_matches_and_merges_delta(self, tmp_path,
                                                    monkeypatch):
        from repro.service import pool as pool_module

        monkeypatch.setattr(pool_module, "POOL_CROSS_MERGE_INTERVAL", 1)
        memory = SearchMemory()
        astar_search(dicke_state(4, 2), SearchConfig(), memory=memory)
        snap = tmp_path / "warm.json"
        save_memory_snapshot(memory, snap)

        def config():
            return ServiceConfig(search=SearchConfig(max_nodes=60_000,
                                                     time_limit=120.0),
                                 snapshot_path=str(snap))

        _summary, single = _batch_file(SynthesisService(config()),
                                       tmp_path, self._requests(),
                                       workers=1)
        summary, sharded = _batch_file(SynthesisService(config()),
                                       tmp_path, self._requests(),
                                       workers=2)
        assert [(r["id"], r["cnot_cost"], r["optimal"]) for r in single] \
            == [(r["id"], r["cnot_cost"], r["optimal"]) for r in sharded]
        # both workers served, and what one learned reached the other
        assert all(summary["pool"]["routed"])
        assert summary["pool"]["deltas_shipped"] >= 1

    def test_with_circuit_rows_carry_circuits(self, tmp_path):
        service = SynthesisService(ServiceConfig(
            search=SearchConfig(max_nodes=60_000)))
        _summary, rows = _batch_file(service, tmp_path,
                                     [{"id": "w4", "w": 4}],
                                     with_circuit=True)
        from repro.utils.serialization import circuit_from_dict
        circuit = circuit_from_dict(rows[0]["circuit"])
        assert prepares_state(circuit, w_state(4))


class TestSynthesisService:
    def test_prepare_and_cache(self):
        service = SynthesisService()
        first = service.handle({"id": 1, "op": "prepare", "dicke": [4, 2]})
        again = service.handle({"id": 2, "op": "prepare", "dicke": [4, 2]})
        assert first["ok"] and again["ok"]
        assert first["cnot_cost"] == again["cnot_cost"] == 6
        assert not first["cached"] and again["cached"]

    def test_prepare_goes_through_workflow(self):
        service = SynthesisService()
        direct = prepare_state(dicke_state(4, 2))
        response = service.handle({"op": "prepare", "dicke": [4, 2],
                                   "trace": True, "return_circuit": True})
        assert response["cnot_cost"] == direct.cnot_cost
        assert response["trace"]
        from repro.utils.serialization import circuit_from_dict
        assert prepares_state(circuit_from_dict(response["circuit"]),
                              dicke_state(4, 2))

    def test_prepare_warms_service_memory(self):
        service = SynthesisService()
        assert service.memory.searches == 0
        service.handle({"op": "prepare", "dicke": [4, 2]})
        # the workflow's exact core ran through the service memory
        assert service.memory.searches > 0

    def test_exact_portfolio_and_cache(self):
        service = SynthesisService()
        first = service.handle({"op": "exact", "w": 4})
        again = service.handle({"op": "exact", "w": 4})
        assert first["cnot_cost"] == again["cnot_cost"] == 7
        assert first["optimal"] and again["cached"]
        assert again["engine"] == "cache"

    def test_cache_disabled(self):
        service = SynthesisService(ServiceConfig(use_cache=False))
        first = service.handle({"op": "exact", "ghz": 3})
        again = service.handle({"op": "exact", "ghz": 3})
        assert not first["cached"] and not again["cached"]

    def test_stats_and_errors(self):
        service = SynthesisService()
        bad = service.handle({"op": "exact"})  # no state
        assert not bad["ok"] and "error" in bad
        unknown = service.handle({"op": "fly", "ghz": 3})
        assert not unknown["ok"]
        stats = service.handle({"op": "stats"})
        assert stats["ok"] and stats["errors"] == 2

    def test_snapshot_op_and_boot_from_snapshot(self, tmp_path):
        service = SynthesisService()
        service.handle({"op": "exact", "dicke": [4, 2]})
        path = str(tmp_path / "svc.qspmem.gz")
        response = service.handle({"op": "snapshot", "path": path})
        assert response["ok"] and response["entries"] > 0
        warm = SynthesisService(ServiceConfig(snapshot_path=path))
        assert len(warm.memory.canon_store) > 0
        assert warm.handle({"op": "exact",
                            "dicke": [4, 2]})["cnot_cost"] == 6

    def test_incompatible_snapshot_rejected_at_boot(self, tmp_path):
        memory = SearchMemory()
        astar_search(ghz_state(3), SearchConfig(tie_cap=7), memory=memory)
        path = str(tmp_path / "other.json")
        save_memory_snapshot(memory, path)
        with pytest.raises(MemoryCompatibilityError):
            SynthesisService(ServiceConfig(snapshot_path=path))

    def test_state_parsing_variants(self):
        from repro.utils.serialization import state_to_dict
        service = SynthesisService()
        by_terms = service.handle(
            {"op": "exact", "terms": {"00": 0.6, "11": 0.8}})
        assert by_terms["ok"] and by_terms["cnot_cost"] == 1
        by_state = service.handle(
            {"op": "exact", "state": state_to_dict(ghz_state(3))})
        assert by_state["ok"] and by_state["cnot_cost"] == 2


class TestWideRegisters:
    """Registers past the packed kernel's 62-qubit index width."""

    def test_wide_prepare_serves_and_wide_search_names_the_limit(self):
        from repro.core.kernel import PACKED_MAX_QUBITS

        service = SynthesisService(ServiceConfig())
        for rid in ("p1", "p2"):  # the second request misses the cache too
            response = service.handle({"id": rid, "op": "prepare",
                                       "ghz": 70})
            assert response["ok"], response
            assert response["cnot_cost"] == 69
            assert response["cached"] is False
        for op in ("exact", "fast"):
            response = service.handle({"id": op, "op": op, "ghz": 64})
            assert response["ok"] is False
            assert str(PACKED_MAX_QUBITS) in response["error"]
            assert "\n" not in response["error"]
        assert service.handle({"id": "e", "op": "exact",
                               "ghz": 3})["cnot_cost"] == 2


class TestServeLoop:
    def test_request_response_lines(self):
        service = SynthesisService()
        lines = [
            json.dumps({"id": 1, "op": "exact", "dicke": [4, 2]}),
            "",  # blank lines are skipped
            "this is not json",
            json.dumps({"id": 2, "op": "exact", "dicke": [4, 2]}),
            json.dumps({"op": "shutdown"}),
            json.dumps({"id": 99, "op": "exact", "ghz": 3}),  # after stop
        ]
        out = io.StringIO()
        handled = serve_loop(service, io.StringIO("\n".join(lines) + "\n"),
                             out)
        responses = [json.loads(line)
                     for line in out.getvalue().splitlines()]
        assert handled == 4
        assert [r.get("id") for r in responses] == [1, None, 2, None]
        assert responses[0]["cnot_cost"] == 6 and not responses[0]["cached"]
        assert not responses[1]["ok"]
        assert responses[2]["cached"]
        assert responses[3]["op"] == "shutdown"

    def test_batch_file_roundtrip(self, tmp_path):
        service = SynthesisService(ServiceConfig(
            search=SearchConfig(max_nodes=60_000)))
        requests = [
            {"id": "a", "dicke": [4, 1]},
            {"id": "b", "w": 4},  # structurally the same state: W = D(n,1)
            {"id": "bad"},  # no state: must fail loudly but locally
            {"id": "a2", "dicke": [4, 1]},  # same state as "a"
        ]
        in_path = tmp_path / "in.jsonl"
        out_path = tmp_path / "out.jsonl"
        in_path.write_text(
            "".join(json.dumps(r) + "\n" for r in requests),
            encoding="utf-8")
        summary = service.run_batch_file(in_path, out_path, workers=1)
        rows = [json.loads(line)
                for line in out_path.read_text().splitlines()]
        assert summary["requests"] == 4 and summary["solved"] == 3
        by_id = {row["id"]: row for row in rows}
        assert by_id["a"]["cnot_cost"] == by_id["a2"]["cnot_cost"] == 7
        assert by_id["b"]["cnot_cost"] == 7
        assert not by_id["bad"]["ok"]
        # duplicate targets within one file are searched once and fanned
        # out (duplicate rows report cached) — dedup is *structural*, so
        # the textually different {"w": 4} collapses into the D(4,1)
        # group too
        assert not by_id["a"]["cached"]
        assert by_id["a2"]["cached"] and by_id["b"]["cached"]
        assert summary["cache_hits"] == 2
        # a second run over the same file is pure request-cache hits
        second = tmp_path / "out2.jsonl"
        summary2 = service.run_batch_file(in_path, second, workers=1)
        assert summary2["cache_hits"] == 3


class TestServiceCLI:
    def test_parser_accepts_new_commands(self):
        from repro.cli import build_parser
        parser = build_parser()
        args = parser.parse_args(["serve", "--snapshot", "x.gz",
                                  "--deadline-ms", "250"])
        assert args.snapshot == "x.gz" and args.deadline_ms == 250.0
        args = parser.parse_args(["batch", "in.jsonl", "out.jsonl",
                                  "--workers", "3"])
        assert args.workers == 3
        # one portfolio, always auto-tuned: the mode knobs are gone
        for retired in (["--portfolio", "sequential"],
                        ["--race-workers", "2"]):
            with pytest.raises(SystemExit):
                parser.parse_args(["serve", *retired])
        args = parser.parse_args(["family", "--max-n", "4",
                                  "--snapshot-out", "warm.gz"])
        assert args.snapshot_out == "warm.gz"

    def test_family_snapshot_out_then_batch(self, tmp_path, capsys):
        from repro.cli import main
        snap = str(tmp_path / "warm.qspmem.gz")
        assert main(["family", "--max-n", "4", "--engine", "astar",
                     "--snapshot-out", snap]) == 0
        in_path = tmp_path / "in.jsonl"
        out_path = tmp_path / "out.jsonl"
        in_path.write_text(json.dumps({"id": "d", "dicke": [4, 2]}) + "\n",
                           encoding="utf-8")
        assert main(["batch", str(in_path), str(out_path),
                     "--snapshot", snap]) == 0
        row = json.loads(out_path.read_text().splitlines()[0])
        assert row["ok"] and row["cnot_cost"] == 6
        out = capsys.readouterr().out
        assert "snapshot written" in out

    def test_family_cold_rejects_snapshot_flags(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["family", "--max-n", "3", "--cold",
                  "--snapshot-out", "x.gz"])


class TestQSPResultCodec:
    def test_roundtrip_through_prepare(self):
        from repro.utils.serialization import (
            qsp_result_from_dict,
            qsp_result_to_dict,
        )

        result = prepare_state(dicke_state(4, 2))
        data = qsp_result_to_dict(result)
        json.dumps(data)
        back = qsp_result_from_dict(data)
        assert back.cnot_cost == result.cnot_cost
        assert back.sparse_path == result.sparse_path
        assert back.exact_optimal == result.exact_optimal
        assert back.trace == result.trace
        assert prepares_state(back.circuit, dicke_state(4, 2))

    def test_wrong_kind_rejected(self):
        from repro.exceptions import ReproError
        from repro.utils.serialization import qsp_result_from_dict

        with pytest.raises(ReproError):
            qsp_result_from_dict({"kind": "qstate"})


class TestWorkflowMemoryWiring:
    def test_prepare_state_accepts_memory_and_matches_cold(self):
        state = dicke_state(4, 2)
        cold = prepare_state(state)
        memory = SearchMemory()
        warm1 = prepare_state(state, memory=memory)
        warm2 = prepare_state(state, memory=memory)
        assert warm1.cnot_cost == warm2.cnot_cost == cold.cnot_cost
        assert memory.searches > 0

    def test_sparse_path_with_memory(self):
        # wide sparse state: exercises the reduction path's exact cores
        # through one shared memory
        state = w_state(6)
        cold = prepare_state(state)
        memory = SearchMemory()
        warm = prepare_state(state, memory=memory)
        assert warm.cnot_cost == cold.cnot_cost
        assert prepares_state(warm.circuit, state)
