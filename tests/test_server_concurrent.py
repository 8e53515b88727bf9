"""Concurrent serving: cross-request scheduler, WAL, async front end.

Covers the concurrent-model acceptance criteria: N concurrent requests
finish with costs identical to serial execution, every front door
(stdin loop, submit/run_turn, batch file) answers a request with the
same cost, earliest-deadline-first ordering under mixed deadlines,
mid-run cancellation frees its lanes, admission control rejects beyond
the cap, WAL replay reproduces the full-snapshot state, and a server
killed mid-burst shuts down gracefully (drained answers, compacted WAL,
exit 0) and warm-boots.
"""

from __future__ import annotations

import io
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from itertools import accumulate
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.astar import SearchConfig
from repro.core.memory import SearchMemory
from repro.core.pdb import entanglement_signature, signature_to_list
from repro.qsp.workflow import prepare_state
from repro.service.persistence import MemoryWAL, merge_wal_delta, \
    save_memory_snapshot, load_memory_snapshot
from repro.service.portfolio import autotune_specs, default_portfolio, \
    interleaved_portfolio
from repro.service.scheduler import RequestScheduler, RequestSession
from repro.service.server import ServiceConfig, SynthesisService, \
    parse_request_state, serve_loop
from repro.utils.serialization import memory_baseline, \
    memory_delta_is_empty, memory_merge_dict, memory_to_dict, \
    wal_header_to_dict, wal_record_to_dict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _config(**kwargs) -> ServiceConfig:
    kwargs.setdefault("search", SearchConfig(max_nodes=50_000,
                                             time_limit=20.0))
    return ServiceConfig(**kwargs)


def _requests():
    return [
        {"id": "w4", "op": "exact", "w": 4},
        {"id": "ghz4", "op": "exact", "ghz": 4},
        {"id": "d42", "op": "exact", "dicke": [4, 2]},
        {"id": "w5", "op": "exact", "w": 5},
        {"id": "d52", "op": "exact", "dicke": [5, 2]},
    ]


def _oracle(requests, config: ServiceConfig) -> dict:
    """Each request answered by the one-shot drivers, in order, through
    one shared memory: ``interleaved_portfolio`` for ``exact`` and
    ``prepare_state`` for ``prepare`` — the reference side of the
    front-door differentials, independent of the service."""
    memory = SearchMemory()
    rows = {}
    for request in requests:
        state = parse_request_state(request)
        if request["op"] == "prepare":
            result = prepare_state(state, config.qsp, memory=memory)
            rows[request["id"]] = {
                "cnot_cost": result.cnot_cost,
                "exact_optimal": result.exact_optimal,
                "sparse_path": result.sparse_path,
                "trace": list(result.trace)}
        else:
            outcome = interleaved_portfolio(state, config.search,
                                            config.specs, memory=memory)
            rows[request["id"]] = {"cnot_cost": outcome.result.cnot_cost,
                                   "optimal": outcome.result.optimal}
    return rows


def _drive(service: SynthesisService, requests, client=None):
    """Submit everything up front, then run the scheduler dry."""
    replies: list[dict] = []
    for request in requests:
        service.submit(request, replies.append, client=client)
    while service.scheduler.pending:
        service.scheduler.run_turn()
    return {r["id"]: r for r in replies}


# ----------------------------------------------------------------------
# concurrent == serial
# ----------------------------------------------------------------------

class TestConcurrentEqualsSerial:
    def test_costs_identical_to_serial(self):
        rows = _oracle(_requests(), _config())
        concurrent = SynthesisService(_config(use_cache=False))
        got = _drive(concurrent, _requests())
        assert set(got) == set(rows)
        assert concurrent.scheduler.peak_inflight == len(rows)
        for rid, row in rows.items():
            assert got[rid]["ok"], rid
            assert got[rid]["cnot_cost"] == row["cnot_cost"], rid
            assert got[rid]["optimal"] == row["optimal"], rid

    def test_all_sessions_advance_interleaved(self):
        service = SynthesisService(_config(use_cache=False))
        replies: list[dict] = []
        for request in _requests():
            service.submit(request, replies.append)
        # several sessions must be live at once mid-schedule
        service.scheduler.run_turn()
        assert len(service.scheduler) >= 2 or len(replies) >= 1
        while service.scheduler.pending:
            service.scheduler.run_turn()
        assert len(replies) == len(_requests())
        assert all(r["ok"] for r in replies)

    def test_cache_hit_answered_at_admission(self):
        service = SynthesisService(_config())
        _drive(service, [{"id": 1, "op": "exact", "w": 4}])
        replies: list[dict] = []
        registered = service.submit({"id": 2, "op": "exact", "w": 4},
                                    replies.append)
        assert registered is False  # answered inline, no session
        assert replies and replies[0]["cached"] is True
        assert replies[0]["engine"] == "cache"


# ----------------------------------------------------------------------
# observability zero-overhead differential
# ----------------------------------------------------------------------

class TestObsZeroOverhead:
    """Obs disabled (the default) must be bit-identical to obs enabled:
    same costs, same optimality flags, same turn counts, same expansion
    counts, same settle order — the hard contract of ``repro.obs``."""

    @staticmethod
    def _drive_recording(service, requests):
        settled: dict = {}
        order: list = []
        scheduler = service.scheduler
        original = scheduler._settle

        def record(session):
            settled[session.rid] = (session.turns,
                                    session.lanes.expansions)
            order.append(session.rid)
            original(session)

        scheduler._settle = record
        replies = _drive(service, requests)
        return replies, settled, order

    def test_disabled_obs_is_differentially_invisible(self):
        from repro.obs import ObsConfig
        from repro.obs.trace import reconstruct_timelines

        # node budgets only: a wall-clock limit would end lanes at
        # host-speed-dependent points and make the two runs differ
        search = SearchConfig(max_nodes=50_000)
        plain_service = SynthesisService(_config(use_cache=False,
                                                 search=search))
        assert plain_service.obs is None  # library default: no obs at all
        plain, plain_settled, plain_order = self._drive_recording(
            plain_service, _requests())

        observed_service = SynthesisService(_config(
            use_cache=False, search=search, obs=ObsConfig.on()))
        assert observed_service.obs is not None
        rich, rich_settled, rich_order = self._drive_recording(
            observed_service, _requests())

        assert set(plain) == set(rich)
        for rid in plain:
            assert plain[rid]["ok"] == rich[rid]["ok"], rid
            assert plain[rid]["cnot_cost"] == rich[rid]["cnot_cost"], rid
            assert plain[rid]["optimal"] == rich[rid]["optimal"], rid
            assert plain[rid]["engine"] == rich[rid]["engine"], rid
        assert plain_order == rich_order
        assert plain_settled == rich_settled  # per-rid turns + expansions
        assert plain_service.scheduler.turns == \
            observed_service.scheduler.turns
        # and the observed run actually observed: every settle traced
        timelines = reconstruct_timelines(
            observed_service.obs.trace_tail())
        for rid in rich:
            assert timelines[rid]["balanced"], rid


# ----------------------------------------------------------------------
# scheduler policy (stub sessions: no real searches)
# ----------------------------------------------------------------------

def _stub_session(rid, *, deadline_at=None, rounds=3, log=None,
                  client=None):
    """A session whose lanes settle after ``rounds`` run_round calls."""
    state = {"left": rounds}

    lanes = SimpleNamespace(deadline=None, deadline_expired=False,
                            aborted=False)

    def run_round():
        state["left"] -= 1
        return state["left"] > 0

    def finish():
        return SimpleNamespace(solved=False, deadline_expired=False)

    def abort():
        lanes.aborted = True

    lanes.run_round = run_round
    lanes.finish = finish
    lanes.abort = abort

    def on_settle(session, outcome):
        return {"id": rid, "ok": True}

    def reply(response):
        if log is not None:
            log.append(rid)

    session = RequestSession(rid=rid, request={}, state=None, lanes=lanes,
                             reply=reply, on_settle=on_settle,
                             client=client)
    session.deadline_at = deadline_at
    return session


class TestSchedulerPolicy:
    def test_edf_orders_mixed_deadlines(self):
        scheduler = RequestScheduler(fairness_stride=1000)
        log: list = []
        late = _stub_session("late", deadline_at=100.0, log=log)
        soon = _stub_session("soon", deadline_at=50.0, log=log)
        scheduler.submit(late)
        scheduler.submit(soon)
        # submit() recomputes deadline_at only for real lane deadlines
        late.deadline_at, soon.deadline_at = 100.0, 50.0
        while scheduler.pending:
            scheduler.run_turn()
        assert log == ["soon", "late"]

    def test_fairness_stride_feeds_undeadlined(self):
        scheduler = RequestScheduler(fairness_stride=3)
        log: list = []
        deadlined = _stub_session("d", deadline_at=10.0, rounds=50, log=log)
        slow = _stub_session("u", rounds=50, log=log)
        scheduler.submit(deadlined)
        scheduler.submit(slow)
        deadlined.deadline_at = 10.0
        for _ in range(12):
            scheduler.run_turn()
        # every 3rd turn went to the round-robin undeadlined queue
        assert slow.turns == 4
        assert deadlined.turns == 8

    def test_admission_cap_rejects(self):
        scheduler = RequestScheduler(max_inflight=2)
        assert scheduler.submit(_stub_session("a", rounds=10))
        assert scheduler.submit(_stub_session("b", rounds=10))
        assert scheduler.full
        assert scheduler.submit(_stub_session("c", rounds=10)) is False

    def test_cancel_client_aborts_only_theirs(self):
        scheduler = RequestScheduler()
        mine = _stub_session("mine", rounds=10, client="c1")
        theirs = _stub_session("theirs", rounds=10, client="c2")
        scheduler.submit(mine)
        scheduler.submit(theirs)
        assert scheduler.cancel_client("c1") == 1
        assert len(scheduler) == 1
        assert mine.lanes.aborted and not theirs.lanes.aborted

    def test_settle_hook_failure_is_contained(self):
        scheduler = RequestScheduler()
        log: list = []
        session = _stub_session("boom", rounds=1, log=log)

        def exploding(session, outcome):
            raise RuntimeError("settle bug")

        replies: list = []
        session.on_settle = exploding
        session.reply = replies.append
        scheduler.submit(session)
        scheduler.run_turn()
        assert replies and replies[0]["ok"] is False
        assert "settle bug" in replies[0]["error"]


# ----------------------------------------------------------------------
# real cancellation + admission against live searches
# ----------------------------------------------------------------------

class TestLiveSessions:
    def test_cancellation_mid_run_frees_lanes(self):
        service = SynthesisService(_config(use_cache=False))
        seen: list[dict] = []
        service.submit({"id": "heavy", "op": "exact", "dicke": [6, 3]},
                       seen.append, client="victim")
        service.submit({"id": "other", "op": "exact", "w": 4},
                       seen.append, client="keeper")
        for _ in range(3):
            service.scheduler.run_turn()
        victim = [s for s in service.scheduler.sessions
                  if s.client == "victim"]
        if victim:  # not settled yet: cancel mid-run
            runs = [lane.run for lane in victim[0].lanes.lanes]
            assert service.scheduler.cancel_client("victim") == 1
            assert all(run.status.terminal for run in runs)
            assert not victim[0].lanes.active
        while service.scheduler.pending:
            service.scheduler.run_turn()
        # the cancelled request never replies; the other one completes
        ids = [r["id"] for r in seen]
        assert "other" in ids and "heavy" not in ids

    def test_busy_rejection_beyond_cap(self):
        service = SynthesisService(_config(use_cache=False,
                                           max_inflight=2))
        replies: list[dict] = []
        service.submit({"id": 1, "op": "exact", "dicke": [6, 3]},
                       replies.append)
        service.submit({"id": 2, "op": "exact", "dicke": [5, 2]},
                       replies.append)
        service.submit({"id": 3, "op": "exact", "w": 4}, replies.append)
        busy = [r for r in replies if r.get("busy")]
        assert len(busy) == 1 and busy[0]["id"] == 3
        assert busy[0]["ok"] is False
        assert service.busy_rejections == 1
        service.scheduler.drain(0.0)  # flush the two live sessions


# ----------------------------------------------------------------------
# WAL
# ----------------------------------------------------------------------

def _memory_state(memory: SearchMemory) -> tuple:
    """Comparable knowledge of a memory: transposition entries of both
    kinds, PDB evidence and lane stats — every section a WAL replay and a
    pool cross-merge reproduce.  The canon-key and heuristic stores are
    process-local caches and are left out."""
    return (
        dict(memory.transposition.data),
        dict(memory.transposition.cond),
        {json.dumps(signature): tuple(row)
         for signature, row in memory.pdb.to_dict()["entries"]},
        {name: dict(row) for name, row in memory.lane_stats.items()},
    )


class TestMemoryWAL:
    def test_replay_equals_full_snapshot(self, tmp_path):
        wal_path = tmp_path / "svc.qspwal"
        service = SynthesisService(_config(
            use_cache=False, wal_path=str(wal_path),
            wal_compact_interval=0))  # no auto-compaction: records stay
        _drive(service, _requests())
        # a repeat observation moves only the PDB evidence count
        _drive(service, [dict(_requests()[0], id="w4-again")])
        assert service.wal.records > 0
        snap_path = tmp_path / "full.qspmem.json"
        save_memory_snapshot(service.memory, snap_path)
        # replayed boot (empty sidecar + records) == the full snapshot
        replayed, _wal = MemoryWAL.boot(tmp_path / "svc.qspwal")
        full = load_memory_snapshot(snap_path)
        assert _memory_state(replayed) == _memory_state(full)

    def test_improved_entries_ride_the_delta(self):
        fresh = SearchMemory()
        from repro.core.kernel import CanonKey
        key = CanonKey(3, 7, 7)
        other = CanonKey(3, 9, 9)
        fresh.transposition.record(key, 2.0, frozenset())
        receiver = SearchMemory()
        memory_merge_dict(receiver, memory_to_dict(fresh))
        baseline = memory_baseline(fresh)
        fresh.transposition.record(key, 5.0, frozenset())  # in-place
        fresh.transposition.record(other, 1.0, frozenset([key]))
        fresh.transposition.record(other, 3.0, frozenset([key]))
        delta = memory_to_dict(fresh, since=baseline)
        assert len(delta["transposition"]["data"]) == 1  # improved key
        memory_merge_dict(receiver, delta)
        assert dict(receiver.transposition.data) == \
            dict(fresh.transposition.data)
        assert dict(receiver.transposition.cond) == \
            dict(fresh.transposition.cond)

    def test_compaction_truncates_and_preserves_state(self, tmp_path):
        wal_path = tmp_path / "c.qspwal"
        service = SynthesisService(_config(
            use_cache=False, wal_path=str(wal_path),
            wal_compact_interval=2))  # compact every 2 records
        _drive(service, _requests())
        live = _memory_state(service.memory)
        assert service.wal.compactions >= 1
        service.shutdown()
        # post-shutdown: log is just a header, sidecar holds everything
        with open(wal_path, encoding="utf-8") as handle:
            lines = [ln for ln in handle if ln.strip()]
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "memory_wal"
        rebooted, _wal = MemoryWAL.boot(wal_path)
        assert _memory_state(rebooted) == live

    def test_torn_final_line_is_tolerated(self, tmp_path):
        wal_path = tmp_path / "torn.qspwal"
        service = SynthesisService(_config(
            use_cache=False, wal_path=str(wal_path),
            wal_compact_interval=0))
        _drive(service, _requests()[:2])
        service.wal.close(compact=False)
        good, _ = MemoryWAL.boot(wal_path)
        good_state = _memory_state(good)
        # simulate a mid-append crash: chop the final record in half
        raw = wal_path.read_text(encoding="utf-8")
        wal_path.write_text(raw[:-40], encoding="utf-8")
        torn, wal = MemoryWAL.boot(wal_path)
        # the torn record is dropped; everything before it replays
        assert wal.records >= 0
        state = _memory_state(torn)
        for idx in (0, 1, 2, 3):  # subsets of the intact boot
            assert set(state[idx]).issubset(set(good_state[idx]))

    def test_logs_carry_knowledge_not_caches(self, tmp_path):
        """WAL records and the compaction sidecar carry no canon-key or
        heuristic entries; an explicit ``op: snapshot`` file still does."""
        wal_path = tmp_path / "k.qspwal"
        service = SynthesisService(_config(
            use_cache=False, wal_path=str(wal_path),
            wal_compact_interval=0))
        _drive(service, _requests()[:3])
        assert len(service.memory.canon_store) > 0
        with open(wal_path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle][1:]
        assert len(records) == service.wal.records > 0
        shape = memory_to_dict(service.memory).keys()
        for record in records:
            delta = record["delta"]
            # the sections stay (empty), so older builds read the records
            assert delta.keys() == shape
            assert delta["canon_store"] == [] and delta["h_store"] == []
            assert not memory_delta_is_empty(delta)
        service.wal.compact()
        sidecar = json.loads(service.wal.snapshot_path.read_text(
            encoding="utf-8"))
        assert sidecar["canon_store"] == [] and sidecar["h_store"] == []
        assert sidecar["lane_stats"]
        explicit = tmp_path / "explicit.json"
        reply = service.handle({"id": "s", "op": "snapshot",
                                "path": str(explicit)})
        assert reply["ok"] and reply["entries"] > 0
        assert json.loads(explicit.read_text(encoding="utf-8"))[
            "canon_store"]
        service.shutdown()

    def test_records_with_cache_entries_still_boot(self, tmp_path):
        """Older builds logged the canon-key store in every record; such a
        log still replays, cache entries included."""
        source = SynthesisService(_config(use_cache=False))
        _drive(source, _requests()[:2])
        wal_path = tmp_path / "old.qspwal"
        with open(wal_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                wal_header_to_dict(source.memory.fingerprint)) + "\n")
            handle.write(json.dumps(wal_record_to_dict(
                1, memory_to_dict(source.memory))) + "\n")
        memory, wal = MemoryWAL.boot(wal_path)
        wal.close(compact=False)
        assert wal.replayed == 1 and not wal.truncations
        assert _memory_state(memory) == _memory_state(source.memory)
        assert len(memory.canon_store) == len(source.memory.canon_store) > 0

    def test_wal_survives_warm_boot_cycle(self, tmp_path):
        wal_path = tmp_path / "cycle.qspwal"
        first = SynthesisService(_config(use_cache=False,
                                         wal_path=str(wal_path)))
        _drive(first, _requests()[:3])
        first.shutdown()
        second = SynthesisService(_config(use_cache=False,
                                          wal_path=str(wal_path)))
        assert second.memory.lane_stats  # history survived the reboot
        got = _drive(second, _requests()[3:])
        assert all(r["ok"] for r in got.values())
        second.shutdown()


@pytest.fixture(scope="module")
def wal_prefixes(tmp_path_factory):
    """A real WAL (header + one line per record) and the knowledge a boot
    of its first ``r`` records holds, for every ``r``."""
    directory = tmp_path_factory.mktemp("wal")
    path = directory / "prop.qspwal"
    service = SynthesisService(_config(
        use_cache=False, wal_path=str(path), wal_compact_interval=0))
    targets = ({"w": 3}, {"ghz": 3}, {"w": 4}, {"ghz": 4}, {"dicke": [4, 2]})
    for index, target in enumerate(targets):
        _drive(service, [dict(target, id=index, op="exact")])
    service.wal.close(compact=False)
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(lines) == 1 + len(targets)
    states = []
    for count in range(len(lines)):
        prefix = directory / f"prefix{count}.qspwal"
        prefix.write_bytes(b"".join(lines[:1 + count]))
        memory, wal = MemoryWAL.boot(prefix)
        wal.close(compact=False)
        assert wal.replayed == count and not wal.truncations
        states.append(_memory_state(memory))
    return lines, states


class TestWALTruncation:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_cut_boots_the_record_prefix(self, wal_prefixes, data):
        """A WAL cut at any byte boots exactly the records that end
        before the cut: one truncation for a cut inside a line, none at
        a line boundary, and the knowledge of a boot of that prefix."""
        lines, states = wal_prefixes
        raw = b"".join(lines)
        ends = list(accumulate(len(line) for line in lines))
        # line boundaries, and the cut that leaves a whole line but its
        # newline, are drawn often; any other offset is drawn too
        edges = [0, *ends, *(end - 1 for end in ends)]
        cut = data.draw(st.one_of(st.integers(0, len(raw)),
                                  st.sampled_from(edges)))
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "cut.qspwal")
            with open(path, "wb") as handle:
                handle.write(raw[:cut])
            memory, wal = MemoryWAL.boot(path)
            wal.close(compact=False)
        complete = sum(end <= cut for end in ends[1:])
        assert wal.replayed == complete
        at_boundary = cut == 0 or cut in ends
        assert sum(wal.truncations.values()) == (0 if at_boundary else 1)
        assert _memory_state(memory) == states[complete]


# ----------------------------------------------------------------------
# autotuning
# ----------------------------------------------------------------------

class TestAutotune:
    def test_no_history_uniform_budgets(self):
        specs = default_portfolio()
        tuned, budgets = autotune_specs(specs, None, 100)
        assert tuned == specs
        assert set(budgets.values()) == {100}

    def test_winning_lane_gets_bigger_slices(self):
        memory = SearchMemory()
        for _ in range(20):
            memory.record_lane_outcome("beam", won=True, feasible=True)
            memory.record_lane_outcome("astar", won=False, feasible=False)
        tuned, budgets = autotune_specs(default_portfolio(), memory, 100)
        assert budgets["beam"] > 100
        assert budgets["astar"] < 100
        # ...but nobody is silenced by tuning alone
        assert all(b >= 50 for b in budgets.values())

    def test_chronic_loser_dropped(self):
        memory = SearchMemory()
        for _ in range(60):
            memory.record_lane_outcome("beam", won=True, feasible=True)
            memory.record_lane_outcome("astar-w2", won=False,
                                       feasible=False)
        tuned, _budgets = autotune_specs(default_portfolio(), memory)
        names = [s.name for s in tuned]
        assert "astar-w2" not in names
        assert "beam" in names

    def test_never_drops_everything(self):
        memory = SearchMemory()
        for spec in default_portfolio():
            for _ in range(60):
                memory.record_lane_outcome(spec.name, won=False,
                                           feasible=False)
        tuned, budgets = autotune_specs(default_portfolio(), memory, 100)
        assert len(tuned) == len(default_portfolio())
        assert budgets

    def test_deterministic_and_order_independent(self):
        memory = SearchMemory()
        for _ in range(10):
            memory.record_lane_outcome("idastar", won=True)
            memory.record_lane_outcome("beam", feasible=True)
        a = autotune_specs(default_portfolio(), memory, 128)
        b = autotune_specs(default_portfolio(), memory, 128)
        assert a == b

    def test_provers_keep_their_lane_under_traffic(self):
        """A proof credits the proving lane, not the lane holding the
        circuit: past ``LANE_DROP_MIN_RUNS`` light exact misses, every
        answer is still optimal and auto-tuning still runs A*."""
        from repro.constants import LANE_DROP_MIN_RUNS
        from repro.states.random_states import random_real_state
        from repro.utils.serialization import state_to_dict

        service = SynthesisService()
        replies: list[dict] = []
        count = LANE_DROP_MIN_RUNS + 10
        for seed in range(count):
            state = random_real_state(4, 3, seed=seed)
            service.submit({"id": seed, "op": "exact",
                            "state": state_to_dict(state)}, replies.append)
            while service.scheduler.run_turn():
                pass
        assert len(replies) == count
        assert not any(r["cached"] for r in replies)  # distinct targets
        assert all(r["ok"] and r["optimal"] for r in replies)
        tuned, _budgets = autotune_specs(service.config.specs,
                                         service.memory)
        assert "astar" in [spec.name for spec in tuned]


# ----------------------------------------------------------------------
# one path per request: every front door answers alike
# ----------------------------------------------------------------------

class TestOnePath:
    EXACT = [
        {"id": "w4", "op": "exact", "w": 4},
        {"id": "d42", "op": "exact", "dicke": [4, 2]},
        {"id": "ghz5", "op": "exact", "ghz": 5},
        {"id": "terms", "op": "exact",
         "terms": {"0011": 0.6, "0101": 0.48, "1110": 0.64}},
    ]
    PREPARE = [
        {"id": "pw5", "op": "prepare", "w": 5},
        {"id": "pd52", "op": "prepare", "dicke": [5, 2]},
    ]

    def test_front_doors_agree(self, tmp_path):
        requests = self.EXACT + self.PREPARE
        lines = "".join(json.dumps(r) + "\n" for r in requests)
        out = io.StringIO()
        serve_loop(SynthesisService(_config()), io.StringIO(lines), out)
        stdin = {r["id"]: r for r in map(json.loads,
                                         out.getvalue().splitlines())}
        submitted = _drive(SynthesisService(_config()), requests)
        in_path, out_path = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        in_path.write_text("".join(json.dumps(r) + "\n"
                                   for r in self.EXACT), encoding="utf-8")
        SynthesisService(_config()).run_batch_file(in_path, out_path)
        batch = {r["id"]: r for r in map(json.loads,
                                         out_path.read_text().splitlines())}
        for request in requests:
            rid = request["id"]
            doors = [stdin[rid], submitted[rid]]
            flag = "exact_optimal"
            if request["op"] == "exact":
                doors.append(batch[rid])
                flag = "optimal"
            assert all(door["ok"] for door in doors), rid
            assert len({(door["cnot_cost"], door[flag])
                        for door in doors}) == 1, (rid, doors)

    def test_stdin_prepare_honors_deadline(self):
        from repro.sim.verify import prepares_state
        from repro.states.random_states import random_dense_state
        from repro.utils.serialization import circuit_from_dict, \
            state_to_dict

        state = random_dense_state(4, seed=0)
        service = SynthesisService(_config())  # cache on
        request = {"id": "dense", "op": "prepare", "deadline_ms": 1,
                   "state": state_to_dict(state), "return_circuit": True}
        out = io.StringIO()
        serve_loop(service, io.StringIO(json.dumps(request) + "\n"), out)
        [row] = [json.loads(line) for line in out.getvalue().splitlines()]
        assert row["ok"] and row["deadline_expired"] is True
        assert prepares_state(circuit_from_dict(row["circuit"]), state)
        # a truncated answer never enters the request cache
        assert service.cache.get("prepare", state) is None


# ----------------------------------------------------------------------
# serve_loop robustness
# ----------------------------------------------------------------------

class TestServeLoopRobustness:
    def test_handler_exception_does_not_kill_loop(self, tmp_path):
        import io

        service = SynthesisService(_config())

        def exploding(request):
            raise RuntimeError("handler bug")

        service.handle = exploding
        lines = io.StringIO('{"id": 1, "op": "stats"}\n'
                            '{"id": 2, "op": "stats"}\n')
        out = io.StringIO()
        handled = serve_loop(service, lines, out)
        assert handled == 2
        responses = [json.loads(ln) for ln in
                     out.getvalue().splitlines()]
        assert [r["id"] for r in responses] == [1, 2]
        assert all(r["ok"] is False for r in responses)
        assert all("handler bug" in r["error"] for r in responses)

    def test_malformed_and_unknown_op_keep_serving(self):
        import io

        service = SynthesisService(_config())
        lines = io.StringIO('not json at all\n'
                            '{"id": 5, "op": "wat", "w": 3}\n'
                            '{"id": 6, "op": "stats"}\n')
        out = io.StringIO()
        handled = serve_loop(service, lines, out)
        assert handled == 3
        responses = [json.loads(ln) for ln in out.getvalue().splitlines()]
        assert responses[0]["ok"] is False
        assert responses[1]["ok"] is False and responses[1]["id"] == 5
        assert responses[2]["ok"] is True and responses[2]["id"] == 6


# ----------------------------------------------------------------------
# prepare as a scheduler session (stepwise WorkflowRun)
# ----------------------------------------------------------------------

class TestConcurrentPrepare:
    def test_prepare_registers_a_session(self):
        service = SynthesisService(_config(use_cache=False))
        replies: list[dict] = []
        registered = service.submit(
            {"id": "p1", "op": "prepare", "dicke": [5, 2]}, replies.append)
        assert registered is True  # scheduled, not answered at admission
        assert not replies
        while service.scheduler.pending:
            service.scheduler.run_turn()
        [row] = replies
        assert row["ok"] and row["op"] == "prepare"
        assert row["cnot_cost"] > 0 and row["cached"] is False

    def test_stepwise_equals_one_shot_differential(self):
        """Scheduler-driven prepare == inline prepare: costs AND trace."""
        requests = [
            {"id": "g", "op": "prepare", "ghz": 4, "trace": True},
            {"id": "w", "op": "prepare", "w": 5, "trace": True},
            {"id": "d", "op": "prepare", "dicke": [5, 2], "trace": True},
        ]
        rows = _oracle(requests, _config())
        concurrent = SynthesisService(_config(use_cache=False))
        got = _drive(concurrent, requests)
        assert set(got) == set(rows)
        for rid, row in rows.items():
            assert got[rid]["ok"], rid
            assert got[rid]["cnot_cost"] == row["cnot_cost"], rid
            assert got[rid]["exact_optimal"] == row["exact_optimal"], rid
            assert got[rid]["sparse_path"] == row["sparse_path"], rid
            assert got[rid]["trace"] == row["trace"], rid

    def test_prepare_interleaves_with_exact(self):
        """A light exact settles while a dense prepare is still running
        (the head-of-line contract the PR-10 pool bench gates on)."""
        service = SynthesisService(_config(use_cache=False))
        order: list = []
        service.submit({"id": "dense", "op": "prepare", "dicke": [6, 3]},
                       lambda r: order.append(r["id"]))
        service.submit({"id": "light", "op": "exact", "ghz": 4},
                       lambda r: order.append(r["id"]))
        while service.scheduler.pending:
            service.scheduler.run_turn()
        assert order.index("light") < order.index("dense")

    def test_prepare_deadline_flush_verified_never_cached(self, rng=None):
        service = SynthesisService(_config())  # cache ON
        assert service.cache is not None
        replies: list[dict] = []
        request = {"id": "slow", "op": "prepare", "dicke": [6, 3],
                   "deadline_ms": 1.0, "trace": True,
                   "return_circuit": True}
        assert service.submit(request, replies.append) is True
        while service.scheduler.pending:
            service.scheduler.run_turn()
        [row] = replies
        assert row["ok"] is True
        assert row["deadline_expired"] is True
        assert any("deadline flush" in line for line in row["trace"])
        assert "verified by simulation" in row["trace"][-1]
        # the flushed circuit really prepares the state
        from repro.sim.verify import prepares_state
        from repro.states.families import dicke_state
        from repro.utils.serialization import circuit_from_dict
        assert prepares_state(circuit_from_dict(row["circuit"]),
                              dicke_state(6, 3))
        # a truncated answer must never enter the request cache
        again: list[dict] = []
        registered = service.submit(
            {"id": "again", "op": "prepare", "dicke": [6, 3]}, again.append)
        assert registered is True  # cache miss: a fresh session, no hit
        service.scheduler.drain(0.0)

    def test_prepare_cancelled_mid_flow_on_disconnect(self):
        service = SynthesisService(_config(use_cache=False))
        replies: list[dict] = []
        service.submit({"id": "gone", "op": "prepare", "dicke": [6, 3]},
                       replies.append, client="dropper")
        for _ in range(2):
            service.scheduler.run_turn()
        assert service.scheduler.pending  # still mid-flow
        run = service.scheduler.sessions[0].lanes.run
        assert service.scheduler.cancel_client("dropper") == 1
        assert run.status.terminal
        assert not service.scheduler.pending
        assert not replies  # a vanished client is never answered


# ----------------------------------------------------------------------
# worker pool: in-band delta cross-merge + routing
# ----------------------------------------------------------------------

class TestPoolCrossMerge:
    def test_delta_merge_replay_exact_commutative_idempotent(self):
        """The pool's cross-merge records reproduce worker memories
        exactly, in any order, any number of times (improve-only)."""
        worker_a = SynthesisService(_config(use_cache=False))
        worker_b = SynthesisService(_config(use_cache=False))
        # the deltas a pool worker ships: everything since its boot
        since_a = memory_baseline(worker_a.memory)
        since_b = memory_baseline(worker_b.memory)
        for request in _requests()[:2]:
            worker_a.handle(request)
        for request in _requests()[2:]:
            worker_b.handle(request)
        record_a = wal_record_to_dict(
            1, memory_to_dict(worker_a.memory, since=since_a))
        record_b = wal_record_to_dict(
            1, memory_to_dict(worker_b.memory, since=since_b))
        # replay-exact: one worker's record rebuilds its memory
        solo = SearchMemory()
        assert merge_wal_delta(solo, record_a) == 1
        assert _memory_state(solo) == _memory_state(worker_a.memory)
        # commutative: merge order cannot matter
        ab, ba = SearchMemory(), SearchMemory()
        merge_wal_delta(ab, record_a)
        merge_wal_delta(ab, record_b)
        merge_wal_delta(ba, record_b)
        merge_wal_delta(ba, record_a)
        assert _memory_state(ab) == _memory_state(ba)
        # idempotent for the improve-only sections (transposition, pdb):
        # re-shipping a record never regresses an entry.  Lane stats are
        # deliberately additive advisory counters, so they are excluded
        # here.
        merge_wal_delta(ab, record_a)
        assert _memory_state(ab)[:3] == _memory_state(ba)[:3]

    def test_malformed_record_rejected_before_merge(self):
        memory = SearchMemory()
        with pytest.raises(Exception):
            merge_wal_delta(memory, {"kind": "nonsense"})
        assert _memory_state(memory) == _memory_state(SearchMemory())

    def test_worker_pull_ships_knowledge_not_caches(self):
        """A worker's ``pull`` answer carries its learned knowledge and no
        canon-key or heuristic entries; a second pull finds nothing."""
        import threading
        from multiprocessing import Pipe

        from repro.service.pool import _pool_worker_main

        router, end = Pipe()
        worker = threading.Thread(
            target=_pool_worker_main,
            args=(end, _config(use_cache=False), 0))
        worker.start()
        try:
            router.send(("request", 1, {"id": "w4", "op": "exact", "w": 4},
                         None))
            kind, mid, response = router.recv()
            assert (kind, mid) == ("reply", 1) and response["ok"]
            router.send(("pull",))
            kind, index, record = router.recv()
            assert (kind, index) == ("delta", 0)
            delta = record["delta"]
            assert delta["canon_store"] == [] and delta["h_store"] == []
            assert delta["lane_stats"] and delta["pdb"]["entries"]
            router.send(("pull",))
            assert router.recv() == ("delta", 0, None)
        finally:
            router.send(("drain", 0.0))
            while router.recv()[0] != "drained":
                pass
            worker.join(timeout=30)


class TestWorkerPool:
    def test_pool_costs_identical_and_cross_merges(self, monkeypatch,
                                                   tmp_path):
        from repro.service import pool as pool_module

        monkeypatch.setattr(pool_module, "POOL_CROSS_MERGE_INTERVAL", 2)
        requests = [
            {"id": "p-g", "op": "prepare", "ghz": 4},
            {"id": "e-w", "op": "exact", "w": 4},
            {"id": "p-d", "op": "prepare", "dicke": [4, 2]},
            {"id": "e-g", "op": "exact", "ghz": 5},
        ]
        rows = _oracle(requests, _config())
        pool = pool_module.WorkerPool(
            _config(use_cache=False,
                    wal_path=str(tmp_path / "pool.qspwal")), 2)
        answers: list[int] = []
        on_delta = pool._on_delta

        def counted(index, record):
            answers.append(index)
            on_delta(index, record)

        pool._on_delta = counted
        try:
            replies: list[dict] = []
            for request in requests:
                assert pool.submit(request, replies.append) is True
            deadline = time.time() + 120
            while pool.scheduler.pending and time.time() < deadline:
                pool.scheduler.run_turn()
            # one last merge round, pumped until every pull is answered:
            # each worker's knowledge is fanned out before the drain
            pool._begin_cross_merge()
            while len(answers) < 2 * pool.merge_rounds and \
                    time.time() < deadline:
                pool.scheduler.run_turn()
            assert len(answers) == 2 * pool.merge_rounds
            got = {r["id"]: r for r in replies}
            assert set(got) == set(rows)
            for rid, row in rows.items():
                assert got[rid]["ok"], rid
                assert got[rid]["cnot_cost"] == row["cnot_cost"], rid
            assert sum(pool.routed) == len(requests)
            assert pool.merge_rounds >= 1
            stats: list[dict] = []
            pool.submit({"id": "s", "op": "stats"}, stats.append)
            assert stats[0]["ok"] and stats[0]["pool"]["live"] == 2
            assert set(stats[0]["workers"]) == {"0", "1"}
        finally:
            summary = pool.shutdown(drain_ms=100.0)
        # every worker flushed its own WAL shard + sidecar at drain
        assert set(summary["workers"]) == {"0", "1"}
        for index in (0, 1):
            assert (tmp_path / f"pool.qspwal.w{index}").exists()
            assert (tmp_path / f"pool.qspwal.w{index}.snapshot").exists()
        # cross-merged shards: what one worker learned reached the other —
        # both sidecars hold the PDB evidence of both exact targets,
        # whichever worker settled them, and neither holds cache entries
        exact_signatures = {
            json.dumps(signature_to_list(entanglement_signature(
                parse_request_state(request))))
            for request in requests if request["op"] == "exact"}
        assert pool.deltas_shipped
        for index in (0, 1):
            memory = load_memory_snapshot(
                tmp_path / f"pool.qspwal.w{index}.snapshot")
            assert exact_signatures <= set(_memory_state(memory)[2])
            assert len(memory.canon_store) == 0


# ----------------------------------------------------------------------
# graceful shutdown: kill a real server mid-burst, warm-boot after
# ----------------------------------------------------------------------

def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestGracefulShutdown:
    def test_sigterm_mid_burst_drains_and_compacts(self, tmp_path):
        port = _free_port()
        wal_path = tmp_path / "burst.qspwal"
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from repro.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "serve", "--listen", f"127.0.0.1:{port}",
             "--wal", str(wal_path)],
            env=dict(os.environ,
                     PYTHONPATH=os.path.join(REPO_ROOT, "src")),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            deadline = time.time() + 20
            sock = None
            while time.time() < deadline:
                try:
                    sock = socket.create_connection(("127.0.0.1", port),
                                                    timeout=1.0)
                    break
                except OSError:
                    time.sleep(0.1)
            assert sock is not None, "server never came up"
            with sock:
                burst = [{"id": i, "op": "exact", "dicke": [5, 2]}
                         for i in range(4)]
                payload = "".join(json.dumps(r) + "\n" for r in burst)
                sock.sendall(payload.encode("utf-8"))
                time.sleep(0.5)  # let the burst get in flight
                proc.send_signal(signal.SIGTERM)
                proc.wait(timeout=30)
            assert proc.returncode == 0
            # shutdown compacted the WAL into its sidecar snapshot
            assert wal_path.exists()
            assert (tmp_path / "burst.qspwal.snapshot").exists()
            # and a warm boot starts from the compacted state
            memory, wal = MemoryWAL.boot(wal_path)
            assert memory.lane_stats
            wal.close(compact=False)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
