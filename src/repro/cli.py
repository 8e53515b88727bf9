"""Command-line interface: ``repro-qsp`` (or ``python -m repro.cli``).

Examples
--------
Prepare a Dicke state and print the circuit + stats::

    repro-qsp prepare --dicke 4 2

Prepare a state given as ``bitstring:weight`` terms and emit OpenQASM::

    repro-qsp prepare --terms 000:0.5 011:0.5 101:0.5 110:0.5 --qasm out.qasm

Compare all methods on a random sparse state::

    repro-qsp compare --random-sparse 8 --seed 7

Route onto a line device and report the topology tax::

    repro-qsp route --ghz 5 --topology line --placement greedy

Search *natively* on the device instead of routing (every CNOT lands on
a coupled pair, zero SWAPs), or race both pipelines and keep the
verified cheaper circuit::

    repro-qsp route --ghz 5 --topology line --mode native
    repro-qsp route --w 5 --topology heavy_hex --mode race

Estimate the preparation fidelity under depolarizing noise::

    repro-qsp fidelity --dicke 4 2 --p-cx 0.01 --p-1q 0.001

Verify that a QASM file prepares a state::

    repro-qsp verify circuit.qasm --w 4

Synthesize a whole Dicke family in one process with warm search memory,
and persist that memory as a warm-start snapshot for the service::

    repro-qsp family --max-n 5 --engine astar
    repro-qsp family --max-n 5 --engine idastar --snapshot-out warm.qspmem.gz

Synthesize the family topology-natively — every row searched directly on
a device of its size (one warm memory per register size)::

    repro-qsp family --max-n 5 --topology line

Run the long-lived synthesis service (one JSON request per stdin line,
one JSON response per stdout line), warm-started from a snapshot::

    repro-qsp serve --snapshot warm.qspmem.gz
    echo '{"id": 1, "op": "exact", "dicke": [4, 2]}' | repro-qsp serve

Every request runs the engine portfolio — all lanes time-sliced in one
process, feasible costs shared as live incumbents, first proven optimum
cancels the rest.  A wall-clock deadline per request returns the best
feasible circuit found so far instead of an error (a request's own
``deadline_ms`` field overrides the flag)::

    repro-qsp serve --deadline-ms 250
    echo '{"id": 1, "op": "exact", "dicke": [6, 3], "deadline_ms": 250}' \
        | repro-qsp serve

Serve many clients at once over a socket: ``--listen`` starts the
asyncio front end — same newline-JSON protocol as stdin, but requests
from all connections share one cross-request scheduler (expansion
slices fair-shared earliest-deadline-first, round-robin for undeadlined
requests), so a heavy request no longer blocks a light one.  Responses
arrive out of request order; match them by ``id``.  ``--wal`` keeps an
incremental write-ahead log of the knowledge the memory learns
(exhaustion proofs, pattern-database evidence, lane stats): one delta
record per settled request that learned something, replayed on boot,
compacted into a sidecar snapshot every ``--wal-compact-every`` records
and at shutdown.  The canon-key and heuristic caches are not logged:
they warm from ``--snapshot`` on the first boot only, then refill from
traffic::

    repro-qsp serve --listen 127.0.0.1:7700 --wal service.qspwal \
        --max-inflight 16
    repro-qsp serve --listen 127.0.0.1:7700 --wal service.qspwal \
        --wal-compact-every 64 --deadline-ms 500

Scale the socket server across processes: ``--workers N`` puts N
scheduler processes behind the one acceptor, routed least-inflight with
signature-affinity stickiness (a traffic cluster's flywheel caches heat
up in one worker).  Each worker owns its own WAL shard — ``--wal
service.qspwal`` becomes ``service.qspwal.w0`` … ``service.qspwal.w3``,
each with its own ``.snapshot`` sidecar — and what one worker learns
periodically cross-merges into the others (improve-only deltas, so the
merged memories never regress).  A dense ``prepare`` on one worker no
longer delays a light ``exact`` routed to another::

    repro-qsp serve --listen 127.0.0.1:7700 --workers 4 \
        --wal service.qspwal
    echo '{"id": 1, "op": "stats"}'  # reports per-worker + pool sections

Serving observes itself by default (metrics registry + ring-buffered
request tracing; ``--no-obs`` opts out — library callers are always
off).  ``--trace`` streams every span/event record to a JSONL file,
``--metrics`` serves the Prometheus text exposition next to ``--listen``,
and the ``trace``/``stats`` ops expose the same data in-band::

    repro-qsp serve --listen 127.0.0.1:7700 --metrics 127.0.0.1:9700 \
        --trace spans.jsonl
    curl http://127.0.0.1:9700/metrics
    echo '{"id": 1, "op": "trace", "limit": 100}' | repro-qsp serve

Serve one *device*: the service pins a topology, requests synthesize
natively, memory/cache entries never mix across devices, and the
exact-hit request cache persists across restarts::

    repro-qsp serve --topology heavy_hex --topology-size 5 \
        --cache-snapshot cache.qspreq.gz
    echo '{"id": 1, "op": "exact", "w": 5, "topology": "heavy_hex"}' | \
        repro-qsp serve --topology heavy_hex --topology-size 5

Batch-synthesize a JSONL request file (every line an ``exact`` request,
answered exactly as ``serve`` would); ``--workers N`` spreads it over
the same worker pool as ``serve --workers N``, each worker seeded from
the snapshot; ``--topology`` pins the device exactly as in ``serve``::

    repro-qsp batch requests.jsonl results.jsonl \
        --snapshot warm.qspmem.gz --workers 4
    repro-qsp batch requests.jsonl results.jsonl \
        --topology line --topology-size 4

Batch with a per-request latency budget (rows that hit the deadline
report their best feasible cost with ``deadline_expired``)::

    repro-qsp batch requests.jsonl results.jsonl --deadline-ms 500

Serve latency-first with ``op: fast`` — answer from the cache, else
adapt the nearest cached circuit that shares the target's entanglement
signature (deadline-bounded suffix re-search, simulator-verified before
serving), else fall back to a search driven by the pattern database's
learned bound tier.  The same tiers back ``prepare --mode fast``::

    echo '{"id": 1, "op": "fast", "w": 5, "deadline_ms": 250}' | \
        repro-qsp serve
    repro-qsp prepare --w 5 --mode fast --snapshot warm.qspmem.gz \
        --cache-snapshot cache.qspreq.gz --deadline-ms 250

Distill a request-cache snapshot into a pattern-database memory
snapshot offline — cached solved costs become signature-keyed evidence
(learned tier), proven-optimal ones become audited proof evidence — and
boot the service warm from it::

    repro-qsp distill cache.qspreq.gz --snapshot-out pdb.qspmem.gz
    repro-qsp serve --snapshot pdb.qspmem.gz
"""

from __future__ import annotations

import argparse
import sys

from repro.arch.topologies import TOPOLOGY_FAMILIES
from repro.constants import SERVICE_MAX_INFLIGHT, WAL_COMPACT_INTERVAL
from repro.exceptions import StateError
from repro.qsp.config import QSPConfig
from repro.qsp.solver import compare_methods
from repro.qsp.workflow import prepare_state
from repro.states.families import dicke_state, ghz_state, w_state
from repro.states.qstate import QState
from repro.states.random_states import random_dense_state, random_sparse_state
from repro.states.special import (
    binomial_state,
    cluster_state_1d,
    domain_wall_state,
    gaussian_state,
)
from repro.utils.tables import format_table

__all__ = ["main", "build_parser"]


def _state_from_args(args: argparse.Namespace) -> QState:
    if args.dicke:
        n, k = args.dicke
        return dicke_state(n, k)
    if args.ghz:
        return ghz_state(args.ghz)
    if args.w:
        return w_state(args.w)
    if args.cluster:
        return cluster_state_1d(args.cluster)
    if args.gaussian:
        return gaussian_state(args.gaussian)
    if args.binomial:
        return binomial_state(args.binomial)
    if args.domain_wall:
        return domain_wall_state(args.domain_wall)
    if args.random_sparse:
        return random_sparse_state(args.random_sparse, seed=args.seed)
    if args.random_dense:
        return random_dense_state(args.random_dense, seed=args.seed)
    if args.terms:
        # a malformed term exits with a one-line message naming it
        width = len(args.terms[0].partition(":")[0])
        weights: dict[str, float] = {}
        for term in args.terms:
            bits, _, weight = term.partition(":")
            try:
                if not bits or set(bits) - {"0", "1"} or len(bits) != width:
                    raise ValueError(f"want {width} bits of 0/1 before ':'")
                weights[bits] = float(weight) if weight else 1.0
            except ValueError as exc:
                raise SystemExit(f"--terms {term!r}: {exc}") from None
        try:
            return QState.from_bitstring_weights(weights)
        except StateError as exc:
            raise SystemExit(f"--terms: {exc}") from None
    raise SystemExit("no target state given (see --help)")


def _add_state_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dicke", nargs=2, type=int, metavar=("N", "K"),
                        help="Dicke state |D^K_N>")
    parser.add_argument("--ghz", type=int, metavar="N", help="GHZ state")
    parser.add_argument("--w", type=int, metavar="N", help="W state")
    parser.add_argument("--cluster", type=int, metavar="N",
                        help="1D cluster (graph) state")
    parser.add_argument("--gaussian", type=int, metavar="N",
                        help="Gaussian amplitude encoding on 2^N points")
    parser.add_argument("--binomial", type=int, metavar="N",
                        help="binomial amplitude encoding on 2^N points")
    parser.add_argument("--domain-wall", type=int, metavar="N",
                        help="uniform superposition of 0^a 1^b strings")
    parser.add_argument("--random-sparse", type=int, metavar="N",
                        help="random sparse state (m = N)")
    parser.add_argument("--random-dense", type=int, metavar="N",
                        help="random dense state (m = 2^(N-1))")
    parser.add_argument("--terms", nargs="+", metavar="BITS:W",
                        help="explicit terms, e.g. 011:0.7 100:-0.3")
    parser.add_argument("--seed", type=int, default=2024)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-qsp",
        description="Quantum state preparation via exact CNOT synthesis "
                    "(DATE 2024 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    prep = sub.add_parser("prepare", help="synthesize a preparation circuit")
    _add_state_options(prep)
    prep.add_argument("--qasm", metavar="FILE",
                      help="write OpenQASM 2.0 to FILE ('-' for stdout)")
    prep.add_argument("--draw", action="store_true",
                      help="print an ASCII rendering of the circuit")
    prep.add_argument("--mode", default="exact",
                      choices=("exact", "fast"),
                      help="exact = the full synthesis workflow (seed "
                           "behavior); fast = latency-first serving "
                           "through the service's cache -> near-hit -> "
                           "learned-bound tiers (always simulator-"
                           "verified, not necessarily optimal)")
    prep.add_argument("--snapshot", metavar="FILE", default=None,
                      help="fast mode: warm-start SearchMemory snapshot "
                           "(pattern database rides in it; see "
                           "'repro-qsp distill')")
    prep.add_argument("--cache-snapshot", metavar="FILE", default=None,
                      help="fast mode: request-cache snapshot whose "
                           "signature index nominates near-hit donors")
    prep.add_argument("--deadline-ms", type=float, default=None,
                      metavar="MS",
                      help="fast mode: wall-clock budget; bounds the "
                           "near-hit suffix re-search and the fallback "
                           "learned-tier search")

    comp = sub.add_parser("compare", help="compare all synthesis methods")
    _add_state_options(comp)

    route = sub.add_parser(
        "route", help="prepare on a restricted-topology device")
    _add_state_options(route)
    route.add_argument("--topology", default="line",
                       choices=TOPOLOGY_FAMILIES,
                       help="device coupling map (default: line)")
    route.add_argument("--placement", default="greedy",
                       choices=("trivial", "greedy", "annealed"))
    route.add_argument("--mode", default="route",
                       choices=("route", "native", "race"),
                       help="route = synthesize all-to-all then SWAP-route "
                            "(seed behavior); native = search directly on "
                            "the restricted move set (no SWAPs); race = "
                            "run both, keep the verified cheaper circuit")

    fid = sub.add_parser(
        "fidelity", help="estimate preparation fidelity under noise")
    _add_state_options(fid)
    fid.add_argument("--p-cx", type=float, default=1e-2,
                     help="depolarizing strength per CNOT (default 1e-2)")
    fid.add_argument("--p-1q", type=float, default=1e-3,
                     help="depolarizing strength per 1q gate (default 1e-3)")

    verify = sub.add_parser(
        "verify", help="check that a QASM circuit prepares a state")
    verify.add_argument("qasm_file", help="OpenQASM 2.0 input file")
    _add_state_options(verify)

    family = sub.add_parser(
        "family",
        help="synthesize a Dicke family in one process with warm "
             "cross-search memory")
    family.add_argument("--max-n", type=int, default=5, metavar="N",
                        help="largest register size (rows D(n,k), "
                             "k <= n//2; default 5)")
    family.add_argument("--min-n", type=int, default=3, metavar="N",
                        help="smallest register size (default 3)")
    family.add_argument("--engine", default="astar",
                        choices=("astar", "idastar", "beam"))
    family.add_argument("--cold", action="store_true",
                        help="disable the shared SearchMemory (baseline)")
    family.add_argument("--max-nodes", type=int, default=100_000,
                        help="per-row expansion budget (default 100000)")
    family.add_argument("--time-limit", type=float, default=None,
                        help="per-row wall-clock budget in seconds")
    family.add_argument("--repeat", type=int, default=1, metavar="R",
                        help="run the family R times through the same "
                             "memory (warm re-runs; default 1)")
    family.add_argument("--snapshot-out", metavar="FILE",
                        help="persist the warm SearchMemory to FILE after "
                             "the run (gzip when FILE ends in .gz); the "
                             "service loads it at boot")
    family.add_argument("--snapshot-in", metavar="FILE",
                        help="seed the SearchMemory from FILE before the "
                             "first row (warm start)")
    family.add_argument("--topology", metavar="FAMILY", default=None,
                        choices=tuple(f for f in TOPOLOGY_FAMILIES
                                      if f != "full"),
                        help="synthesize every row topology-natively on a "
                             "device of this family sized to the row "
                             "(one warm memory per register size)")

    distill = sub.add_parser(
        "distill",
        help="distill a request-cache snapshot into a pattern-database "
             "memory snapshot (signature -> cost evidence)")
    distill.add_argument("cache", metavar="CACHE_SNAPSHOT",
                         help="request-cache snapshot to distill (see "
                              "'serve --cache-snapshot')")
    distill.add_argument("--snapshot-out", metavar="FILE", required=True,
                         help="SearchMemory snapshot to write; the "
                              "pattern database rides in it and 'serve "
                              "--snapshot FILE' boots warm")
    distill.add_argument("--snapshot-in", metavar="FILE", default=None,
                         help="existing memory snapshot to layer the "
                              "distilled evidence on top of (regimes "
                              "must match)")

    serve = sub.add_parser(
        "serve",
        help="long-lived synthesis service: JSONL requests on stdin, "
             "JSONL responses on stdout")
    serve.add_argument("--snapshot", metavar="FILE",
                       help="warm-start SearchMemory snapshot to load at "
                            "boot (see 'family --snapshot-out')")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the request cache (every request "
                            "searches)")
    serve.add_argument("--max-nodes", type=int, default=None,
                       help="per-engine expansion budget, applied to "
                            "'exact' requests and the workflow's exact "
                            "stage (default: engine defaults)")
    serve.add_argument("--time-limit", type=float, default=None,
                       help="per-engine wall-clock budget in seconds "
                            "(same scope as --max-nodes)")
    _add_deadline_option(serve)
    serve.add_argument("--cache-snapshot", metavar="FILE",
                       help="persist the exact-hit request cache to FILE "
                            "(loaded at boot when it exists, written on "
                            "shutdown; gated by the same fingerprint + "
                            "format-version checks as --snapshot)")
    serve.add_argument("--listen", metavar="HOST:PORT", default=None,
                       help="serve a socket instead of stdin: the asyncio "
                            "front end accepts many concurrent clients, "
                            "fair-shares expansion slices across all "
                            "in-flight exact requests, and answers out "
                            "of request order (match responses by id)")
    serve.add_argument("--workers", type=int, default=1, metavar="N",
                       help="multi-process serving tier (requires "
                            "--listen): N scheduler processes behind the "
                            "one acceptor, routed by least-inflight with "
                            "signature-affinity stickiness; each worker "
                            "owns its own WAL shard (--wal FILE becomes "
                            "FILE.w0..FILE.w<N-1>) and learned-knowledge "
                            "deltas cross-merge periodically (default 1 "
                            "= inline single-process service)")
    serve.add_argument("--wal", metavar="FILE", default=None,
                       help="incremental SearchMemory write-ahead log: "
                            "learned knowledge (exhaustion proofs, PDB "
                            "evidence, lane stats) appended per settled "
                            "request, replayed on boot on top of "
                            "FILE.snapshot, compacted on an interval and "
                            "at shutdown (wins over --snapshot after the "
                            "first boot; the canon-key and heuristic "
                            "caches warm from --snapshot on the first "
                            "boot only, then refill from traffic)")
    serve.add_argument("--wal-compact-every", type=int, metavar="N",
                       default=None,
                       help="appended WAL records between automatic "
                            "compactions (default "
                            f"{WAL_COMPACT_INTERVAL})")
    serve.add_argument("--max-inflight", type=int, metavar="N",
                       default=None,
                       help="admission cap of the cross-request "
                            "scheduler: searching sessions in flight at "
                            "once; requests beyond it are answered "
                            "ok:false busy:true (default "
                            f"{SERVICE_MAX_INFLIGHT})")
    serve.add_argument("--no-obs", action="store_true",
                       help="disable observability (metrics registry + "
                            "request tracing; enabled by default when "
                            "serving — library embedders default to off)")
    serve.add_argument("--trace", metavar="FILE", default=None,
                       help="stream every trace record (request spans, "
                            "scheduler turns, lane slices, incumbent "
                            "broadcasts, settles) to FILE as JSONL, one "
                            "record per line; the in-process ring stays "
                            "queryable via the 'trace' op either way")
    serve.add_argument("--metrics", metavar="HOST:PORT", default=None,
                       help="serve the Prometheus text exposition of the "
                            "metrics registry over HTTP on a second "
                            "listener (requires --listen; curl "
                            "http://HOST:PORT/metrics)")
    _add_topology_options(serve)

    batch = sub.add_parser(
        "batch",
        help="batch synthesis: JSONL request file in, JSONL response "
             "file out, optionally across a worker pool")
    batch.add_argument("input", help="JSONL request file (one target per "
                                     "line, same schema as 'serve')")
    batch.add_argument("output", help="JSONL response file to write")
    batch.add_argument("--snapshot", metavar="FILE",
                       help="warm-start snapshot each worker seeds its "
                            "memory from")
    batch.add_argument("--workers", type=int, default=1, metavar="N",
                       help="service processes to spread the requests "
                            "over, the 'serve --workers' pool (default 1 "
                            "= in-process)")
    batch.add_argument("--max-nodes", type=int, default=None,
                       help="per-engine expansion budget (default: "
                            "engine defaults)")
    batch.add_argument("--time-limit", type=float, default=None,
                       help="per-engine wall-clock budget in seconds")
    batch.add_argument("--circuits", action="store_true",
                       help="include the synthesized circuits in the "
                            "response lines")
    _add_deadline_option(batch)
    _add_topology_options(batch)
    return parser


def _add_deadline_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--deadline-ms", type=float, default=None,
                        metavar="MS",
                        help="wall-clock budget per exact, prepare, or "
                             "fast request; when it expires the request "
                             "is answered with the best feasible circuit "
                             "found so far instead of an error; a "
                             "request's own 'deadline_ms' field "
                             "overrides this default")


def _add_topology_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", metavar="FAMILY", default=None,
                        choices=TOPOLOGY_FAMILIES,
                        help="pin the service to one device topology: "
                             "requests synthesize topology-natively and "
                             "memory/cache entries never mix across "
                             "devices (needs --topology-size)")
    parser.add_argument("--topology-size", type=int, default=None,
                        metavar="N",
                        help="physical qubit count of the pinned device "
                             "(requests must match it)")


def _cmd_prepare(args: argparse.Namespace, state: QState) -> int:
    if args.mode == "fast":
        return _cmd_prepare_fast(args, state)
    result = prepare_state(state, QSPConfig())
    print(f"target : {state.pretty()}")
    print(f"qubits : {state.num_qubits}   cardinality: "
          f"{state.cardinality}")
    print(f"CNOTs  : {result.cnot_cost}")
    for line in result.trace:
        print(f"  - {line}")
    if args.draw:
        print(result.circuit.draw())
    if args.qasm:
        from repro.circuits.qasm import to_qasm
        text = to_qasm(result.circuit)
        if args.qasm == "-":
            print(text)
        else:
            with open(args.qasm, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"QASM written to {args.qasm}")
    return 0


def _cmd_prepare_fast(args: argparse.Namespace, state: QState) -> int:
    """``prepare --mode fast``: one request through the serving tiers.

    Boots an in-process :class:`SynthesisService` (optionally warm from
    ``--snapshot`` / ``--cache-snapshot``) and submits a single ``fast``
    op — cache hit, near-hit adaptation, or learned-bound search,
    whichever answers first.  The served circuit is always simulator-
    verified; it is only marked optimal when a sound bound certifies it.
    """
    from repro.service.server import ServiceConfig, SynthesisService
    from repro.utils.serialization import circuit_from_dict, state_to_dict

    config = ServiceConfig(snapshot_path=args.snapshot,
                           cache_snapshot_path=args.cache_snapshot)
    service = SynthesisService(config)
    request: dict = {"id": 0, "op": "fast", "state": state_to_dict(state)}
    if args.deadline_ms is not None:
        request["deadline_ms"] = args.deadline_ms
    if args.qasm or args.draw:
        request["return_circuit"] = True
    response = service.handle(request)
    if not response.get("ok"):
        raise SystemExit(f"fast synthesis failed: {response.get('error')}")
    print(f"target : {state.pretty()}")
    print(f"qubits : {state.num_qubits}   cardinality: "
          f"{state.cardinality}")
    if "cnot_cost" in response:
        flag = " (proven optimal)" if response.get("optimal") else ""
        print(f"CNOTs  : {response['cnot_cost']}{flag}")
    else:
        bound = response.get("lower_bound")
        tail = f" (cost >= {bound})" if bound is not None else ""
        print(f"CNOTs  : unsolved within budget{tail}")
    tier = "cache" if response.get("cached") \
        else response.get("engine", "search")
    near = " (near-hit adaptation)" if response.get("near_hit") else ""
    print(f"tier   : {tier}{near}")
    if response.get("verified"):
        print("checked: simulator-verified against the target")
    if response.get("deadline_expired"):
        print("note   : deadline expired; best feasible answer served")
    print(f"seconds: {response.get('seconds', 0.0):.6f}")
    circuit_data = response.get("circuit")
    if circuit_data is not None:
        circuit = circuit_from_dict(circuit_data)
        if args.draw:
            print(circuit.draw())
        if args.qasm:
            from repro.circuits.qasm import to_qasm
            text = to_qasm(circuit)
            if args.qasm == "-":
                print(text)
            else:
                with open(args.qasm, "w", encoding="utf-8") as handle:
                    handle.write(text)
                print(f"QASM written to {args.qasm}")
    return 0


def _cmd_distill(args: argparse.Namespace) -> int:
    """``distill``: request-cache snapshot -> pattern-database snapshot.

    Every cached solved result becomes cost evidence for its target's
    entanglement signature: solved costs feed the learned (inadmissible)
    bound tier, proven-optimal ones additionally become proof evidence
    the admissibility audit checks against.  The structural admissible
    tier is recomputed from signatures alone, so distillation can never
    make an exact search inadmissible.
    """
    from repro.core.memory import SearchMemory
    from repro.core.pdb import entanglement_signature, state_from_payload
    from repro.service.persistence import (
        load_memory_snapshot,
        load_request_cache,
        save_memory_snapshot,
    )

    cache = load_request_cache(args.cache)
    if args.snapshot_in:
        memory = load_memory_snapshot(args.snapshot_in)
    else:
        memory = SearchMemory()
    pdb = memory.pdb
    scanned = 0
    for _mode, payload, result in cache.items():
        cost = getattr(result, "cnot_cost", None)
        if cost is None:
            continue
        optimal = bool(getattr(result, "optimal", False)
                       or getattr(result, "exact_optimal", False))
        signature = entanglement_signature(state_from_payload(payload))
        pdb.observe(signature, solved_cost=int(cost), optimal=optimal)
        scanned += 1
    violations = pdb.audit()
    if violations:
        raise SystemExit(
            f"distilled pattern database failed the admissibility audit "
            f"({len(violations)} violation(s)); refusing to write "
            f"{args.snapshot_out}: {violations[:3]!r}")
    save_memory_snapshot(memory, args.snapshot_out)
    snap = pdb.snapshot()
    print(f"distilled {scanned} cached result(s) from {args.cache}")
    print(f"pattern database: {snap['entries']} signature(s), "
          f"audit clean")
    print(f"memory snapshot written to {args.snapshot_out}")
    return 0


def _cmd_route(args: argparse.Namespace, state: QState) -> int:
    from repro.arch.flow import prepare_on_device
    from repro.arch.topologies import named_topology

    device = named_topology(args.topology, state.num_qubits)
    result = prepare_on_device(state, device, placement=args.placement,
                               seed=args.seed, mode=args.mode)
    print(f"device    : {device.name} ({device.size} physical qubits)")
    print(f"pipeline  : {args.mode} -> won by {result.mode}")
    print(f"placement : {result.placement_strategy} -> "
          f"{result.routed.initial_layout}")
    print(f"logical   : {result.logical_cnots} CNOTs")
    print(f"physical  : {result.physical_cnots} CNOTs "
          f"({result.routed.swap_count} SWAPs inserted)")
    print(f"overhead  : {result.overhead_cnots} CNOTs")
    if result.verified is not None:
        print(f"verified  : {result.verified}")
    return 0


def _cmd_fidelity(args: argparse.Namespace, state: QState) -> int:
    from repro.sim.noise import (
        NoiseModel,
        analytic_fidelity_bound,
        density_matrix_fidelity,
    )

    noise = NoiseModel(p_cx=args.p_cx, p_1q=args.p_1q)
    circuit = prepare_state(state, QSPConfig()).circuit
    bound = analytic_fidelity_bound(circuit, noise)
    print(f"CNOTs           : {circuit.cnot_cost()}")
    print(f"noise           : p_cx={noise.p_cx}  p_1q={noise.p_1q}")
    print(f"no-fault bound  : {bound:.6f}")
    if state.num_qubits <= 7:
        exact = density_matrix_fidelity(circuit, state, noise)
        print(f"exact fidelity  : {exact:.6f}")
    else:
        print("exact fidelity  : register too wide for density simulation")
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    from repro.core.astar import SearchConfig
    from repro.core.memory import SearchMemory
    from repro.experiments.family_runner import (
        FamilyRunConfig,
        dicke_family_targets,
        run_family,
    )

    from repro.core.beam import BeamConfig

    targets = dicke_family_targets(args.max_n, min_n=args.min_n)
    config = FamilyRunConfig(
        engine=args.engine,
        search=SearchConfig(max_nodes=args.max_nodes,
                            time_limit=args.time_limit),
        beam=BeamConfig(time_limit=args.time_limit),
        warm=not args.cold,
        topology=args.topology)
    if args.cold and (args.snapshot_in or args.snapshot_out):
        raise SystemExit("--cold cannot be combined with --snapshot-in/"
                         "--snapshot-out (there is no memory to persist)")
    if args.topology and (args.snapshot_in or args.snapshot_out):
        raise SystemExit("--topology runs keep one memory per register "
                         "size and cannot load/persist a single snapshot; "
                         "drop --snapshot-in/--snapshot-out")
    memory_pool = None
    if args.snapshot_in:
        from repro.service.persistence import load_memory_snapshot
        memory = load_memory_snapshot(args.snapshot_in)
    elif args.topology:
        # one memory per register size, held here so --repeat passes
        # stay warm across reps exactly like unrestricted runs
        memory = None
        memory_pool = {} if not args.cold else None
    else:
        memory = SearchMemory() if not args.cold else None
    for rep in range(max(1, args.repeat)):
        report = run_family(targets, config, memory=memory,
                            memory_pool=memory_pool)
        rows = []
        for row in report.rows:
            if row.solved:
                cost = row.cnot_cost
            elif row.lower_bound is not None:
                cost = f">={row.lower_bound}"
            else:
                cost = "-"
            flag = "*" if row.optimal else ""
            rows.append([row.label, f"{cost}{flag}", row.nodes_expanded,
                         f"{row.seconds:.3f}"])
        mode = "cold" if args.cold else f"warm pass {rep + 1}"
        if args.topology:
            mode += f", native on {args.topology}"
        print(format_table(
            ["state", "cnot", "expansions", "seconds"], rows,
            title=f"{args.engine} family run ({mode}, "
                  f"{report.total_seconds:.3f}s total; * = proven optimal)"))
        if report.memory is not None:
            canon = report.memory["canon_store"]
            tt = report.memory["transposition"]
            print(f"  memory: {report.memory['pool_states']} pooled states, "
                  f"canon store {canon['hits']}/{canon['hits'] + canon['misses']} hits, "
                  f"transposition {tt['entries']} entries "
                  f"({tt['hits']} hits)")
    if args.snapshot_out and memory is not None:
        from repro.service.persistence import save_memory_snapshot
        save_memory_snapshot(memory, args.snapshot_out)
        print(f"SearchMemory snapshot written to {args.snapshot_out}")
    return 0


def _service_config(args: argparse.Namespace, **extra):
    """Build a ServiceConfig honoring the CLI budget flags everywhere:
    both the 'exact' portfolio search and the 'prepare' workflow's exact
    stage (whose own defaults would otherwise silently win)."""
    from repro.core.astar import SearchConfig
    from repro.qsp.config import QSPConfig
    from repro.service.server import ServiceConfig

    search = SearchConfig()
    qsp = QSPConfig()
    if args.max_nodes is not None:
        search.max_nodes = args.max_nodes
        qsp.exact.search.max_nodes = args.max_nodes
    if args.time_limit is not None:
        search.time_limit = args.time_limit
        qsp.exact.search.time_limit = args.time_limit
        qsp.exact.beam.time_limit = args.time_limit
    topology = getattr(args, "topology", None)
    if topology is not None:
        if args.topology_size is None:
            raise SystemExit("--topology needs --topology-size (the "
                             "pinned device's physical qubit count)")
        from repro.arch.topologies import named_topology
        search.topology = named_topology(topology, args.topology_size)
    elif getattr(args, "topology_size", None) is not None:
        raise SystemExit("--topology-size without --topology")
    return ServiceConfig(search=search, qsp=qsp,
                         snapshot_path=args.snapshot,
                         deadline_ms=args.deadline_ms,
                         **extra)


def _parse_listen(spec: str, flag: str = "--listen") -> tuple[str, int]:
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise SystemExit(f"{flag} wants HOST:PORT, got {spec!r}")
    try:
        return host, int(port)
    except ValueError:
        raise SystemExit(f"{flag} port must be an integer, got {port!r}")


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs import ObsConfig
    from repro.service.server import SynthesisService, serve_loop

    extra: dict = {}
    if args.wal_compact_every is not None:
        extra["wal_compact_interval"] = max(0, args.wal_compact_every)
    if args.max_inflight is not None:
        extra["max_inflight"] = args.max_inflight
    if args.no_obs:
        if args.trace is not None:
            raise SystemExit("--trace needs observability; drop --no-obs")
        if args.metrics is not None:
            raise SystemExit("--metrics needs observability; drop --no-obs")
    else:
        # the serve paths observe themselves by default; library callers
        # (and --no-obs) keep the zero-overhead disabled state
        extra["obs"] = ObsConfig.on(trace_path=args.trace)
    if args.metrics is not None and args.listen is None:
        raise SystemExit("--metrics requires --listen (the exposition "
                         "listener shares the socket event loop)")
    workers = max(1, args.workers)
    if workers >= 2 and args.listen is None:
        raise SystemExit("--workers needs --listen (the pool fans a "
                         "socket acceptor out across processes; the "
                         "stdin loop is inherently one process)")
    config = _service_config(args, use_cache=not args.no_cache,
                             cache_snapshot_path=args.cache_snapshot,
                             wal_path=args.wal, **extra)
    if workers >= 2:
        from repro.service.asyncserver import serve_listen
        from repro.service.pool import WorkerPool

        host, port = _parse_listen(args.listen)
        metrics_host = metrics_port = None
        if args.metrics is not None:
            metrics_host, metrics_port = _parse_listen(args.metrics,
                                                       "--metrics")
        pool = WorkerPool(config, workers, obs_config=config.obs)
        summary = serve_listen(pool, host, port,
                               metrics_host=metrics_host,
                               metrics_port=metrics_port)
        print(f"served {summary['handled']} request(s) on "
              f"{summary['connections']} connection(s) across "
              f"{workers} worker(s), {summary['drained']} drained at "
              f"shutdown", file=sys.stderr)
        for index, worker in sorted(summary.get("workers", {}).items()):
            if worker.get("wal_snapshot"):
                print(f"worker {index}: WAL compacted into "
                      f"{worker['wal_snapshot']}", file=sys.stderr)
        return 0
    service = SynthesisService(config)
    if args.listen is not None:
        from repro.service.asyncserver import serve_listen
        host, port = _parse_listen(args.listen)
        metrics_host = metrics_port = None
        if args.metrics is not None:
            metrics_host, metrics_port = _parse_listen(args.metrics,
                                                       "--metrics")
        summary = serve_listen(service, host, port,
                               metrics_host=metrics_host,
                               metrics_port=metrics_port)
        stats = service.stats()
        print(f"served {summary['handled']} request(s) on "
              f"{summary['connections']} connection(s), "
              f"{stats['cache_hits']} cache hit(s), "
              f"{stats['errors']} error(s), "
              f"{summary['drained']} drained at shutdown",
              file=sys.stderr)
        if summary.get("wal_snapshot"):
            print(f"WAL compacted into {summary['wal_snapshot']}",
                  file=sys.stderr)
        if summary.get("cache_snapshot"):
            print(f"request-cache snapshot written to "
                  f"{summary['cache_snapshot']}", file=sys.stderr)
        return 0
    handled = serve_loop(service, sys.stdin, sys.stdout)
    summary = service.shutdown()
    stats = service.stats()
    print(f"served {handled} request(s), {stats['cache_hits']} cache "
          f"hit(s), {stats['errors']} error(s)", file=sys.stderr)
    if summary.get("wal_snapshot"):
        print(f"WAL compacted into {summary['wal_snapshot']}",
              file=sys.stderr)
    if summary.get("cache_snapshot"):
        print(f"request-cache snapshot written to "
              f"{summary['cache_snapshot']}", file=sys.stderr)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.service.server import SynthesisService

    service = SynthesisService(_service_config(args))
    summary = service.run_batch_file(args.input, args.output,
                                     workers=max(1, args.workers),
                                     with_circuit=args.circuits)
    print(f"batch: {summary['solved']}/{summary['requests']} solved "
          f"({summary['cache_hits']} cache hits, "
          f"{summary['workers']} worker(s)) -> {args.output}")
    return 0


def _cmd_verify(args: argparse.Namespace, state: QState) -> int:
    from repro.circuits.qasm import from_qasm
    from repro.sim.sparse import sparse_prepares

    with open(args.qasm_file, encoding="utf-8") as handle:
        circuit = from_qasm(handle.read())
    ok = sparse_prepares(circuit, state)
    print(f"circuit : {circuit.num_qubits} qubits, "
          f"{circuit.cnot_cost()} CNOTs")
    print(f"verdict : {'PREPARES' if ok else 'DOES NOT PREPARE'} the target")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "family":
        return _cmd_family(args)
    if args.command == "distill":
        return _cmd_distill(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "batch":
        return _cmd_batch(args)
    state = _state_from_args(args)

    if args.command == "prepare":
        return _cmd_prepare(args, state)
    if args.command == "compare":
        row = compare_methods(state)
        print(format_table(
            ["n", "m", "m-flow", "n-flow", "hybrid(+1 anc)", "ours"],
            [row.as_row()]))
        return 0
    if args.command == "route":
        return _cmd_route(args, state)
    if args.command == "fidelity":
        return _cmd_fidelity(args, state)
    if args.command == "verify":
        return _cmd_verify(args, state)
    return 1


if __name__ == "__main__":
    sys.exit(main())
