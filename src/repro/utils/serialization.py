"""JSON serialization for states, circuits, results, and search memory.

A release-quality artifact: benchmark outputs and synthesized circuits can
be persisted and reloaded without OpenQASM's angle round-off ambiguity
(angles are stored as exact binary floats via ``repr``).

The search-memory codec (:func:`memory_to_dict` / :func:`memory_from_dict`)
is the foundation of the service layer's disk persistence.  Two properties
make it more than a pickle:

* **Process portability.**  The 64-bit structural state hash is SipHash
  and therefore differs between processes, so nothing hash-keyed is
  stored by its hash: store entries are written as ``(payload, value)``
  pairs and re-keyed by the *loading* process
  (:meth:`~repro.core.memory.HashStore.put_payload`), and canonical keys
  are written by their process-independent identity (the 128-bit orbit
  hash, or the exact payload at ``CanonLevel.NONE``) with the 64-bit
  lookup hash rederived on load.
* **Version + regime gating.**  The snapshot records the format version
  (:data:`repro.constants.MEMORY_SNAPSHOT_VERSION`) and the memory's
  portable regime fingerprint; the loader raises
  :class:`~repro.exceptions.MemoryCompatibilityError` on any mismatch or
  corruption instead of silently mixing incompatible entries.

A memory holds two kinds of state.  *Knowledge* is what a search proved
or observed and cannot cheaply redo: transposition entries (exhaustion
proofs), pattern-database evidence and lane-outcome stats.  *Caches* are
the canon-key and heuristic stores, whose values are deterministic per
regime and recomputed on a miss.  Every snapshot carries the knowledge;
only full snapshots written with ``caches=True`` (explicit snapshot
files) carry the caches.  Deltas (``since=``), which the service WAL
appends and the worker pool cross-merges, carry knowledge only, so
replaying them reproduces every knowledge section while the caches
restart cold.
"""

from __future__ import annotations

import base64
import binascii
import json
import zlib
from typing import Any

from repro.circuits.circuit import QCircuit
from repro.circuits.gates import (
    CRYGate,
    CRZGate,
    CXGate,
    Gate,
    MCRYGate,
    MCXGate,
    RYGate,
    RZGate,
    XGate,
)
from repro.constants import MEMORY_SNAPSHOT_VERSION, MEMORY_WAL_VERSION
from repro.exceptions import MemoryCompatibilityError, ReproError
from repro.states.qstate import QState

__all__ = [
    "state_to_dict",
    "state_from_dict",
    "circuit_to_dict",
    "circuit_from_dict",
    "search_result_to_dict",
    "search_result_from_dict",
    "qsp_result_to_dict",
    "qsp_result_from_dict",
    "memory_baseline",
    "memory_to_dict",
    "memory_delta_is_empty",
    "memory_from_dict",
    "memory_merge_dict",
    "wal_header_to_dict",
    "wal_header_check",
    "wal_record_to_dict",
    "wal_record_from_dict",
    "wal_line",
    "wal_line_body",
    "dumps",
    "loads",
]

_GATE_TYPES: dict[str, type[Gate]] = {
    "x": XGate, "ry": RYGate, "rz": RZGate, "cx": CXGate, "cry": CRYGate,
    "crz": CRZGate, "mcry": MCRYGate, "mcx": MCXGate,
}


def state_to_dict(state: QState) -> dict[str, Any]:
    """Portable representation of a sparse state."""
    return {
        "kind": "qstate",
        "num_qubits": state.num_qubits,
        "amplitudes": {str(idx): amp for idx, amp in state.items()},
    }


def state_from_dict(data: dict[str, Any]) -> QState:
    """Inverse of :func:`state_to_dict`."""
    if data.get("kind") != "qstate":
        raise ReproError(f"not a serialized state: {data.get('kind')!r}")
    amps = {int(idx): float(amp)
            for idx, amp in data["amplitudes"].items()}
    return QState(int(data["num_qubits"]), amps)


def _gate_to_dict(gate: Gate) -> dict[str, Any]:
    out: dict[str, Any] = {
        "name": gate.name,
        "target": gate.target,
        "controls": [list(c) for c in gate.controls],
    }
    theta = getattr(gate, "theta", None)
    if theta is not None:
        out["theta"] = theta
    return out


def _gate_from_dict(data: dict[str, Any]) -> Gate:
    cls = _GATE_TYPES.get(data["name"])
    if cls is None:
        raise ReproError(f"unknown gate name {data['name']!r}")
    kwargs: dict[str, Any] = {
        "target": int(data["target"]),
        "controls": tuple((int(q), int(p)) for q, p in data["controls"]),
    }
    if "theta" in data:
        kwargs["theta"] = float(data["theta"])
    return cls(**kwargs)


def circuit_to_dict(circuit: QCircuit) -> dict[str, Any]:
    """Portable representation of a circuit (lossless angles)."""
    return {
        "kind": "qcircuit",
        "num_qubits": circuit.num_qubits,
        "gates": [_gate_to_dict(g) for g in circuit],
    }


def circuit_from_dict(data: dict[str, Any]) -> QCircuit:
    """Inverse of :func:`circuit_to_dict`."""
    if data.get("kind") != "qcircuit":
        raise ReproError(f"not a serialized circuit: {data.get('kind')!r}")
    circuit = QCircuit(int(data["num_qubits"]))
    for gate_data in data["gates"]:
        circuit.append(_gate_from_dict(gate_data))
    return circuit


def search_result_to_dict(result) -> dict[str, Any]:
    """Portable form of a :class:`~repro.core.astar.SearchResult`.

    Only the served fields travel (circuit, cost, optimality) — moves and
    stats are process-local diagnostics, exactly as in the race-portfolio
    wire format.
    """
    return {
        "kind": "search_result",
        "circuit": circuit_to_dict(result.circuit),
        "cnot_cost": int(result.cnot_cost),
        "optimal": bool(result.optimal),
    }


def search_result_from_dict(data: dict[str, Any]):
    """Inverse of :func:`search_result_to_dict`."""
    from repro.core.astar import SearchResult

    if data.get("kind") != "search_result":
        raise ReproError(f"not a serialized result: {data.get('kind')!r}")
    return SearchResult(circuit=circuit_from_dict(data["circuit"]),
                        cnot_cost=int(data["cnot_cost"]),
                        optimal=bool(data["optimal"]))


def qsp_result_to_dict(result) -> dict[str, Any]:
    """Portable representation of a :class:`~repro.qsp.workflow.QSPResult`."""
    return {
        "kind": "qsp_result",
        "circuit": circuit_to_dict(result.circuit),
        "cnot_cost": int(result.cnot_cost),
        "sparse_path": bool(result.sparse_path),
        "exact_optimal": result.exact_optimal,
        "trace": list(result.trace),
    }


def qsp_result_from_dict(data: dict[str, Any]):
    """Inverse of :func:`qsp_result_to_dict`."""
    from repro.qsp.workflow import QSPResult

    if data.get("kind") != "qsp_result":
        raise ReproError(f"not a serialized result: {data.get('kind')!r}")
    return QSPResult(circuit=circuit_from_dict(data["circuit"]),
                     cnot_cost=int(data["cnot_cost"]),
                     sparse_path=bool(data["sparse_path"]),
                     exact_optimal=data["exact_optimal"],
                     trace=list(data["trace"]))


# ----------------------------------------------------------------------
# Search-memory snapshots (service-layer persistence)
# ----------------------------------------------------------------------

_U64 = (1 << 64) - 1


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def _unb64(text: str) -> bytes:
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError) as exc:
        raise MemoryCompatibilityError(
            f"corrupted snapshot payload: {exc}") from exc


def _canon_key_enc(key) -> list:
    """Portable :class:`~repro.core.kernel.CanonKey`: ``[n, tag, full]``.

    Only the process-independent identity is stored — the 64-bit lookup
    hash is rederived on decode (``full & _U64`` for orbit-hash keys,
    this process's SipHash for payload keys).
    """
    full = key.full
    if isinstance(full, int):
        return [key.n, "i", format(full, "x")]
    return [key.n, "b", _b64(full)]


def _canon_key_dec(enc: list):
    from repro.core.kernel import CanonKey, state_hash64

    try:
        n, tag, body = enc
        if tag == "i":
            full: Any = int(body, 16)
            return CanonKey(int(n), full & _U64, full)
        if tag == "b":
            payload = _unb64(body)
            return CanonKey(int(n), state_hash64(payload), payload)
    except (ValueError, TypeError) as exc:
        raise MemoryCompatibilityError(
            f"corrupted canonical key {enc!r}: {exc}") from exc
    raise MemoryCompatibilityError(f"unknown canonical-key tag {enc!r}")


def memory_baseline(memory) -> dict[str, Any]:
    """Size markers for delta snapshots (see :func:`memory_to_dict`).

    Capture right after seeding a memory (e.g. a worker booting from the
    shared snapshot); a later ``memory_to_dict(memory, since=baseline)``
    then ships only the knowledge learned afterwards.
    """
    return {
        "transposition_data": len(memory.transposition.data),
        "transposition_cond": len(memory.transposition.cond),
        "transposition_evictions": memory.transposition.evictions,
        "transposition_improved": memory.transposition.improve_marker(),
        "pdb": memory.pdb.marker(),
        "lane_stats": {name: dict(row)
                       for name, row in memory.lane_stats.items()},
    }


def _lane_stats_delta(current: dict, base: dict) -> dict:
    """Counter-wise difference of lane-outcome stats (delta shipping).

    Lane counters merge *additively* (unlike the stores' by-identity
    overwrite), so a worker's delta must subtract the baseline it was
    seeded with — otherwise every merge would re-add the snapshot's own
    history.
    """
    delta: dict = {}
    for name, row in current.items():
        base_row = base.get(name, {})
        diff = {k: int(v) - int(base_row.get(k, 0)) for k, v in row.items()}
        if any(diff.values()):
            delta[name] = diff
    return delta


def memory_to_dict(memory, since: dict[str, Any] | None = None,
                   caches: bool = True) -> dict[str, Any]:
    """Portable snapshot of a :class:`~repro.core.memory.SearchMemory`.

    Captures everything that is worth carrying across processes: the
    transposition table (both entry kinds), the pattern database's
    evidence and the lane stats (the knowledge, see the module docs),
    the canon-key and heuristic stores (the caches) when ``caches`` is
    true, plus the regime fingerprint and container caps.  The interning
    pool is deliberately *not* captured — interned states are rebuilt on
    demand and their hashes are per-process anyway.

    ``since`` (a :func:`memory_baseline` captured earlier) restricts the
    snapshot to the knowledge added after that point — the delta a WAL
    record or a pool worker ships, a small fraction of a full snapshot.
    A delta never carries the caches.  All knowledge containers are
    insertion-ordered, so the delta is a suffix slice; in-place
    improvements of pre-existing transposition entries are folded back
    in via the table's improvement logs (see
    :meth:`~repro.core.memory.TranspositionTable.improve_marker`), so
    merging a delta reproduces the source memory's knowledge exactly —
    the property the service WAL's replay guarantee rests on.  When the
    logs overflowed (or an eviction sweep ran) since the baseline, the
    delta falls back to shipping the whole capped table.

    Store sections left out are written as empty lists, so the snapshot
    shape (and the readers of older builds) stay unchanged.

    Raises :class:`MemoryCompatibilityError` if the memory's heuristic
    has no importable name (such a memory cannot cross processes).
    """
    from itertools import islice

    from repro.utils.fingerprint import fingerprint_to_dict

    fp = memory.fingerprint
    transposition = memory.transposition
    skip_data = skip_cond = 0
    improved_data: list = []
    improved_cond: list = []
    lane_stats = {name: dict(row) for name, row in memory.lane_stats.items()}
    if since is not None:
        caches = False
        # budget-weighted eviction deletes arbitrary positions, and an
        # improvement-log overflow clears the logs — either invalidates
        # the positional skips, and the only safe delta is the whole
        # (capped) table
        imp = since.get("transposition_improved")
        if (transposition.evictions == since["transposition_evictions"]
                and imp is not None
                and int(imp[2]) == transposition.improve_overflows):
            skip_data = int(since["transposition_data"])
            skip_cond = int(since["transposition_cond"])
            improved_data = list(dict.fromkeys(
                islice(transposition.improved_data, int(imp[0]), None)))
            improved_cond = list(dict.fromkeys(
                islice(transposition.improved_cond, int(imp[1]), None)))
        lane_stats = _lane_stats_delta(lane_stats,
                                       since.get("lane_stats", {}))
    data_items = list(islice(transposition.data.items(), skip_data, None))
    if improved_data:
        # keys inserted after the baseline already carry their current
        # (improved) value in the suffix slice; only improvements to
        # pre-baseline entries need folding in
        suffix_keys = {key for key, _ in data_items}
        data_items.extend(
            (key, transposition.data[key]) for key in improved_data
            if key not in suffix_keys and key in transposition.data)
    cond_items = list(islice(transposition.cond.items(), skip_cond, None))
    if improved_cond:
        suffix_keys = {key for key, _ in cond_items}
        cond_items.extend(
            (key, transposition.cond[key]) for key in improved_cond
            if key not in suffix_keys and key in transposition.cond)
    return {
        "kind": "search_memory",
        "version": MEMORY_SNAPSHOT_VERSION,
        "fingerprint": None if fp is None else fingerprint_to_dict(fp),
        "caps": {
            "store": memory.canon_store.cap,
            "transposition": transposition.cap,
            "pool_rotate": memory.pool_rotate_cap,
        },
        "canon_store": [[_b64(payload), _canon_key_enc(value)]
                        for payload, value
                        in memory.canon_store.items_payload()]
        if caches else [],
        "h_store": [[_b64(payload), value]
                    for payload, value in memory.h_store.items_payload()]
        if caches else [],
        "transposition": {
            # per-entry generation stamps ride along (third/fourth
            # position), so relative entry ages survive the disk round
            # trip and age-weighted eviction keeps working after a boot
            "generation": transposition.generation,
            "data": [[_canon_key_enc(key), budget,
                      transposition.data_gen.get(key, 0)]
                     for key, budget in data_items],
            "cond": [[_canon_key_enc(key), budget,
                      [_canon_key_enc(c) for c in required],
                      transposition.cond_gen.get(key, 0)]
                     for key, (budget, required) in cond_items],
        },
        # additive section (still v2): the pattern database's evidence.
        # Signatures are process-independent by construction, so no
        # re-keying is needed; the delta marker mirrors the transposition
        # improvement-log discipline (eviction/overflow -> whole dump).
        "pdb": memory.pdb.to_dict(
            since=None if since is None else since.get("pdb")),
        "lane_stats": lane_stats,
    }


def memory_delta_is_empty(delta: dict[str, Any]) -> bool:
    """True when a ``memory_to_dict(..., since=...)`` delta carries no
    knowledge: no transposition entry, PDB evidence or lane-stat
    increment (the WAL appends no record for it, the pool ships none)."""
    table = delta["transposition"]
    return not (table["data"] or table["cond"] or delta["lane_stats"]
                or delta["pdb"]["entries"])


def memory_snapshot_entries(data: dict[str, Any]) -> int:
    """Entries a ``memory_to_dict`` snapshot holds over every section:
    the canon-key and heuristic stores, transposition entries of both
    kinds, PDB evidence rows and lane stats."""
    table = data["transposition"]
    return (len(data["canon_store"]) + len(data["h_store"])
            + len(table["data"]) + len(table["cond"])
            + len(data["pdb"]["entries"]) + len(data["lane_stats"]))


#: Readable snapshot versions.  v2 (current, written) added transposition
#: generation stamps + lane stats; v1 is a strict subset, so loading it is
#: lossless — entries simply age from epoch 0 and no lane history exists.
#: Hard-rejecting v1 would throw away a deployed service's warm memory on
#: upgrade for no safety gain; genuinely incompatible layouts still get a
#: new number outside this set.
_READABLE_MEMORY_SNAPSHOT_VERSIONS = frozenset(
    {1, MEMORY_SNAPSHOT_VERSION})


def _check_memory_header(data: dict[str, Any]) -> None:
    if not isinstance(data, dict):
        raise MemoryCompatibilityError(
            f"not a serialized SearchMemory: {type(data).__name__}")
    if data.get("kind") != "search_memory":
        raise MemoryCompatibilityError(
            f"not a serialized SearchMemory: kind={data.get('kind')!r}")
    version = data.get("version")
    if version not in _READABLE_MEMORY_SNAPSHOT_VERSIONS:
        raise MemoryCompatibilityError(
            f"snapshot format version {version!r} is not readable by this "
            f"build (supported: "
            f"{sorted(_READABLE_MEMORY_SNAPSHOT_VERSIONS)}); regenerate "
            f"the snapshot with this build")


def _decode_memory(data: dict[str, Any]) -> tuple:
    """Decode every section of a snapshot or delta before any is applied
    (raising :class:`MemoryCompatibilityError` on any malformed entry)."""
    from repro.core.pdb import PatternDatabase
    from repro.utils.fingerprint import fingerprint_from_dict

    try:
        fp = data.get("fingerprint")
        canon = [(_unb64(payload_b64), _canon_key_dec(value_enc))
                 for payload_b64, value_enc in data["canon_store"]]
        heuristic = [(_unb64(payload_b64), float(value))
                     for payload_b64, value in data["h_store"]]
        table = data["transposition"]
        # entries are [key, budget, gen] / [key, budget, required, gen];
        # v1 snapshots carry the shorter stamp-less forms and no table
        # generation — their entries load as epoch 0, which is exactly
        # their age relative to the aging introduced with v2
        entries = [(_canon_key_dec(entry[0]), float(entry[1]), frozenset(),
                    int(entry[2]) if len(entry) > 2 else 0)
                   for entry in table["data"]]
        entries += [(_canon_key_dec(entry[0]), float(entry[1]),
                     frozenset(_canon_key_dec(c) for c in entry[2]),
                     int(entry[3]) if len(entry) > 3 else 0)
                    for entry in table["cond"]]
        # additive: snapshots from before the pattern database simply
        # lack the section (v1, or early v2) and load with an empty PDB
        pdb = data.get("pdb")
        lane_stats = {str(name): {counter: int(value)
                                  for counter, value in row.items()}
                      for name, row in data.get("lane_stats", {}).items()}
        return (None if fp is None else fingerprint_from_dict(fp), canon,
                heuristic, int(table.get("generation", 0)), entries,
                [] if pdb is None else PatternDatabase.decode_dict(pdb),
                lane_stats)
    except (KeyError, ValueError, TypeError, AttributeError,
            IndexError) as exc:
        raise MemoryCompatibilityError(
            f"corrupted SearchMemory snapshot: {exc!r}") from exc


def _fill_memory(memory, decoded: tuple) -> None:
    """Pour decoded entries into ``memory`` (re-keyed for this process)."""
    _fp, canon, heuristic, generation, entries, pdb_rows, lane_stats = \
        decoded
    for payload, key in canon:
        memory.canon_store.put_payload(payload, key)
    for payload, value in heuristic:
        memory.h_store.put_payload(payload, value)
    table = memory.transposition
    table.generation = max(table.generation, generation)
    for key, budget, required, gen in entries:
        table.record(key, budget, required, generation=gen)
    memory.pdb.merge_rows(pdb_rows)
    for name, row in lane_stats.items():
        stats_row = memory.lane_stats.setdefault(
            name, {"runs": 0, "wins": 0, "feasible": 0, "timeouts": 0})
        for counter, value in row.items():
            stats_row[counter] = stats_row.get(counter, 0) + value


def memory_from_dict(data: dict[str, Any]):
    """Rebuild a :class:`~repro.core.memory.SearchMemory` from a snapshot.

    The restored memory is pinned to the snapshot's regime fingerprint up
    front, so attaching a search under any other regime raises
    :class:`MemoryCompatibilityError` exactly as in-process reuse would.
    Corrupted or version-mismatched snapshots raise the same error.
    """
    from repro.core.memory import SearchMemory

    _check_memory_header(data)
    try:
        caps = data["caps"]
        memory = SearchMemory(store_cap=int(caps["store"]),
                              transposition_cap=int(caps["transposition"]),
                              pool_rotate_cap=int(caps["pool_rotate"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise MemoryCompatibilityError(
            f"corrupted SearchMemory snapshot: {exc!r}") from exc
    memory_merge_dict(memory, data)
    return memory


def memory_merge_dict(memory, data: dict[str, Any]) -> None:
    """Merge a snapshot's entries into an existing memory (worker deltas).

    The snapshot's regime must be compatible: its fingerprint is pinned
    onto ``memory`` first (raising on mismatch), then entries are poured
    in — store entries overwrite by payload identity (the values are
    deterministic per regime, so this only deduplicates), and
    transposition entries merge under the table's improve-only rule.
    Every section is decoded before the pin, so a malformed snapshot
    raises :class:`MemoryCompatibilityError` with ``memory`` untouched.
    """
    _check_memory_header(data)
    decoded = _decode_memory(data)
    if decoded[0] is not None:
        memory.pin(decoded[0])
    _fill_memory(memory, decoded)


# ----------------------------------------------------------------------
# Memory-WAL records (service-layer incremental persistence)
# ----------------------------------------------------------------------
#
# The service's write-ahead log is a line file: one header line followed
# by one record per settled request, each line a JSON document followed by
# a tab and the CRC32 of the document's bytes.  The codec lives here next
# to the snapshot codec it wraps; the file handling (append/replay/
# compaction) is :class:`repro.service.persistence.MemoryWAL`.


def wal_line(data: dict[str, Any]) -> str:
    """One WAL line: ``data`` as JSON, a tab, the CRC32 of the JSON bytes
    as eight hex digits, and a newline (all ASCII, so ``len`` counts
    bytes)."""
    body = json.dumps(data)
    return f"{body}\t{zlib.crc32(body.encode()):08x}\n"


def wal_line_body(line: bytes) -> bytes | None:
    """The JSON bytes of a WAL line, or ``None`` when the line's checksum
    does not match them (a flipped bit anywhere in the line)."""
    body, _, crc = line.rstrip(b"\n").rpartition(b"\t")
    return body if crc == b"%08x" % zlib.crc32(body) else None


def wal_header_to_dict(fingerprint) -> dict[str, Any]:
    """Header line of a memory WAL (version + regime fingerprint)."""
    from repro.utils.fingerprint import fingerprint_to_dict

    return {
        "kind": "memory_wal",
        "version": MEMORY_WAL_VERSION,
        "fingerprint": (None if fingerprint is None
                        else fingerprint_to_dict(fingerprint)),
    }


def wal_header_check(data: Any) -> Any:
    """Validate a WAL header line; return its fingerprint (or ``None``).

    Raises :class:`MemoryCompatibilityError` on anything other than a
    well-formed header of the supported version — a WAL from a different
    build must never be replayed into a live memory.
    """
    from repro.utils.fingerprint import fingerprint_from_dict

    if not isinstance(data, dict) or data.get("kind") != "memory_wal":
        raise MemoryCompatibilityError(
            f"not a memory WAL header: "
            f"{data.get('kind') if isinstance(data, dict) else data!r}")
    version = data.get("version")
    if version != MEMORY_WAL_VERSION:
        raise MemoryCompatibilityError(
            f"memory WAL format version {version!r} is not readable by "
            f"this build (expected {MEMORY_WAL_VERSION}); remove or "
            f"compact the log with the build that wrote it")
    fp = data.get("fingerprint")
    if fp is None:
        return None
    try:
        return fingerprint_from_dict(fp)
    except (KeyError, ValueError, TypeError) as exc:
        raise MemoryCompatibilityError(
            f"corrupted WAL header fingerprint: {exc!r}") from exc


def wal_record_to_dict(seq: int, delta: dict[str, Any]) -> dict[str, Any]:
    """One WAL record: a sequence number plus a memory-delta snapshot."""
    return {"kind": "memory_wal_record", "seq": int(seq), "delta": delta}


def wal_record_from_dict(data: Any) -> tuple[int, dict[str, Any]]:
    """Inverse of :func:`wal_record_to_dict` → ``(seq, delta)``."""
    if not isinstance(data, dict) or data.get("kind") != "memory_wal_record":
        raise MemoryCompatibilityError(
            f"not a memory WAL record: "
            f"{data.get('kind') if isinstance(data, dict) else data!r}")
    try:
        seq = int(data["seq"])
        delta = data["delta"]
    except (KeyError, ValueError, TypeError) as exc:
        raise MemoryCompatibilityError(
            f"corrupted WAL record: {exc!r}") from exc
    if not isinstance(delta, dict):
        raise MemoryCompatibilityError(
            f"corrupted WAL record delta: {type(delta).__name__}")
    return seq, delta


def dumps(obj: QState | QCircuit, indent: int | None = None) -> str:
    """Serialize a state or circuit to a JSON string."""
    if isinstance(obj, QState):
        return json.dumps(state_to_dict(obj), indent=indent)
    if isinstance(obj, QCircuit):
        return json.dumps(circuit_to_dict(obj), indent=indent)
    raise ReproError(f"cannot serialize {type(obj).__name__}")


def loads(text: str) -> QState | QCircuit:
    """Deserialize a JSON string produced by :func:`dumps`."""
    data = json.loads(text)
    kind = data.get("kind")
    if kind == "qstate":
        return state_from_dict(data)
    if kind == "qcircuit":
        return circuit_from_dict(data)
    raise ReproError(f"unknown serialized kind {kind!r}")
