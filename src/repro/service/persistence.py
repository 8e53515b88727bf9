"""Disk persistence of :class:`~repro.core.memory.SearchMemory`.

Warm-start files: a family run (``repro-qsp family --snapshot-out``)
serializes its memory once, and every later service boot — or every
pool worker process — loads it and starts with the family's canonical
keys, heuristic values, and IDA* exhaustion proofs already in place.

The service WAL (:class:`MemoryWAL`) persists knowledge, not caches:
its records and its compaction sidecar carry the transposition entries,
pattern-database evidence and lane stats, while the canon-key and
heuristic stores stay process-local and refill from traffic.  Only
explicit snapshots (:func:`save_memory_snapshot` with its default
``caches=True``: ``family --snapshot-out``, ``op: snapshot``,
``distill``) write the stores too.

The format is the versioned JSON codec of
:mod:`repro.utils.serialization` (``memory_to_dict``/``memory_from_dict``),
optionally gzip-compressed when the path ends in ``.gz``.  All failure
modes — unreadable JSON, wrong ``kind``, wrong format version, corrupted
entries, or a regime fingerprint that does not match the search about to
use it — raise :class:`~repro.exceptions.MemoryCompatibilityError`; a
snapshot is never half-loaded.
"""

from __future__ import annotations

import gzip
import json
import os
import pathlib
import zlib

from repro.constants import WAL_COMPACT_INTERVAL
from repro.core.memory import SearchMemory
from repro.exceptions import MemoryCompatibilityError
from repro.utils.serialization import (
    memory_baseline,
    memory_delta_is_empty,
    memory_from_dict,
    memory_merge_dict,
    memory_to_dict,
    wal_header_check,
    wal_header_to_dict,
    wal_line,
    wal_line_body,
    wal_record_from_dict,
    wal_record_to_dict,
)

__all__ = [
    "save_memory_snapshot",
    "load_memory_snapshot",
    "merge_memory_snapshot",
    "merge_wal_delta",
    "save_request_cache",
    "load_request_cache",
    "MemoryWAL",
]


def _opener(path: str | os.PathLike):
    return gzip.open if str(path).endswith(".gz") else open


def _write_json(data: dict, path: pathlib.Path) -> None:
    """Write ``data`` to ``path`` through a temporary sibling + rename.

    ``json.dumps`` runs the C encoder (``json.dump`` to a stream runs
    the pure-Python one) and writes the same bytes.
    """
    tmp = path.with_name(path.name + ".tmp")
    # compression is decided by the *final* name (the tmp suffix would
    # otherwise silently disable it and break the later gzip read)
    with _opener(path)(tmp, "wt", encoding="utf-8") as handle:
        handle.write(json.dumps(data))
    tmp.replace(path)


def save_memory_snapshot(memory: SearchMemory, path: str | os.PathLike,
                         caches: bool = True) -> dict:
    """Write ``memory`` to ``path`` (atomically) and return the snapshot.

    The write goes through a temporary sibling file + rename, so a reader
    never observes a torn snapshot even if the writer dies mid-dump.
    ``caches=False`` leaves the canon-key and heuristic stores out (the
    WAL's compaction sidecar); an explicit snapshot keeps them.

    A full save is the transposition table's *aging epoch boundary*: the
    snapshot captures every entry stamped with its current generation,
    then the live table's generation counter advances, so entries the
    next workload never touches grow stale and drain out first under the
    age-weighted eviction sweeps.
    """
    data = memory_to_dict(memory, caches=caches)
    _write_json(data, pathlib.Path(path))
    memory.transposition.bump_generation()
    return data


def _read_snapshot_dict(path: str | os.PathLike) -> dict:
    try:
        with _opener(path)(path, "rt", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise
    except (OSError, EOFError, ValueError, zlib.error) as exc:
        raise MemoryCompatibilityError(
            f"unreadable SearchMemory snapshot {path}: {exc}") from exc


def load_memory_snapshot(path: str | os.PathLike) -> SearchMemory:
    """Load a snapshot into a fresh :class:`SearchMemory`.

    The restored memory is pinned to the snapshot's regime, so the first
    incompatible search attach fails loudly rather than mixing entries.
    """
    return memory_from_dict(_read_snapshot_dict(path))


def merge_memory_snapshot(memory: SearchMemory,
                          path: str | os.PathLike) -> None:
    """Merge a snapshot file's entries into an existing memory."""
    memory_merge_dict(memory, _read_snapshot_dict(path))


def merge_wal_delta(memory: SearchMemory, record: dict) -> int:
    """Merge one WAL-shaped delta record into a live memory; returns seq.

    ``record`` is the wire shape of :func:`repro.utils.serialization
    .wal_record_to_dict` — the same envelope :class:`MemoryWAL` appends
    to disk, here traveling between processes instead.  The worker-pool
    tier uses this for cross-merge: each worker periodically ships the
    knowledge it learned since its last pull (``memory_to_dict(memory,
    since=...)`` wrapped in a record; no cache entries), and every
    *other* worker folds it in here.
    Merges are improve-only and idempotent (the same guarantees the WAL
    boot replay relies on), so records may be re-shipped, arrive in any
    order, or cross with a worker's own learning without ever regressing
    an entry.  Malformed records raise
    :class:`MemoryCompatibilityError`/:class:`ValueError` before
    anything is merged.
    """
    seq, delta = wal_record_from_dict(record)
    memory_merge_dict(memory, delta)
    return seq


def save_request_cache(cache, path: str | os.PathLike) -> dict:
    """Write a request-cache snapshot next to the memory snapshot.

    Same atomic tmp-file + rename discipline (and ``.gz`` compression
    rule) as :func:`save_memory_snapshot`.
    """
    from repro.service.cache import request_cache_to_dict

    data = request_cache_to_dict(cache)
    _write_json(data, pathlib.Path(path))
    return data


def load_request_cache(path: str | os.PathLike, regime: dict | None = None,
                       cap: int | None = None):
    """Load a request-cache snapshot, gated by version + regime checks.

    ``cap`` overrides the snapshot's recorded cap (the loading service's
    configured bound wins).
    """
    from repro.service.cache import request_cache_from_dict

    return request_cache_from_dict(_read_snapshot_dict(path), regime, cap)


# ----------------------------------------------------------------------
# Incremental snapshot WAL (concurrent service persistence)
# ----------------------------------------------------------------------

class MemoryWAL:
    """Write-ahead log of learned knowledge, with compaction.

    A full snapshot re-serializes the whole memory — too heavy to run
    per request on a serving host.  The WAL instead appends one small
    JSONL record per settled request that learned something (the delta
    since the previous record: new *and improved* transposition entries,
    new or improved PDB evidence, lane-stat increments) to ``<path>``,
    and keeps the last compacted snapshot of that knowledge in the
    sidecar file ``<path>.snapshot``.  Booting replays the records on
    top of the sidecar, which reproduces every knowledge section of the
    live memory exactly — delta merges are improve-only and idempotent,
    and in-place transposition improvements ride along via the table's
    improvement logs (see :func:`repro.utils.serialization
    .memory_to_dict`) — so a crash loses at most the record being
    written when the process died.

    The canon-key and heuristic stores are caches and are not logged:
    their values are recomputable, yet they would be nearly all of every
    record's and sidecar's bytes.  A booted memory starts with them cold
    (or warm from the ``fallback_snapshot`` on the very first boot) and
    refills them from traffic.

    Compaction (every ``compact_interval`` appended records, at
    :meth:`close`, or on demand) writes a fresh sidecar snapshot *first*
    and only then truncates the log back to its header: a crash between
    the two steps leaves old records that replay onto the new snapshot
    as harmless no-ops.  The replay path tolerates a torn final line
    (the mid-append crash signature) by truncating it away; any other
    malformed content, a record failing its checksum included, is
    likewise dropped from the first bad line on.  Version and
    regime-fingerprint gates mirror the snapshot codec's: a log written
    by an incompatible build or for a different device, or a header
    failing its checksum, raises :class:`MemoryCompatibilityError`
    before a single record is replayed.

    Each line is a JSON document, a tab and the CRC32 of the document's
    bytes (:func:`repro.utils.serialization.wal_line`), so a flipped bit
    is caught instead of booting as other knowledge.  The log is never
    ``.gz`` (compression would break appending); the sidecar snapshot
    follows the normal snapshot rules.
    """

    def __init__(self, path: str | os.PathLike, memory: SearchMemory,
                 compact_interval: int = WAL_COMPACT_INTERVAL,
                 obs=None) -> None:
        if str(path).endswith(".gz"):
            raise ValueError(
                "the memory WAL is append-only JSONL and cannot be "
                "gzip-compressed; drop the .gz suffix (the sidecar "
                "snapshot may still be compressed separately)")
        self._path = pathlib.Path(path)
        self.snapshot_path = self._path.with_name(
            self._path.name + ".snapshot")
        self.memory = memory
        self.compact_interval = max(0, int(compact_interval))
        #: :class:`repro.obs.ServiceObs` or ``None`` — boot replays and
        #: torn-tail truncations become structured warning events, and
        #: appends/compactions feed the metrics registry
        self.obs = obs
        self.seq = 0
        #: records in the live log (replayed + appended since compaction)
        self.records = 0
        self.compactions = 0
        #: boot-time crash-recovery visibility (also surfaced via obs):
        #: records replayed on top of the sidecar, and torn/corrupt tail
        #: truncations by reason
        self.replayed = 0
        self.truncations: dict = {}
        self.bytes_appended = 0
        self._handle = None
        self._header_written = False
        self._baseline = memory_baseline(memory)

    @classmethod
    def boot(cls, path: str | os.PathLike,
             fallback_snapshot: str | os.PathLike | None = None,
             compact_interval: int = WAL_COMPACT_INTERVAL,
             obs=None) -> tuple[SearchMemory, "MemoryWAL"]:
        """Boot a memory from the WAL: sidecar snapshot + replayed records.

        The compacted sidecar wins when it exists; otherwise
        ``fallback_snapshot`` (the service's ``--snapshot``, seeding the
        very first boot) is loaded; otherwise the memory starts empty.
        Records in the log are then replayed on top, and the log is
        opened for appending.  Returns ``(memory, wal)``.
        """
        wal_path = pathlib.Path(path)
        sidecar = wal_path.with_name(wal_path.name + ".snapshot")
        if sidecar.exists():
            memory = load_memory_snapshot(sidecar)
        elif fallback_snapshot is not None:
            memory = load_memory_snapshot(fallback_snapshot)
        else:
            memory = SearchMemory()
        wal = cls(path, memory, compact_interval=compact_interval, obs=obs)
        wal._replay_and_open()
        if obs is not None:
            obs.wal_boot(wal.replayed, path)
        return memory, wal

    # -- boot path -------------------------------------------------------

    def _replay_and_open(self) -> None:
        if self._path.parent and not self._path.parent.exists():
            self._path.parent.mkdir(parents=True, exist_ok=True)
        if self._path.exists() and self._path.stat().st_size > 0:
            # bytes, so a line that is not UTF-8 fails in json.loads
            # (a ValueError) like any other corrupt line, not in readline
            with open(self._path, "r+b") as handle:
                self._replay(handle)
        self._handle = open(self._path, "a", encoding="utf-8")

    def _truncated(self, reason: str, dropped_bytes: int) -> None:
        """Record one boot-time tail truncation (crash signature)."""
        self.truncations[reason] = self.truncations.get(reason, 0) + 1
        if self.obs is not None:
            self.obs.wal_truncated(reason, dropped_bytes, self._path)

    def _replay(self, handle) -> None:
        header_line = handle.readline()
        if not header_line.endswith(b"\n"):
            # the log died inside its very first line: nothing replayable
            handle.seek(0)
            handle.truncate(0)
            if header_line:
                self._truncated("torn_header", len(header_line))
            return
        body = wal_line_body(header_line)
        try:
            # a line failing its checksum is decoded whole, so the log of
            # an older format meets the version gate below
            header = json.loads(header_line if body is None else body)
        except ValueError as exc:
            raise MemoryCompatibilityError(
                f"unreadable memory WAL header in {self._path}: "
                f"{exc}") from exc
        fp = wal_header_check(header)
        if body is None:
            raise MemoryCompatibilityError(
                f"memory WAL header in {self._path} fails its checksum")
        if fp is not None:
            # raises on mismatch with the sidecar/fallback fingerprint
            self.memory.pin(fp)
        self._header_written = True
        good = handle.tell()
        reason = None
        while True:
            line = handle.readline()
            if not line:
                break  # clean EOF
            if not line.endswith(b"\n"):
                reason = "torn_final_line"  # mid-append crash signature
                break
            body = wal_line_body(line)
            try:
                if body is None:
                    raise ValueError("record fails its checksum")
                seq, delta = wal_record_from_dict(json.loads(body))
                memory_merge_dict(self.memory, delta)
            except (ValueError, MemoryCompatibilityError):
                reason = "corrupt_tail"  # drop it and everything after
                break
            self.seq = max(self.seq, seq)
            self.records += 1
            good = handle.tell()
        end = handle.seek(0, os.SEEK_END)
        if end > good:
            handle.truncate(good)
            self._truncated(reason or "corrupt_tail", end - good)
        self.replayed = self.records
        self._baseline = memory_baseline(self.memory)

    # -- append path -----------------------------------------------------

    def _ensure_header(self) -> None:
        if not self._header_written:
            self._handle.write(wal_line(
                wal_header_to_dict(self.memory.fingerprint)))
            self._header_written = True

    def append(self, delta: dict) -> int:
        """Append one delta record (and maybe auto-compact); returns seq."""
        self.seq += 1
        self._ensure_header()
        payload = wal_line(wal_record_to_dict(self.seq, delta))
        self._handle.write(payload)
        self._handle.flush()
        self.records += 1
        self.bytes_appended += len(payload)
        if self.obs is not None:
            self.obs.wal_append(len(payload))
        if self.compact_interval and self.records >= self.compact_interval:
            self.compact()
        return self.seq

    def record_learned(self) -> int | None:
        """Append what the memory learned since the last record.

        The delta is computed against the WAL's own rolling baseline;
        when nothing was learned (cache hits, failed parses) no record
        is written and ``None`` is returned.  A closed WAL (post
        shutdown-compaction) is a no-op, not an error.
        """
        if self._handle is None:
            return None
        delta = memory_to_dict(self.memory, since=self._baseline)
        if memory_delta_is_empty(delta):
            return None
        seq = self.append(delta)
        self._baseline = memory_baseline(self.memory)
        return seq

    def compact(self) -> str:
        """Fold the log into a fresh sidecar snapshot (knowledge only);
        truncate to header."""
        if self.obs is not None:
            self.obs.wal_compacted(self.records)
        save_memory_snapshot(self.memory, self.snapshot_path, caches=False)
        # snapshot lands first (atomically): a crash before the truncate
        # below leaves old records that replay as idempotent no-ops
        self._handle.close()
        tmp = self._path.with_name(self._path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(wal_line(
                wal_header_to_dict(self.memory.fingerprint)))
        tmp.replace(self._path)
        self._handle = open(self._path, "a", encoding="utf-8")
        self._header_written = True
        self.records = 0
        self.compactions += 1
        self._baseline = memory_baseline(self.memory)
        return str(self.snapshot_path)

    def close(self, compact: bool = True) -> None:
        """Flush and close (idempotent); compacts by default."""
        if self._handle is None:
            return
        if compact:
            self.compact()
        self._handle.close()
        self._handle = None

    def snapshot(self) -> dict:
        """WAL counters for the ``stats`` op."""
        return {"path": str(self._path), "seq": self.seq,
                "records": self.records, "compactions": self.compactions,
                "compact_interval": self.compact_interval,
                "replayed": self.replayed,
                "bytes_appended": self.bytes_appended,
                "truncations": dict(self.truncations)}
