"""Request cache: canonical target fingerprint → finished ``QSPResult``.

Repeated traffic is the service's whole reason to exist: the same GHZ/W/
Dicke targets arrive over and over, and after the first synthesis the
correct response is a lookup, not a search.  The cache keys requests by
the target state's *structural identity* — the quantized packed payload,
looked up through the 64-bit structural hash with payload verification
(the same exact-hit discipline as the persistent
:class:`~repro.core.memory.HashStore`, and in fact implemented on it), so
two textually different requests for the same state hit the same entry
while a genuine 64-bit hash collision can never serve the wrong circuit.

Entries additionally depend on how the service synthesizes — the search
regime and the request mode (full workflow vs exact-core portfolio) — so
the cache is *pinned* to one portable regime fingerprint at construction
(:func:`repro.utils.fingerprint.search_regime_dict` form) and keeps one
store per mode.  Mixing regimes raises
:class:`~repro.exceptions.MemoryCompatibilityError`, mirroring
``SearchMemory.attach``.  The regime dict includes the device topology,
so a cache filled on one coupling map can never answer requests for
another.

The cache persists to disk (``serve --cache-snapshot``) through
:func:`request_cache_to_dict` / :func:`request_cache_from_dict` — same
discipline as the memory snapshot: payload-keyed entries re-keyed by the
loading process, format version + regime fingerprint checked up front,
any mismatch or corruption raising
:class:`~repro.exceptions.MemoryCompatibilityError` before a single
entry is served.
"""

from __future__ import annotations

from repro.constants import (
    REQUEST_CACHE_SNAPSHOT_VERSION,
    SERVICE_REQUEST_CACHE_CAP,
    SIGNATURE_INDEX_CAP,
)
from repro.core.kernel import PACKED_MAX_QUBITS, qstate_payload
from repro.core.memory import HashStore
from repro.core.pdb import (
    coarse_signature,
    signature_from_list,
    signature_to_list,
)
from repro.exceptions import MemoryCompatibilityError
from repro.states.qstate import QState

__all__ = ["RequestCache", "request_cache_to_dict",
           "request_cache_from_dict"]


class RequestCache:
    """Exact-hit result cache over target states, pinned to one regime.

    On top of the exact tier, a *signature index* groups cached entries
    by their entanglement signature (:mod:`repro.core.pdb`) so the
    server's near-hit path can nominate donor circuits for targets that
    miss exactly but share structure with something already solved.  The
    index only ever *nominates*: an adapted circuit is simulator-verified
    before serving, so a wrong neighbor costs time, never correctness.
    Donor move lists live in-process only (results loaded from a snapshot
    travel without moves and count toward occupancy, not adaptation).
    """

    __slots__ = ("cap", "regime", "_stores",
                 "_sig_index", "_coarse_index", "_donors", "sig_entries")

    def __init__(self, regime: dict | None = None,
                 cap: int = SERVICE_REQUEST_CACHE_CAP):
        self.cap = max(1, int(cap))
        self.regime = regime
        self._stores: dict[str, HashStore] = {}
        #: mode -> full signature -> payloads of cached member states
        self._sig_index: dict[str, dict[tuple, list[bytes]]] = {}
        #: mode -> coarse key (signature minus rank profile) -> payloads
        self._coarse_index: dict[str, dict[tuple, list[bytes]]] = {}
        #: (mode, payload) -> in-process result still carrying its move
        #: list — the only entries the near-hit path can actually adapt
        self._donors: dict[tuple[str, bytes], object] = {}
        self.sig_entries = 0

    def pin(self, regime: dict) -> None:
        """Pin (or re-check) the regime the cached results were made under."""
        if self.regime is None:
            self.regime = regime
        elif regime != self.regime:
            raise MemoryCompatibilityError(
                f"RequestCache holds results for regime {self.regime!r} "
                f"and cannot serve regime {regime!r}")

    def _key(self, state: QState) -> bytes | None:
        """The quantized payload of ``state``, or ``None`` past the packed
        kernel's index width (such registers are served uncached)."""
        if state.num_qubits > PACKED_MAX_QUBITS:
            return None
        return qstate_payload(state)

    def _store(self, mode: str) -> HashStore:
        store = self._stores.get(mode)
        if store is None:
            store = self._stores[mode] = HashStore(self.cap)
        return store

    def get(self, mode: str, state: QState):
        """Cached result for ``state`` under ``mode``, or ``None``."""
        key = self._key(state)
        return None if key is None else self._store(mode).get_payload(key)

    def put(self, mode: str, state: QState, result,
            signature: tuple | None = None) -> None:
        key = self._key(state)
        if key is None:
            return
        self._store(mode).put_payload(key, result)
        if signature is not None:
            self._register(mode, key, signature, result)

    def _register(self, mode: str, payload: bytes, signature: tuple,
                  result=None) -> None:
        """Index one cached payload under its entanglement signature."""
        if self.sig_entries >= SIGNATURE_INDEX_CAP:
            return
        rows = self._sig_index.setdefault(mode, {}) \
            .setdefault(signature, [])
        if payload in rows:
            return
        rows.append(payload)
        self._coarse_index.setdefault(mode, {}) \
            .setdefault(coarse_signature(signature), []).append(payload)
        self.sig_entries += 1
        if result is not None and getattr(result, "moves", None):
            self._donors[(mode, payload)] = result

    def near(self, mode: str, signature: tuple) -> list[tuple[bytes, object]]:
        """Adaptable donors near ``signature``: ``(payload, result)`` rows.

        Exact-signature members first, then coarse-key neighbors (same
        register size, entangled support, and MI-cluster shape — the rank
        profile is the one component that shifts under small amplitude
        perturbations, so it is dropped for the fallback).  Only donors
        whose in-process results still carry move lists are returned;
        callers must adapt *and verify* before serving.
        """
        rows: list[tuple[bytes, object]] = []
        seen: set[bytes] = set()
        exact = self._sig_index.get(mode, {}).get(signature, ())
        coarse = self._coarse_index.get(mode, {}).get(
            coarse_signature(signature), ())
        for payload in (*exact, *coarse):
            if payload in seen:
                continue
            seen.add(payload)
            donor = self._donors.get((mode, payload))
            if donor is not None:
                rows.append((payload, donor))
        return rows

    def signature_occupancy(self) -> dict:
        """Signature-index counters for ``op: stats`` (flywheel fill)."""
        return {
            "entries": self.sig_entries,
            "signatures": sum(len(index)
                              for index in self._sig_index.values()),
            "coarse_keys": sum(len(index)
                               for index in self._coarse_index.values()),
            "donors": len(self._donors),
            "cap": SIGNATURE_INDEX_CAP,
        }

    def items(self):
        """Iterate ``(mode, payload, result)`` over every cached entry.

        The offline distiller (``repro-qsp distill``) walks this to turn
        solved results into pattern-database evidence without reaching
        into per-mode stores.
        """
        for mode, store in sorted(self._stores.items()):
            for payload, result in store.items_payload():
                yield mode, bytes(payload), result

    def __len__(self) -> int:
        return sum(len(store) for store in self._stores.values())

    def snapshot(self) -> dict:
        """JSON-safe counters per mode (for stats responses and benches)."""
        return {mode: store.snapshot()
                for mode, store in sorted(self._stores.items())}

    def totals(self) -> dict:
        """Hit/miss/eviction/occupancy totals across all modes.

        The observability layer lifts these into gauges at snapshot time
        (pull-based) instead of double-counting in the lookup path — the
        per-mode :class:`HashStore` s already count every get/put.
        """
        totals = {"entries": 0, "hits": 0, "misses": 0, "evictions": 0}
        for store in self._stores.values():
            row = store.snapshot()
            for key in totals:
                totals[key] += row.get(key, 0)
        return totals


# ----------------------------------------------------------------------
# Disk persistence (serve --cache-snapshot)
# ----------------------------------------------------------------------

def _result_enc(result) -> dict:
    from repro.qsp.workflow import QSPResult
    from repro.utils.serialization import (
        qsp_result_to_dict,
        search_result_to_dict,
    )

    if isinstance(result, QSPResult):
        return qsp_result_to_dict(result)
    return search_result_to_dict(result)


def _result_dec(data: dict):
    from repro.utils.serialization import (
        qsp_result_from_dict,
        search_result_from_dict,
    )

    kind = data.get("kind") if isinstance(data, dict) else None
    if kind == "qsp_result":
        return qsp_result_from_dict(data)
    if kind == "search_result":
        return search_result_from_dict(data)
    raise MemoryCompatibilityError(
        f"unknown cached-result kind {kind!r} in request-cache snapshot")


def request_cache_to_dict(cache: RequestCache) -> dict:
    """Portable snapshot of a request cache (entries by payload)."""
    import base64

    entries: dict[str, list] = {}
    for mode, store in sorted(cache._stores.items()):
        entries[mode] = [
            [base64.b64encode(payload).decode("ascii"), _result_enc(value)]
            for payload, value in store.items_payload()]
    signatures: dict[str, list] = {}
    for mode, index in sorted(cache._sig_index.items()):
        signatures[mode] = [
            [signature_to_list(signature),
             [base64.b64encode(payload).decode("ascii")
              for payload in payloads]]
            for signature, payloads in index.items()]
    return {
        "kind": "request_cache",
        "version": REQUEST_CACHE_SNAPSHOT_VERSION,
        "regime": cache.regime,
        "cap": cache.cap,
        "entries": entries,
        # additive section: the signature index (near-hit nomination).
        # Loaded entries come back without move lists, so they count
        # toward occupancy but cannot be adapted until re-solved.
        "signatures": signatures,
    }


def request_cache_from_dict(data: dict,
                            regime: dict | None = None,
                            cap: int | None = None) -> RequestCache:
    """Rebuild a request cache from a snapshot, re-keyed for this process.

    ``regime`` (the loading service's portable regime dict) is checked
    against the snapshot's before any entry is poured in — a cache filled
    under another regime (different budgets' results would differ, a
    different *topology* would serve circuits that do not even fit the
    device) raises :class:`MemoryCompatibilityError` at boot.  ``cap``
    (the loading service's configured cache cap) takes precedence over
    the snapshot's recorded cap, so a warm boot never exceeds the
    operator's memory bound.
    """
    from repro.utils.serialization import _unb64

    if not isinstance(data, dict) or data.get("kind") != "request_cache":
        raise MemoryCompatibilityError(
            f"not a serialized request cache: "
            f"{data.get('kind') if isinstance(data, dict) else type(data)!r}")
    version = data.get("version")
    if version != REQUEST_CACHE_SNAPSHOT_VERSION:
        raise MemoryCompatibilityError(
            f"request-cache snapshot version {version!r} is not the "
            f"supported version {REQUEST_CACHE_SNAPSHOT_VERSION}; "
            f"regenerate the snapshot with this build")
    if cap is None:
        cap = data.get("cap", SERVICE_REQUEST_CACHE_CAP)
    snap_regime = data.get("regime")
    if not isinstance(snap_regime, dict):
        # a regime-less snapshot would silently adopt whatever regime the
        # loading service pins, defeating the cross-device/-budget gate
        raise MemoryCompatibilityError(
            "request-cache snapshot carries no regime fingerprint; "
            "refusing to serve unattributed cached results")
    try:
        cache = RequestCache(snap_regime, cap)
        if regime is not None:
            cache.pin(regime)  # raises on mismatch before any entry lands
        for mode, rows in data["entries"].items():
            store = cache._store(str(mode))
            for payload_b64, result_enc in rows:
                store.put_payload(_unb64(payload_b64),
                                  _result_dec(result_enc))
        # additive: snapshots from before the signature index simply
        # lack the section and load with an empty index
        for mode, rows in (data.get("signatures") or {}).items():
            for sig_enc, payloads_b64 in rows:
                signature = signature_from_list(sig_enc)
                for payload_b64 in payloads_b64:
                    cache._register(str(mode), _unb64(payload_b64),
                                    signature)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise MemoryCompatibilityError(
            f"corrupted request-cache snapshot: {exc!r}") from exc
    return cache
