"""Seeded request generators for the three workloads.

Every generator takes the run's seed and returns a list of
:class:`Item` s: the JSON request the service sees, plus the target
amplitudes the benchmark keeps for its own check (the program never
sees them).  The same seed gives the same items.

Suites follow the paper's benchmark states:

* dense: uniform amplitudes over ``m = 2**(n-1)`` random basis states;
* sparse: Gaussian real amplitudes over ``m`` random basis states, with
  ``m`` in ``(n, 2n, 4n)`` and only rows where ``n * m < 2**n``.

Each workload draws its states once from a fixed stream (its *suite*);
the seed sets the order (and, in the mix, the popularity) and relabels
the light states by a random qubit permutation and X flips.  A
relabelled state has the same optimal cost and the same class under the
search's canonicalization, so every seed sends different requests of
the same difficulty.  Freshly drawn suites do not give that: a 4-qubit
dense state falls in one of few classes whose costs differ tenfold, and
a fresh draw moved the median latency by 20% from seed to seed.  States
whose reduction is not invariant under relabelling (the n=5 dense row,
the sparse suite) keep their labels: relabelled copies reduced to exact
cores of other sizes and moved the peak memory by up to 35%.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

# stream ids keep the suites and the seeds' draws apart
_DENSE, _SPARSE, _MIX, _WARMUP, _FIXTURE = 11, 12, 13, 14, 15


@dataclass
class Item:
    """One request with the target the benchmark checks its answer on."""

    request: dict
    num_qubits: int
    target: dict[int, float] = field(repr=False)

    @property
    def kind(self) -> str:
        return self.request["op"]


def _terms(n: int, amps: dict[int, float]) -> dict[str, float]:
    return {format(i, f"0{n}b"): a for i, a in sorted(amps.items())}


def _random_item(rng, op: str, n: int, m: int, uniform: bool) -> Item:
    indices = sorted(int(i) for i in rng.choice(1 << n, m, replace=False))
    if uniform:
        values = [1.0] * m
    else:
        values = [float(v) for v in rng.standard_normal(m)]
        # a vanishing amplitude would change m; redraw those
        while any(abs(v) < 1e-3 for v in values):
            values = [float(v) for v in rng.standard_normal(m)]
    amps = dict(zip(indices, values))
    request = {"op": op, "terms": _terms(n, amps), "return_circuit": True}
    return Item(request, n, amps)


def _family_item(op: str, name: str, n: int, k: int = 0) -> Item:
    if name == "ghz":
        amps = {0: 1.0, (1 << n) - 1: 1.0}
        request = {"op": op, "ghz": n}
    else:
        weight = 1 if name == "w" else k
        amps = {sum(1 << (n - 1 - q) for q in qs): 1.0
                for qs in combinations(range(n), weight)}
        request = {"op": op, "w": n} if name == "w" \
            else {"op": op, "dicke": [n, k]}
    request["return_circuit"] = True
    return Item(request, n, amps)


def relabel(rng, item: Item) -> Item:
    """``item``'s state under a random qubit permutation and X flips."""
    n = item.num_qubits
    perm = [int(q) for q in rng.permutation(n)]
    flips = int(rng.integers(0, 1 << n))

    def move(index: int) -> int:
        out = 0
        for q in range(n):
            if (index >> (n - 1 - q)) & 1:
                out |= 1 << (n - 1 - perm[q])
        return out ^ flips

    amps = {move(i): a for i, a in item.target.items()}
    return Item({**item.request, "terms": _terms(n, amps)}, n, amps)


def _shuffled(rng, items: list) -> list:
    return [items[i] for i in rng.permutation(len(items))]


def _number(items: list[Item], prefix: str) -> list[Item]:
    for i, item in enumerate(items):
        item.request["id"] = f"{prefix}{i}"
    return items


def dense_items(seed: int, n4: int, n5: int) -> list[Item]:
    """``n4`` dense 4-qubit rows (relabelled) and ``n5`` dense 5-qubit
    rows, in an order set by the seed."""
    suite = np.random.default_rng([0, _DENSE])
    base = [_random_item(suite, "prepare", 4, 8, True) for _ in range(n4)]
    rng = np.random.default_rng([seed, _DENSE])
    items = [relabel(rng, item) for item in base] + \
        [_random_item(suite, "prepare", 5, 16, True) for _ in range(n5)]
    return _number(_shuffled(rng, items), "d")


#: (n, m) rows of the paper's sparse suite: n = 8..20, m in (n, 2n, 4n),
#: only rows with n * m < 2**n
SPARSE_ROWS = tuple((n, m) for n in range(8, 21) for m in (n, 2 * n, 4 * n)
                    if n * m < (1 << n))


def sparse_items(seed: int, per_row: int) -> list[Item]:
    """``per_row`` states of every sparse-suite row, in an order set by
    the seed."""
    suite = np.random.default_rng([0, _SPARSE])
    base = [_random_item(suite, "prepare", n, m, False)
            for n, m in SPARSE_ROWS for _ in range(per_row)]
    return _number(_shuffled(np.random.default_rng([seed, _SPARSE]), base),
                   "s")


def warmup_items(kind: str, count: int) -> list[Item]:
    """Set-up requests: the same for every run, so every run's set-up
    does the same work."""
    rng = np.random.default_rng([0, _WARMUP])
    n, m, uniform = (4, 8, True) if kind == "dense" else (10, 40, False)
    return _number([_random_item(rng, "prepare", n, m, uniform)
                    for _ in range(count)], "w")


# -- serve_mix --------------------------------------------------------------

#: the light family requests of the mix (fixed states, so popular ones
#: are already in a warm service's request cache)
_FAMILIES = (("ghz", 3), ("ghz", 4), ("ghz", 5), ("ghz", 6),
             ("w", 3), ("w", 4), ("w", 5), ("dicke", 4, 2))

#: (n, m) classes of the random light ``exact`` targets
_LIGHT = tuple((n, m) for n in (3, 4, 5) for m in (2, 3, 4))


def zipf_stream(rng, catalog: list[Item], count: int,
                exponent: float = 1.0) -> list[Item]:
    """Every target of ``catalog`` once, then ``count - len(catalog)``
    repeats drawn with Zipf popularity over a seeded random ranking (a
    repeat is a cache hit), in random order."""
    ranks = rng.permutation(len(catalog)) + 1
    weights = 1.0 / ranks.astype(float) ** exponent
    picks = list(range(len(catalog))) + [int(i) for i in rng.choice(
        len(catalog), size=max(0, count - len(catalog)),
        p=weights / weights.sum())]
    return [Item(dict(catalog[i].request), catalog[i].num_qubits,
                 catalog[i].target) for i in _shuffled(rng, picks)]


def _mix(rng, suite, count: int, dense: int) -> list[Item]:
    """``count`` requests in random order, plus ``dense`` dense 4-qubit
    prepares spread evenly.  70% are light ``exact`` traffic over the
    families and ``count // 5`` random targets (n = 3..5, m = 2..4 in
    equal shares), each sent once and the rest Zipf-popular repeats; 30%
    are distinct sparse prepares (n = 8..12 in equal shares, m = n).
    ``suite`` draws the states, ``rng`` relabels and orders them."""
    exact = round(count * 0.7)
    light = [_random_item(suite, "exact", *_LIGHT[i % len(_LIGHT)], False)
             for i in range(count // 5)]
    sparse = [_random_item(suite, "prepare", 8 + i % 5, 8 + i % 5, False)
              for i in range(count - exact)]
    heavy = [_random_item(suite, "prepare", 4, 8, True)
             for _ in range(dense)]
    catalog = [_family_item("exact", *spec) for spec in _FAMILIES] + \
        [relabel(rng, i) for i in light]
    items = zipf_stream(rng, catalog, exact)
    items = _shuffled(rng, items + [relabel(rng, i) for i in sparse])
    step = max(1, len(items) // (dense + 1))
    for j, item in enumerate(heavy):
        items.insert((j + 1) * step + j, relabel(rng, item))
    return items


def mix_items(seed: int, count: int, dense: int) -> list[Item]:
    """The timed ``serve_mix`` stream (see :func:`_mix`)."""
    return _number(_mix(np.random.default_rng([seed, _MIX]),
                        np.random.default_rng([0, _MIX]), count, dense),
                   "x")


def fixture_items(count: int) -> tuple[list[Item], list[Item]]:
    """The warm-restart fixture traffic: a ``count``-request mix and a
    supply of fresh light targets, all from a fixed stream of their own
    (disjoint from the timed suite)."""
    rng = np.random.default_rng([0, _FIXTURE])
    items = _mix(rng, rng, count, max(1, count // 100))
    fresh = [_random_item(rng, "exact", 4, 3, False) for _ in range(count)]
    return _number(items, "f"), _number(fresh, "g")
