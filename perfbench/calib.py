"""Host-speed calibration: a fixed kernel timed between requests.

The benchmark's host shares its CPUs and memory with other machines,
and identical work drifts by 10-30% between runs.  A fixed kernel of
the same kinds of work as the program is timed every ``interval_s``
(between requests, and between engine steps inside a long request);
every reported time is then scaled by ``REFERENCE_TICK_S / mean tick``
so a run on a momentarily slow host reports what the reference host
would have measured.  The kernel mixes a small Python dict loop and
small NumPy operations (the search's own shape) with random probes into
a large dict and a large array, because a neighbour that thrashes the
shared caches slows the program's hash stores more than a cache-resident
loop.

The kernel imports nothing from the program, and the garbage collector
is paused while it runs: a tick that landed on a full collection of the
program's heap would time the program, not the host.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: mean tick of this kernel on the reference host (2-CPU x86-64 VM,
#: Python 3.11, NumPy 2.4); normalized seconds are seconds on that host
REFERENCE_TICK_S = 0.0065

_DICT_ROUNDS = 4000
_ARRAY_ROUNDS = 80
_PROBES = 5000
_GATHER = 16384


class _Kernel:
    """The tick's fixed work and the large tables it probes."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20240611)
        keys = rng.integers(0, 1 << 40, 1 << 18)
        self.table = {int(k): int(k) & 0xFF for k in keys}
        self.probes = [int(keys[i]) for i in
                       rng.integers(0, len(keys), _PROBES)]
        self.array = rng.standard_normal(1 << 21)
        self.gather = rng.integers(0, len(self.array), _GATHER)

    def __call__(self) -> float:
        local: dict[int, int] = {}
        for i in range(_DICT_ROUNDS):
            key = (i * 2654435761) & 0xFFFF
            local[key] = local.get(i & 0x3FF, 0) + i
        a = np.arange(48, dtype=np.float64)
        total = 0.0
        for _ in range(_ARRAY_ROUNDS):
            b = np.round(a * 0.7071067811865476 + 0.5, 10)
            c = np.concatenate((b, a))
            c.sort()
            total += float(c[-1])
        table = self.table
        for key in self.probes:
            total += table[key]
        total += float(self.array[self.gather].sum())
        return total + len(local)


class Calibrator:
    """Runs ticks on demand and keeps the totals a run needs.

    ``spent_s`` is the wall time the ticks themselves took, which the
    workloads subtract from any interval a tick fell inside.
    """

    def __init__(self, interval_s: float = 0.25) -> None:
        self.interval_s = interval_s
        self._kernel = _Kernel()
        self.ticks: list[float] = []
        self.spent_s = 0.0
        self._last = time.perf_counter()

    def tick(self) -> float:
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._kernel()
            elapsed = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.ticks.append(elapsed)
        end = time.perf_counter()
        self.spent_s += end - start
        self._last = end
        return elapsed

    def maybe_tick(self) -> None:
        """Tick when ``interval_s`` of work has passed since the last one."""
        if time.perf_counter() - self._last >= self.interval_s:
            self.tick()

    @property
    def mean_tick(self) -> float:
        if not self.ticks:
            raise RuntimeError("no calibration tick was taken")
        return sum(self.ticks) / len(self.ticks)

    @property
    def factor(self) -> float:
        """Multiply raw seconds by this to get normalized seconds."""
        return normalization_factor(self.ticks)


def normalization_factor(ticks: list[float],
                         reference: float = REFERENCE_TICK_S) -> float:
    """``reference / mean(ticks)``: above 1 on a host faster than the
    reference, below 1 on a slower one."""
    if not ticks:
        raise ValueError("no calibration ticks")
    return reference / (sum(ticks) / len(ticks))
