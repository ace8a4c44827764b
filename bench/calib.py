"""Calibration of a shared host's speed, so timings can be compared across runs.

On a shared virtual machine the same call can take 1.7 times longer during
a spell in which other tenants load the host, and such spells last tens of
seconds, longer than one benchmark run. The benchmark therefore times two
fixed kernels that never touch the package, between its calls and at most
``TICK_EVERY_S`` apart:

- ``interp``: interpreter work over a working set of a few megabytes
  (a strided walk of a list of floats, dict and tuple churn);
- ``bulk``: one numpy pass over an 8 MB array.

Interpreter-bound code (the optimizers, the small oracles, imports) slows
like ``interp``; numpy-bound code (the pmf convolutions, the Monte Carlo
sampler) slows like ``bulk`` but less. A call's time is divided by the
slowdown of the host around it, ``(interp / INTERP_REF_S) ** a * (bulk /
BULK_REF_S) ** b``, from the two ticks bracketing the call, with the
exponents fixed per metric in run.py. The result is the call's time at the
reference speed of the kernels, the speed this host shows when it is quiet.
"""

from __future__ import annotations

import bisect
import math
import time

import numpy as np

TICK_EVERY_S = 0.3
TICK_REPEATS = 3
# The kernels' times on a quiet 2-vCPU Xeon VM (Python 3.11, numpy 2.4), so
# that calibrated times read as milliseconds there.
INTERP_REF_S = 2.1e-3
BULK_REF_S = 2.4e-3

_FLOATS = [float(i) + 1.0 for i in range(200_000)]
_ARRAY = np.linspace(1.0, 2.0, 1_000_000)


def _interp() -> float:
    s = 0.0
    for i in range(0, len(_FLOATS), 16):
        s += math.log(_FLOATS[i])
    table: dict[int, tuple] = {}
    for i in range(1500):
        table[i % 97] = (i, str(i % 13))
        s += len(table[i % 97][1])
    return s


def _bulk() -> float:
    return float(np.log(_ARRAY).sum())


def _fastest(kernel) -> float:
    best = math.inf
    for _ in range(TICK_REPEATS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Ticks of the two kernels, and the host's slowdown over any interval."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.interp: list[float] = []
        self.bulk: list[float] = []
        self.tick()

    def tick(self) -> None:
        self.interp.append(_fastest(_interp))
        self.bulk.append(_fastest(_bulk))
        self.times.append(time.perf_counter())

    def maybe_tick(self) -> None:
        if time.perf_counter() - self.times[-1] >= TICK_EVERY_S:
            self.tick()

    def slowdown(self, start: float, end: float, a: float, b: float) -> float:
        """The host's slowdown over [start, end], from the last tick before
        start and the first tick after end (a tick must follow end)."""
        i = max(bisect.bisect_right(self.times, start) - 1, 0)
        j = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        interp = math.sqrt(self.interp[i] * self.interp[j]) / INTERP_REF_S
        bulk = math.sqrt(self.bulk[i] * self.bulk[j]) / BULK_REF_S
        return interp**a * bulk**b

    def summary(self) -> dict:
        """Median slowdown of each kernel over the run, for the provenance."""
        mid = len(self.times) // 2
        return {
            "ticks": len(self.times),
            "interp_slowdown_p50": sorted(self.interp)[mid] / INTERP_REF_S,
            "bulk_slowdown_p50": sorted(self.bulk)[mid] / BULK_REF_S,
        }
