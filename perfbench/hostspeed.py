"""A fixed reference computation that gauges how fast the host runs right now.

On a shared machine the same code and inputs can take half again as long a
few minutes later, and the host's speed changes within a second, because
other tenants compete for the cores.  Each repetition times this probe just
before and just after the measured CLI call, and between its ``run`` calls
about once a second.  Each stretch of host time between two probes is scaled
by ``REFERENCE_S`` over the mean of the two probe times, so the benchmark's
times read as if the host always ran the probe in ``REFERENCE_S``.

The probe mixes what the simulator spends its time on: Python objects in a
heap and a dict, and distance computations over small numpy arrays.  It
uses nothing from ``reusesim``, so no change to the program moves it.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

REFERENCE_S = 0.1
PROBE_EVERY_S = 1.0


@dataclass(frozen=True)
class _Item:
    key: int
    value: float


def _work() -> float:
    heap: list = []
    table: dict[int, _Item] = {}
    for i in range(40000):
        heapq.heappush(heap, ((i * 7919) % 1000, i, _Item(i, i * 0.5)))
        if len(heap) > 50:
            item = heapq.heappop(heap)[2]
            table[item.key % 500] = item
    rows = np.random.default_rng(0).standard_normal((100, 32))
    total = 0.0
    for i in range(2000):
        total += float(np.sqrt(((rows - rows[i % 100]) ** 2).sum(axis=1)).min())
    return total + len(table)


def probe_s() -> float:
    """Host seconds the reference computation takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


class SpeedLog:
    """Probe times along a ``tracing.Clock``; probing itself is off the clock."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.marks: list[tuple[float, float]] = []  # (clock reading, probe seconds)

    def sample(self) -> None:
        with self.clock.excluded():
            self.marks.append((self.clock.now(), probe_s()))

    def sample_if_due(self) -> None:
        if self.clock.now() - self.marks[-1][0] >= PROBE_EVERY_S:
            self.sample()

    def at_reference_speed(self) -> float:
        """Clock seconds from the first to the last sample, at reference speed."""
        return sum(
            (t1 - t0) * REFERENCE_S / ((p0 + p1) / 2)
            for (t0, p0), (t1, p1) in zip(self.marks, self.marks[1:])
        )
