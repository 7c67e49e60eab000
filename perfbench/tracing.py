"""In-memory span tracing by wrapping functions from outside the program.

A ``Tracer`` replaces attributes of modules and classes with wrappers that
record one span per call: (name, start, end, parent).  Spans stay in memory
and are written once, at exit.  A layer's self time is its spans' duration
minus the part of each span that its child spans cover.

``Clock`` keeps host time with an exclusion account: work done inside
``Clock.excluded()`` (output checks, counters, the brute-force recall probe)
is subtracted from every reading, so it shows in no span and in no
end-to-end time.
"""

from __future__ import annotations

import functools
import math
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterable, Optional


class Clock:
    """``time.perf_counter`` minus the time spent inside ``excluded()``."""

    def __init__(self) -> None:
        self.excluded_s = 0.0

    def now(self) -> float:
        return time.perf_counter() - self.excluded_s

    @contextmanager
    def excluded(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.excluded_s += time.perf_counter() - t0


class Patches:
    """Attribute replacements that are undone in reverse order by ``restore``."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make: Callable[[object], object]) -> None:
        """Set ``owner.attr`` to ``make(original)``; ``restore`` puts it back."""
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


Observer = Callable[[tuple, dict, object], None]


class Tracer:
    """Records a span for every call of the functions it wraps.

    Spans live in flat arrays rather than as one object each, so that a long
    traced run adds no work to the garbage collector.
    """

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._open: list[int] = []

    @property
    def spans(self) -> list[tuple[str, float, float, int]]:
        """Every span as (name, start, end, parent index or -1)."""
        names = self.names
        return [
            (names[n], start, end, parent)
            for n, start, end, parent in zip(
                self._name, self._start, self._end, self._parent
            )
        ]

    def wrap(self, name: str, fn, observe: Optional[Observer] = None):
        """A wrapper of ``fn`` that records span ``name``.

        ``observe(args, kwargs, result)`` runs after the span closes, with its
        time excluded from every span and reading of the clock.
        """
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        names, starts, ends, parents = self._name, self._start, self._end, self._parent
        open_, clock, perf_counter = self._open, self.clock, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(code)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(index)
            starts.append(perf_counter() - clock.excluded_s)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter() - clock.excluded_s
                open_.pop()
            if observe is not None:
                with clock.excluded():
                    observe(args, kwargs, result)
            return result

        return traced

def write_spans(path, spans) -> None:
    """Write spans as lines of ``index<TAB>name<TAB>start<TAB>end<TAB>parent``."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\n")


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered(start, end, children.get(i, ()))
        for i, (_, start, end, _) in enumerate(spans)
    ]


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The ``q`` quantile (0 < q <= 1) by the nearest-rank rule; 0 when empty."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def layer_summary(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed self time, and per-call duration quantiles."""
    selfs = self_times(spans)
    durations: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    for (name, start, end, _), own in zip(spans, selfs):
        durations.setdefault(name, []).append(end - start)
        self_s[name] = self_s.get(name, 0.0) + own
    out = {}
    for name, values in durations.items():
        values.sort()
        out[name] = {
            "calls": len(values),
            "self_s": self_s[name],
            "us_p50": 1e6 * nearest_rank(values, 0.5),
            "us_p99": 1e6 * nearest_rank(values, 0.99),
        }
    return out
