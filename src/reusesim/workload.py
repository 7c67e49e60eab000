"""Synthetic task streams with controlled input redundancy.

Objects are modelled as base feature vectors drawn uniformly on a sphere of
radius ``BASE_NORM``; each observation of an object is its base vector plus
per-coordinate Gaussian noise, so "same object, different capture" has a
tunable similarity knob (sigma) and exact ground truth.  Each generated task
repeats an already-seen object with probability ``redundancy_rate`` (chosen
uniformly among seen labels), otherwise it introduces a new one.  Arrivals
form a Poisson process.

All randomness flows from one seeded generator, drawn one quantity at a time
as a numpy block: the sizes (input size, output size, complexity per task),
the inter-arrival gaps, the redundancy coins of tasks 1..n-1, the noise, the
new objects' base vectors in order of first appearance, and last each
repeat's object index among the objects seen before it.  A given spec is
therefore bit-reproducible.  The sizes and arrivals come first, so they
depend only on the seed, the task count, the ranges and the arrival rate:
specs that differ in redundancy, noise, dimension or service draw the same
ones (common random numbers), and raising ``redundancy_rate`` only turns new
tasks into repeats.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import Task, require_finite, require_int, tasks_from_columns

BASE_NORM = 10.0
# the most feature rows ``generate`` adds their objects' bases to at once
_GATHER_ROWS = 4096

# what a tasks.csv cell cannot hold: the separator, the quote and line ends
CSV_UNSAFE = frozenset(',"\r\n')
# what the ``surrogateescape`` error handler decodes a byte that is not
# valid UTF-8 to
_UNDECODED = re.compile("[\udc80-\udcff]")


class WorkloadFileError(ValueError):
    """A feature-dump file failed to parse; the message names the line."""


@dataclass(frozen=True)
class WorkloadSpec:
    num_tasks: int = 100
    redundancy_rate: float = 0.8
    arrival_rate: float = 6.0
    service: str = "detect"
    input_size_range: tuple[float, float] = (4.0, 8.0)
    output_size_range: tuple[float, float] = (0.1, 0.5)
    complexity_range: tuple[float, float] = (50.0, 150.0)
    dimension: int = 32
    noise_sigma: float = 0.05
    seed: int = 42

    def __post_init__(self) -> None:
        for name in ("redundancy_rate", "arrival_rate", "noise_sigma"):
            require_finite({name: getattr(self, name)})
        for name in ("input_size_range", "output_size_range", "complexity_range"):
            pair = getattr(self, name)
            try:
                lo, hi = pair
            except (TypeError, ValueError):  # not iterable, or not two values
                raise ValueError(f"{name} must be a (lo, hi) pair, got {pair!r}") from None
            require_finite({name: lo})
            require_finite({name: hi})
        if not self.service or not CSV_UNSAFE.isdisjoint(self.service):
            raise ValueError('service must be a non-empty name without , " CR or LF')
        require_int("num_tasks", self.num_tasks, 0)
        if not 0.0 <= self.redundancy_rate <= 1.0:
            raise ValueError("redundancy_rate must lie in [0, 1]")
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be > 0")
        for name in ("input_size_range", "output_size_range", "complexity_range"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo:
                raise ValueError(f"{name} must satisfy 0 <= lo <= hi")
        if self.complexity_range[0] <= 0:
            raise ValueError("complexity must be strictly positive")
        require_int("dimension", self.dimension, 1)
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        require_int("seed", self.seed, 0)


def _sizes_and_arrivals(
    spec: WorkloadSpec, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The first two draw blocks: ``n`` tasks' sizes, then their arrivals.

    ``sizes`` has columns input size, output size and complexity, each
    ``lo + (hi - lo) * u``; arrivals are the running sum of
    ``gap / arrival_rate``.  A value that overflows is left infinite, with
    no warning, for the column checks of ``tasks_from_columns`` to report.
    """
    ranges = (spec.input_size_range, spec.output_size_range, spec.complexity_range)
    lo = np.array([r[0] for r in ranges])
    with np.errstate(over="ignore"):
        sizes = lo + np.array([r[1] - r[0] for r in ranges]) * rng.random((n, 3))
        return sizes, np.cumsum(rng.standard_exponential(n) / spec.arrival_rate)


def generate(spec: WorkloadSpec) -> list[Task]:
    """Generate the task list for a spec; deterministic given the seed."""
    n = spec.num_tasks
    rng = np.random.default_rng(spec.seed)
    sizes, arrival = _sizes_and_arrivals(spec, rng, n)
    # the first task has no seen object to repeat, so it draws no coin
    new = np.ones(n, dtype=bool)
    new[1:] = rng.random(max(n - 1, 0)) >= spec.redundancy_rate
    features = rng.standard_normal((n, spec.dimension))
    # objects are numbered in order of first appearance: a new task's number
    # is the count of new tasks before it
    objects = np.cumsum(new) - 1
    minted = int(np.count_nonzero(new))
    bases = rng.standard_normal((minted, spec.dimension))
    repeats = ~new
    # each repeat picks among the objects minted before it
    objects[repeats] = rng.integers(0, objects[repeats] + 1)
    # each base's norm is sqrt(g @ g): the stacked 1 x d by d x 1 products
    norms = np.sqrt(bases[:, None, :] @ bases[:, :, None]).reshape(minted, 1)
    bases *= BASE_NORM
    bases /= norms
    # an overflow is left infinite, unwarned, for the feature check to report;
    # the bases are gathered a block of rows at a time, so no n x d copy of
    # them is built, and each element's sum is the one a whole gather gives
    with np.errstate(over="ignore"):
        features *= spec.noise_sigma
        for start in range(0, n, _GATHER_ROWS):
            block = slice(start, start + _GATHER_ROWS)
            features[block] += bases[objects[block]]
    names = [f"obj-{k:05d}" for k in range(minted)]
    labels = [names[k] for k in objects.tolist()]
    return tasks_from_columns(spec.service, labels, features, *sizes.T, arrival)


def ramp_rate(n: int) -> float:
    """Redundancy rate for a task count: linear from 0.1 at n=10 to 0.8 at n=100."""
    return min(0.8, max(0.1, 0.1 + 0.7 * (n - 10) / 90.0))


def redundancy_ramp(
    n_values: Sequence[int], base: Optional[WorkloadSpec] = None
) -> list[WorkloadSpec]:
    """Specs for a grid of task counts with the ramped redundancy rate."""
    if not n_values:
        raise ValueError("n_values must be non-empty")
    if list(n_values) != sorted(n_values):
        raise ValueError("n_values must be ascending")
    base = base if base is not None else WorkloadSpec()
    return [
        replace(base, num_tasks=n, redundancy_rate=ramp_rate(n)) for n in n_values
    ]


def _parses(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def ingest(path, spec: WorkloadSpec) -> list[Task]:
    """Build tasks from an externally produced feature dump.

    File format: one record per line, ``label,v1,...,vd`` with an optional
    ``label,f1,...,fd`` header; blank lines are skipped.  The first non-blank
    line is the header when it has feature fields and none of them parses
    as a float, and a record otherwise.  A header must name ``dimension``
    features.  A record's label must not hold a double quote, which would
    corrupt ``tasks.csv``.  A leading byte-order mark is ignored.  Labels
    and features come from the file; arrival times, sizes, and complexities
    are the ones ``generate`` draws for the spec with the file's record
    count.
    """
    return _dump_tasks(*_read_dump(path, spec.dimension), spec)


def _text_lines(path, error: type[ValueError]) -> Iterator[tuple[int, str]]:
    """The numbered, stripped, non-blank lines of a UTF-8 text file.

    A leading byte-order mark is dropped.  A line ends at ``\\n``, ``\\r\\n``
    or ``\\r``.  A line that is not valid UTF-8 raises ``error`` naming the
    line.  A caller that leaves its loop early, say at a malformed line,
    drops the generator, and that closes the file.
    """
    # Each byte that is not valid UTF-8 decodes to a lone surrogate, and no
    # line end is one of those bytes, so the lines split as the bytes do and
    # a bad byte is reported on its own line, not where the decoder's
    # read-ahead meets it.
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line:
                if not line.isascii() and (bad := _UNDECODED.search(line)):
                    raise error(
                        f"line {lineno}: byte 0x{ord(bad[0]) - 0xDC00:02x} "
                        "is not valid UTF-8"
                    )
                yield lineno, line


def _read_dump(path, dimension: int) -> tuple[list[str], np.ndarray]:
    """The labels and feature matrix of a feature dump in ``ingest``'s format."""
    labels: list[str] = []
    rows: list[tuple[float, ...]] = []
    first = True
    for lineno, line in _text_lines(path, WorkloadFileError):
        may_be_header, first = first, False
        label, *fields = line.split(",")
        try:
            values = tuple(map(float, fields))
        except ValueError:
            if not may_be_header or any(map(_parses, fields)):
                raise WorkloadFileError(
                    f"line {lineno}: non-numeric feature value"
                ) from None
            if len(fields) != dimension:
                raise WorkloadFileError(
                    f"line {lineno}: header names {len(fields)} features, "
                    f"expected {dimension}"
                ) from None
            continue  # header row
        if len(values) != dimension:
            raise WorkloadFileError(
                f"line {lineno}: expected {dimension} feature values, "
                f"got {len(values)}"
            )
        if not all(map(math.isfinite, values)):
            raise WorkloadFileError(f"line {lineno}: non-finite feature value")
        if not CSV_UNSAFE.isdisjoint(label):
            raise WorkloadFileError(f'line {lineno}: label must not hold , " CR or LF')
        labels.append(label)
        rows.append(values)
    # a matrix that owns its data, so the read-only flag tasks_from_columns
    # sets covers it (a reshape view would leave its owner writable)
    if rows:
        return labels, np.array(rows, dtype=np.float64)
    return labels, np.empty((0, dimension))


def _dump_tasks(
    labels: Sequence[str], features: np.ndarray, spec: WorkloadSpec
) -> list[Task]:
    """The tasks of a parsed dump, with the sizes and arrivals ``spec`` draws."""
    rng = np.random.default_rng(spec.seed)
    sizes, arrival = _sizes_and_arrivals(spec, rng, len(labels))
    return tasks_from_columns(spec.service, labels, features, *sizes.T, arrival)
