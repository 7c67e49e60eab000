"""Synthetic task streams with controlled input redundancy.

Objects are modelled as base feature vectors drawn uniformly on a sphere of
radius ``BASE_NORM``; each observation of an object is its base vector plus
per-coordinate Gaussian noise, so "same object, different capture" has a
tunable similarity knob (sigma) and exact ground truth.  Each generated task
repeats an already-seen object with probability ``redundancy_rate`` (chosen
uniformly among seen labels), otherwise it introduces a new one.  Arrivals
form a Poisson process.

All randomness flows from one seeded generator consumed in a fixed per-task
order (redundancy coin, then a seen object's index or a new base vector,
noise, input size, output size, complexity, inter-arrival gap), so a given
spec is bit-reproducible.  The draws fill numpy columns, and the tasks are
built from the columns at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import Task, require_finite, tasks_from_columns

BASE_NORM = 10.0


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
            require_finite(name, getattr(self, name))
        for name in ("input_size_range", "output_size_range", "complexity_range"):
            require_finite(name, *getattr(self, name))
        if not self.service or "," in self.service:
            raise ValueError("service must be a non-empty name without commas")
        if self.num_tasks < 0:
            raise ValueError("num_tasks must be >= 0")
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
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _draw(
    spec: WorkloadSpec, n: int, observe: bool
) -> tuple[Optional[list[str]], Optional[np.ndarray], np.ndarray, np.ndarray]:
    """Draw ``n`` tasks' random columns, one task at a time.

    Returns ``(labels, features, sizes, arrival)``: ``sizes`` has columns
    input size, output size and complexity.  With ``observe``, each task
    first draws its object and its noisy observation, in the module's draw
    order; otherwise ``labels`` and ``features`` are ``None``.  Each value
    is the float the matching scalar ``Generator`` call returns (``uniform``
    is ``lo + (hi - lo) * random()``, ``exponential`` is ``scale *
    standard_exponential()``), and arrivals are the running sum of the gaps.
    """
    rng = np.random.default_rng(spec.seed)
    random, normal = rng.random, rng.standard_normal
    integers, exponential = rng.integers, rng.standard_exponential
    uniforms = np.empty((n, 3))
    gaps = np.empty(n)
    if observe:
        raw_bases = np.empty((n, spec.dimension))
        noise = np.empty((n, spec.dimension))
        objects: list[int] = []
        minted = 0
    for i in range(n):
        if observe:
            # the first task has no seen object to repeat, so it draws no coin
            if i and random() < spec.redundancy_rate:
                objects.append(int(integers(0, minted)))
            else:
                normal(out=raw_bases[minted])
                objects.append(minted)
                minted += 1
            normal(out=noise[i])
        random(out=uniforms[i])
        gaps[i] = exponential()

    ranges = (spec.input_size_range, spec.output_size_range, spec.complexity_range)
    lo = np.array([r[0] for r in ranges])
    sizes = lo + np.array([r[1] - r[0] for r in ranges]) * uniforms
    arrival = np.cumsum((1.0 / spec.arrival_rate) * gaps)
    if not observe:
        return None, None, sizes, arrival
    bases = raw_bases[:minted]
    norms = np.array([math.sqrt(g @ g) for g in bases]).reshape(minted, 1)
    bases *= BASE_NORM
    bases /= norms
    features = noise
    features *= spec.noise_sigma
    features += bases[objects]
    names = [f"obj-{k:05d}" for k in range(minted)]
    return [names[k] for k in objects], features, sizes, arrival


def generate(spec: WorkloadSpec) -> list[Task]:
    """Generate the task list for a spec; deterministic given the seed."""
    labels, features, sizes, arrival = _draw(spec, spec.num_tasks, observe=True)
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


def ingest(path, spec: WorkloadSpec) -> list[Task]:
    """Build tasks from an externally produced feature dump.

    File format: one record per line, ``label,v1,...,vd`` with an optional
    ``label,f1,...,fd`` header.  Labels and features come from the file;
    arrival times, sizes, and complexities are drawn from the spec exactly
    as in ``generate``.
    """
    labels: list[str] = []
    rows: list[tuple[float, ...]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            label = parts[0]
            try:
                values = tuple(float(p) for p in parts[1:])
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise WorkloadFileError(
                    f"line {lineno}: non-numeric feature value"
                ) from None
            if len(values) != spec.dimension:
                raise WorkloadFileError(
                    f"line {lineno}: expected {spec.dimension} feature values, "
                    f"got {len(values)}"
                )
            if not all(map(math.isfinite, values)):
                raise WorkloadFileError(f"line {lineno}: non-finite feature value")
            labels.append(label)
            rows.append(values)
    # a matrix that owns its data, so the read-only flag tasks_from_columns
    # sets covers it (a reshape view would leave its owner writable)
    if rows:
        features = np.array(rows, dtype=np.float64)
    else:
        features = np.empty((0, spec.dimension))
    _, _, sizes, arrival = _draw(spec, len(rows), observe=False)
    return tasks_from_columns(spec.service, labels, features, *sizes.T, arrival)
