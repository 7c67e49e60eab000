"""Synthetic task streams with controlled input redundancy.

Objects are modelled as base feature vectors drawn uniformly on a sphere of
radius ``BASE_NORM``; each observation of an object is its base vector plus
per-coordinate Gaussian noise, so "same object, different capture" has a
tunable similarity knob (sigma) and exact ground truth.  Each generated task
repeats an already-seen object with probability ``redundancy_rate`` (chosen
uniformly among seen labels), otherwise it introduces a new one.  Arrivals
form a Poisson process.

All randomness flows from one seeded generator consumed in a fixed per-task
order (redundancy coin, base vector if new, noise, sizes, complexity,
inter-arrival), so a given spec is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .core import FeatureVector, Task, require_finite

BASE_NORM = 10.0


class WorkloadFileError(ValueError):
    """A feature-dump file failed to parse; the message names the line."""


@dataclass
class ObjectCatalog:
    """Labelled base vectors; observations of one label differ only by noise."""

    dimension: int
    noise_sigma: float
    objects: dict[str, np.ndarray] = field(default_factory=dict)
    labels: list[str] = field(default_factory=list)

    def mint(self, rng: np.random.Generator) -> str:
        label = f"obj-{len(self.labels):05d}"
        g = rng.standard_normal(self.dimension)
        self.objects[label] = BASE_NORM * g / np.linalg.norm(g)
        self.labels.append(label)
        return label

    def observe(self, label: str, rng: np.random.Generator) -> FeatureVector:
        base = self.objects[label]
        noisy = base + self.noise_sigma * rng.standard_normal(self.dimension)
        return FeatureVector(tuple(noisy.tolist()))


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


def _draw_task(
    spec: WorkloadSpec,
    rng: np.random.Generator,
    task_id: int,
    label: str,
    features: FeatureVector,
    clock: float,
) -> Task:
    """One task arriving after ``clock``; draws sizes, complexity, inter-arrival."""
    input_size = float(rng.uniform(*spec.input_size_range))
    output_size = float(rng.uniform(*spec.output_size_range))
    complexity = float(rng.uniform(*spec.complexity_range))
    return Task(
        id=task_id,
        service=spec.service,
        object_label=label,
        features=features,
        input_size=input_size,
        output_size=output_size,
        complexity=complexity,
        arrival_time=clock + float(rng.exponential(1.0 / spec.arrival_rate)),
    )


def generate(spec: WorkloadSpec) -> list[Task]:
    """Generate the task list for a spec; deterministic given the seed."""
    rng = np.random.default_rng(spec.seed)
    catalog = ObjectCatalog(dimension=spec.dimension, noise_sigma=spec.noise_sigma)
    tasks: list[Task] = []
    clock = 0.0
    for i in range(spec.num_tasks):
        if catalog.labels and rng.random() < spec.redundancy_rate:
            label = catalog.labels[int(rng.integers(0, len(catalog.labels)))]
        else:
            label = catalog.mint(rng)
        task = _draw_task(spec, rng, i, label, catalog.observe(label, rng), clock)
        tasks.append(task)
        clock = task.arrival_time
    return tasks


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
    records: list[tuple[str, tuple[float, ...]]] = []
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
            records.append((label, values))
    rng = np.random.default_rng(spec.seed)
    tasks: list[Task] = []
    clock = 0.0
    for i, (label, values) in enumerate(records):
        task = _draw_task(spec, rng, i, label, FeatureVector(values), clock)
        tasks.append(task)
        clock = task.arrival_time
    return tasks
