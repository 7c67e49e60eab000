"""Shared value types: feature vectors, tasks, cost parameters, outcomes.

Everything here is an immutable value type after construction and safe to
share between threads.  The one exception is a derived cache: an
``LshIndex`` that hashes a ``FeatureVector`` writes the bucket keys it
computed into the vector, so a read may write that cache.  The write is
idempotent (the same index always computes the same keys) and the cache
takes no part in equality, hashing, ``repr`` or pickling.
``tasks_from_columns`` builds many tasks at once from checked columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from .lsh import LshIndex
    from .reuse_store import ReuseEntry


class DimensionMismatch(ValueError):
    """Raised when two feature vectors live in incompatible feature spaces."""


def require_finite(name: str, *values: Optional[float]) -> None:
    """Raise ``ValueError`` naming ``name`` if a value is NaN or infinite.

    ``None`` (an unset optional field) passes.
    """
    for value in values:
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _require_finite_fields(fields: dict[str, float]) -> None:
    """``require_finite`` on each field, in one C-level pass when all are finite."""
    if not all(map(math.isfinite, fields.values())):
        for name, value in fields.items():
            require_finite(name, value)


@dataclass(frozen=True, slots=True)
class FeatureVector:
    """Fixed-dimension real-valued feature vector (pre-extracted upstream).

    ``_lsh_keys`` is ``(index, keys)`` for the last ``LshIndex`` that hashed
    the vector, written by ``LshIndex.signature``; None until then.
    """

    values: tuple[float, ...]
    _lsh_keys: Optional[tuple["LshIndex", tuple[int, ...]]] = field(
        default=None, init=False, compare=False, hash=False, repr=False
    )

    def __post_init__(self) -> None:
        vals = tuple(map(float, self.values))
        if len(vals) < 1:
            raise ValueError("feature vector needs dimension >= 1")
        if not all(map(math.isfinite, vals)):
            raise ValueError("feature vector values must be finite")
        object.__setattr__(self, "values", vals)

    def __reduce__(self):
        # rebuilt from its values alone: the cached keys name an index of
        # this process, so a copy or an unpickled vector starts without them
        return FeatureVector, (self.values,)

    @property
    def dimension(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Task:
    """One service invocation.

    ``object_label`` is ground truth used only for correctness scoring; the
    forwarding plane never receives it as an input.  Sizes are in megabits,
    complexity in abstract compute-units, times in seconds.
    """

    id: int
    service: str
    object_label: str
    features: FeatureVector
    input_size: float
    output_size: float
    complexity: float
    arrival_time: float = 0.0

    def __post_init__(self) -> None:
        _require_finite_fields(
            {
                "input_size": self.input_size,
                "output_size": self.output_size,
                "complexity": self.complexity,
                "arrival_time": self.arrival_time,
            }
        )
        if self.input_size < 0 or self.output_size < 0:
            raise ValueError("task data sizes must be >= 0")
        if self.complexity <= 0:
            raise ValueError("task complexity must be > 0")
        if self.arrival_time < 0:
            raise ValueError("task arrival time must be >= 0")


def tasks_from_columns(
    service: str,
    labels: Sequence[str],
    features: np.ndarray,
    input_size: np.ndarray,
    output_size: np.ndarray,
    complexity: np.ndarray,
    arrival: np.ndarray,
) -> list[Task]:
    """Tasks ``0..n-1`` of one service, task ``i`` from row ``i`` of each column.

    ``features`` has shape ``(n, dimension)``; the other columns have shape
    ``(n,)``.  The conditions of ``FeatureVector`` and ``Task`` are checked
    once per column.  A row that breaks one goes through those constructors,
    which raise the error, naming the field, that they raise one task at a
    time; the rows that pass are built without checking each again.
    """
    ok = (
        np.isfinite(features).all(axis=1)
        & (features.shape[1] >= 1)
        & np.isfinite(input_size)
        & np.isfinite(output_size)
        & np.isfinite(complexity)
        & np.isfinite(arrival)
        & (input_size >= 0)
        & (output_size >= 0)
        & (complexity > 0)
        & (arrival >= 0)
    )
    for i in np.flatnonzero(~ok).tolist():
        Task(
            i,
            service,
            labels[i],
            FeatureVector(features[i].tolist()),
            float(input_size[i]),
            float(output_size[i]),
            float(complexity[i]),
            float(arrival[i]),
        )
    # fields are set as the frozen dataclasses' ``__init__`` sets them, minus
    # the ``__post_init__`` checks made above for the whole column
    new, set_field = object.__new__, object.__setattr__
    tasks: list[Task] = []
    for i, label, values, size_in, size_out, work, at in zip(
        count(),
        labels,
        features.tolist(),
        input_size.tolist(),
        output_size.tolist(),
        complexity.tolist(),
        arrival.tolist(),
    ):
        fv = new(FeatureVector)
        set_field(fv, "values", tuple(values))
        set_field(fv, "_lsh_keys", None)
        task = new(Task)
        set_field(task, "id", i)
        set_field(task, "service", service)
        set_field(task, "object_label", label)
        set_field(task, "features", fv)
        set_field(task, "input_size", size_in)
        set_field(task, "output_size", size_out)
        set_field(task, "complexity", work)
        set_field(task, "arrival_time", at)
        tasks.append(task)
    return tasks


@dataclass(frozen=True)
class CostParams:
    """Network and compute parameters of the user/edge/cloud paths.

    Bandwidths are megabits/second, capacity rates compute-units/second,
    lookup cost and per-hop latency in seconds.  Defaults are the experiment
    defaults (hop counts from the midpoints of the published ranges; the
    remaining values are desk-scale choices documented in the README).
    """

    edge_bandwidth: float = 100.0
    cloud_bandwidth: float = 4.0
    edge_capacity_rate: float = 100.0
    cloud_capacity_rate: float = 1000.0
    lookup_cost: float = 0.001
    edge_hops: int = 1
    cloud_hops: int = 6
    per_hop_latency: float = 0.005

    def __post_init__(self) -> None:
        _require_finite_fields(vars(self))
        if min(self.edge_bandwidth, self.cloud_bandwidth) <= 0:
            raise ValueError("bandwidths must be > 0")
        if min(self.edge_capacity_rate, self.cloud_capacity_rate) <= 0:
            raise ValueError("capacity rates must be > 0")
        if self.lookup_cost < 0:
            raise ValueError("lookup cost must be >= 0")
        if not (self.cloud_hops >= self.edge_hops >= 1):
            raise ValueError("need cloud_hops >= edge_hops >= 1")
        if self.per_hop_latency < 0:
            raise ValueError("per-hop latency must be >= 0")


class OutcomeKind(Enum):
    FULL_REUSE = "full_reuse"
    PARTIAL_REUSE = "partial_reuse"
    EDGE_COMPUTE = "edge_compute"
    CLOUD_OFFLOAD = "cloud_offload"


@dataclass(frozen=True)
class Outcome:
    """How a task was satisfied, plus the matched store entry when reused."""

    kind: OutcomeKind
    reused_fraction: float = 0.0
    matched_entry: Optional["ReuseEntry"] = None

    def __post_init__(self) -> None:
        if self.kind is OutcomeKind.FULL_REUSE:
            if self.reused_fraction != 1.0 or self.matched_entry is None:
                raise ValueError("full reuse requires fraction 1 and a matched entry")
        elif self.kind is OutcomeKind.PARTIAL_REUSE:
            if not (0.0 < self.reused_fraction < 1.0) or self.matched_entry is None:
                raise ValueError(
                    "partial reuse requires fraction in (0,1) and a matched entry"
                )
        else:
            if self.reused_fraction != 0.0 or self.matched_entry is not None:
                raise ValueError(
                    "non-reuse outcomes carry no reused fraction or matched entry"
                )

    @property
    def at_edge(self) -> bool:
        """Offloading flag: True when the task is handled by the edge server."""
        return self.kind is not OutcomeKind.CLOUD_OFFLOAD

    @property
    def is_reuse(self) -> bool:
        """Reuse flag: True when a stored result satisfies (part of) the task."""
        return self.kind in (OutcomeKind.FULL_REUSE, OutcomeKind.PARTIAL_REUSE)


# The two outcomes that carry no reuse, shared by every task that has one.
CLOUD_OFFLOAD = Outcome(OutcomeKind.CLOUD_OFFLOAD)
EDGE_COMPUTE = Outcome(OutcomeKind.EDGE_COMPUTE)
