"""Shared value types: feature vectors, tasks, cost parameters, outcomes.

Everything here is an immutable value type after construction and safe to
share between threads.  ``tasks_from_columns`` builds many tasks at once from
checked columns, each task's feature vector a read-only row of one feature
matrix, the vectors' block.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from itertools import count
from operator import attrgetter, index
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from .reuse_store import ReuseEntry

_set_field = object.__setattr__


def _slot_builder(cls: type) -> Callable:
    """A function that builds a ``cls`` from one value per slot, in slot order.

    Each value is written through its slot's descriptor, past a frozen
    ``__setattr__``; neither ``__init__`` nor ``__post_init__`` runs, so the
    caller vouches for the values.  The writes are unrolled in generated
    source, as ``dataclasses`` generates ``__init__``; the globals it reads
    start with ``__``, so no parameter named for a slot shadows them.
    """
    names = cls.__slots__
    env = {"__new": object.__new__, "__cls": cls}
    env.update((f"__set_{name}", vars(cls)[name].__set__) for name in names)
    source = f"def build({', '.join(names)}):\n    __obj = __new(__cls)"
    source += "".join(f"\n    __set_{name}(__obj, {name})" for name in names)
    exec(source + "\n    return __obj", env)
    return env["build"]


def _refuse_assignment(self, name: str, value) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def frozen_slots(cls: type) -> type:
    """``@dataclass(frozen=True, slots=True)``, refusing every assignment as frozen.

    ``slots=True`` returns a new class, but the ``__setattr__`` and
    ``__delattr__`` that ``frozen=True`` generates still test for the class it
    replaced, so for a name that is not a field they raise ``TypeError`` from
    ``super()`` (Python 3.10 to 3.13).  The class gets guards that raise
    ``FrozenInstanceError`` for any name, as a frozen dataclass without slots
    does.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    return cls


class DimensionMismatch(ValueError):
    """Raised when two feature vectors live in incompatible feature spaces."""


def require_finite(values: Mapping[str, float]) -> None:
    """Raise ``ValueError`` naming the first field of ``values`` that is not finite.

    ``values`` maps each field's name to its value.  NaN, an infinity,
    ``None``, an int too large for a float and a value that is not a real
    number (a ``str``, say) are not finite, so a caller checks an optional
    field that ``None`` leaves unset only when it is set.  One C-level pass
    checks every value; only a call that fails it looks for the field to
    name.
    """
    try:
        if all(map(math.isfinite, values.values())):
            return
    except (OverflowError, TypeError):  # an int too large for a float, or no number
        pass
    for name, value in values.items():
        try:
            if math.isfinite(value):
                continue
            got = repr(value)
        except OverflowError:
            got = "an int too large for a float"
        except TypeError:  # None, or not a real number
            got = repr(value)
        raise ValueError(f"{name} must be finite, got {got}")


def require_int(name: str, value: object, minimum: Optional[int] = None) -> None:
    """Raise ``ValueError`` naming the field ``name`` unless ``value`` is an integer.

    An integer is what ``operator.index`` takes: an ``int`` or a numpy
    integer, not a float even when it is whole, so a count such as 2.5 never
    flows into a run.  With a ``minimum``, a smaller integer is refused too.
    """
    try:
        value = index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


class FeatureVector:
    """Fixed-dimension real-valued feature vector (pre-extracted upstream).

    The values live in ``_array``, a read-only 1-D float64 array.  The
    constructor copies its input into a new array; ``tasks_from_columns``
    gives each vector a row view of the feature matrix of its call, so a
    vector keeps that whole matrix alive.  ``values`` is a tuple of Python
    floats, built at each read.  Equality, hashing, ``repr`` and pickling
    go by ``values``.

    ``_array`` is row ``_row`` of ``_block``, a read-only float64 matrix
    whose rows an ``LshIndex`` hashes together.  ``tasks_from_columns``
    makes its feature matrix the block of every vector it builds; the
    constructor, and so a copy or an unpickled vector, makes a block of one
    row.  Nothing is written to a vector after construction.
    """

    __slots__ = ("_array", "_block", "_row")

    def __init__(self, values: Iterable[float]) -> None:
        try:
            vals = tuple(map(float, values))
        except OverflowError:  # an int too large for a float
            raise ValueError("feature vector values must be finite") from None
        if not vals:
            raise ValueError("feature vector needs dimension >= 1")
        if not all(map(math.isfinite, vals)):
            raise ValueError("feature vector values must be finite")
        array = np.array(vals)
        array.setflags(write=False)
        _set_field(self, "_array", array)
        _set_field(self, "_block", array[None])  # a read-only view, 1 x dimension
        _set_field(self, "_row", 0)

    __setattr__ = _refuse_assignment
    __delattr__ = _refuse_deletion

    def __reduce__(self):
        # rebuilt from its values alone: a copy or an unpickled vector owns
        # a block of one row, not the whole block of its original
        return FeatureVector, (self.values,)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self._array.tolist())

    @property
    def dimension(self) -> int:
        return len(self._array)

    def __len__(self) -> int:
        return len(self._array)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash((self.values,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(values={self.values!r})"


_build_vector = _slot_builder(FeatureVector)


def require_dimension(v: FeatureVector, dimension: int) -> np.ndarray:
    """``v``'s array, after checking that its shape is ``(dimension,)``."""
    array = v._array
    if array.shape != (dimension,):
        raise DimensionMismatch(
            f"expected a vector of dimension {dimension}, got shape {array.shape}"
        )
    return array


# the float fields of a Task, checked finite together
_TASK_FLOATS = ("input_size", "output_size", "complexity", "arrival_time")
_task_floats = attrgetter(*_TASK_FLOATS)


@frozen_slots
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
        size_in, size_out, work, at = floats = _task_floats(self)
        require_finite(dict(zip(_TASK_FLOATS, floats)))
        if size_in < 0 or size_out < 0:
            raise ValueError("task data sizes must be >= 0")
        if work <= 0:
            raise ValueError("task complexity must be > 0")
        if at < 0:
            raise ValueError("task arrival time must be >= 0")


_build_task = _slot_builder(Task)


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

    ``features`` has shape ``(n, dimension)``; ``labels`` and the other
    columns have ``n`` entries, or ``ValueError`` names the one that does
    not.  The conditions of ``FeatureVector`` and ``Task`` are checked
    once per column.  A row that breaks one goes through those constructors,
    which raise the error, naming the field, that they raise one task at a
    time; the rows that pass are built without checking each again.

    The feature matrix, as a C-contiguous float64 array (``features`` itself
    when it is one), is made read-only, and task ``i``'s vector is a view of
    its row ``i``.  The matrix is the vectors' block, which an ``LshIndex``
    hashes a chunk of rows at a time.
    """
    n = len(features)
    for name, column in (
        ("labels", labels),
        ("input_size", input_size),
        ("output_size", output_size),
        ("complexity", complexity),
        ("arrival", arrival),
    ):
        if len(column) != n:
            raise ValueError(f"{name} has {len(column)} entries for {n} feature rows")
    features = np.ascontiguousarray(features, dtype=np.float64)
    features.setflags(write=False)
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
    # the rows that pass are built as the constructors build them, minus the
    # checks made above for the whole column
    return [
        _build_task(i, service, label, _build_vector(row, features, i), up, down, work, at)
        for i, label, row, up, down, work, at in zip(
            count(),
            labels,
            features,
            input_size.tolist(),
            output_size.tolist(),
            complexity.tolist(),
            arrival.tolist(),
        )
    ]


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
        require_finite(vars(self))
        require_int("edge_hops", self.edge_hops)
        require_int("cloud_hops", self.cloud_hops)
        if self.edge_bandwidth <= 0 or self.cloud_bandwidth <= 0:
            raise ValueError("bandwidths must be > 0")
        if self.edge_capacity_rate <= 0 or self.cloud_capacity_rate <= 0:
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


_REUSE_KINDS = (OutcomeKind.FULL_REUSE, OutcomeKind.PARTIAL_REUSE)


@frozen_slots
class Outcome:
    """How a task was satisfied, plus the matched store entry when reused."""

    kind: OutcomeKind
    reused_fraction: float = 0.0
    matched_entry: Optional["ReuseEntry"] = None

    def __post_init__(self) -> None:
        kind, fraction, entry = self.kind, self.reused_fraction, self.matched_entry
        if kind is OutcomeKind.FULL_REUSE:
            if fraction != 1.0 or entry is None:
                raise ValueError("full reuse requires fraction 1 and a matched entry")
        elif kind is OutcomeKind.PARTIAL_REUSE:
            if not 0.0 < fraction < 1.0 or entry is None:
                raise ValueError(
                    "partial reuse requires fraction in (0,1) and a matched entry"
                )
        elif fraction != 0.0 or entry is not None:
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
        return self.kind in _REUSE_KINDS


# The two outcomes that carry no reuse, shared by every task that has one.
CLOUD_OFFLOAD = Outcome(OutcomeKind.CLOUD_OFFLOAD)
EDGE_COMPUTE = Outcome(OutcomeKind.EDGE_COMPUTE)
