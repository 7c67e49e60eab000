"""Reuse store: previously computed results keyed by input similarity.

Each service gets one table: its entries and their LSH index, the lazy LFU
heap and the hit and miss counts.  A lookup classifies the nearest stored
input as a full hit (distance <= tau_full), a partial hit (distance <=
tau_partial, covering ``partial_fraction`` of the task), or a miss.  Hits
bump the entry's reuse frequency; when a service's table is at capacity the
least-frequently-used entry is evicted (ties: least recently used, then
smallest id).

Admission is unconditional: every freshly computed result is stored and LFU
filters out unpopular inputs over time.  Frequencies count over the entry's
whole lifetime.

Eviction is exact and O(log n) amortized: each service that has evicted keeps
a lazy min-heap of ``(frequency, last_used_at, id)`` keys.  Every change of an
entry's key pushes the new key; ``evict_lfu`` pops until the top key is still
the live key of a stored entry, which is the same victim a full scan picks,
whatever the order of ``now`` values.  The heap is dropped and rebuilt from
the table when stale keys outnumber live ones.  Frequencies and last-use
times change only through the store.

Every ``lookup`` and ``place`` is checked in ``_open``, before it changes
anything.

A hit's ``LookupResult`` is built by a slot builder, for speed alone: the
class has no checks to skip, and the builder takes about half the time of
the frozen constructor.  A ``ReuseEntry`` is not frozen, and its
constructor is faster than a slot builder, so ``place`` calls it.

Single-writer, multi-reader: lookups mutate frequency counters, so they need
the writer role; the structure itself is sendable between threads.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .core import (
    FeatureVector,
    _slot_builder,
    frozen_slots,
    require_dimension,
    require_finite,
    require_int,
)
from .lsh import LshIndex, LshSettings


@dataclass(frozen=True)
class StoreSettings:
    """Capacity and similarity thresholds (the ``store.`` config section)."""

    capacity: Optional[int] = 500
    tau_full: float = 1.0
    tau_partial: float = 2.0
    partial_fraction: float = 0.5

    def __post_init__(self) -> None:
        for name in ("tau_full", "tau_partial", "partial_fraction"):
            require_finite({name: getattr(self, name)})
        if self.capacity is not None:
            require_int("capacity", self.capacity)
        if self.capacity is not None and self.capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        if self.tau_full < 0 or self.tau_partial <= self.tau_full:
            raise ValueError("need 0 <= tau_full < tau_partial")
        if not 0.0 < self.partial_fraction < 1.0:
            raise ValueError("partial_fraction must lie in (0, 1)")


def _reduce_to_fields(self):
    # dataclasses gives a slotted class pickle state only when it is frozen,
    # and pickle protocols 0 and 1 need one: rebuild from the field values
    return type(self), tuple(getattr(self, name) for name in self.__slots__)


@dataclass(slots=True)
class ReuseEntry:
    """A stored result: the input it was computed from and the label it produced."""

    id: int
    features: FeatureVector
    output: str
    frequency: int = 0
    last_used_at: float = 0.0

    __reduce__ = _reduce_to_fields


class LookupKind(Enum):
    FULL = "full"
    PARTIAL = "partial"
    MISS = "miss"


@frozen_slots
class LookupResult:
    """The lookup's class, the matched entry and the share of the task it covers.

    ``reused_fraction`` is 1 for a full hit, the store's ``partial_fraction``
    for a partial hit and 0 for a miss.
    """

    kind: LookupKind
    entry: Optional[ReuseEntry] = None
    reused_fraction: float = 0.0


MISS = LookupResult(LookupKind.MISS)
_build_result = _slot_builder(LookupResult)
# read per hit; a module global is faster than ``LookupKind.FULL``
_FULL, _PARTIAL = LookupKind.FULL, LookupKind.PARTIAL


@dataclass(frozen=True)
class ServiceStats:
    entries: int
    hits: int
    misses: int


def _lfu_key(entry: ReuseEntry) -> tuple[int, float, int]:
    """Eviction order: lowest frequency, then least recent use, then lowest id."""
    return (entry.frequency, entry.last_used_at, entry.id)


def _service_seed(base_seed: int, service: str) -> int:
    # crc32 keeps the derivation stable across runs and platforms (the
    # builtin hash() is salted per process).
    return (base_seed * 0x9E3779B1 + zlib.crc32(service.encode("utf-8"))) & (
        2**63 - 1
    )


@dataclass(eq=False, slots=True)
class _ServiceTable:
    """One service's reuse table and everything kept about it.

    ``heap`` is the lazy LFU heap: None until the service's first eviction,
    and again once it is due for a rebuild.
    """

    index: LshIndex
    entries: dict[int, ReuseEntry] = field(default_factory=dict)
    heap: Optional[list[tuple[int, float, int]]] = None
    hits: int = 0
    misses: int = 0

    def push_key(self, entry: ReuseEntry) -> None:
        """Record an entry's new LFU key in the heap; the caller checks there is one."""
        if len(self.heap) > 2 * len(self.entries) + 16:
            self.heap = None  # mostly stale: rebuild at the next eviction
        else:
            heapq.heappush(self.heap, _lfu_key(entry))


class ReuseStore:
    """Per-service similarity-indexed cache of computed results."""

    def __init__(
        self,
        dimension: int,
        settings: StoreSettings = StoreSettings(),
        lsh: LshSettings = LshSettings(),
        seed: int = 0,
    ):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self._shape = (dimension,)
        self.settings = settings
        self.lsh = lsh
        self.seed = seed
        self._tables: dict[str, _ServiceTable] = {}
        self._next_id = 0
        self.eviction_log: list[tuple[str, int]] = []

    @property
    def capacity(self) -> Optional[int]:
        return self.settings.capacity

    def _open(self, service: str, v: FeatureVector, now: float) -> _ServiceTable:
        """Check a ``lookup`` or ``place`` call; return the service's table.

        The checks run in this order: ``v`` must have the store's dimension
        (``DimensionMismatch``), the service name must be non-empty and
        ``now`` a finite number, not ``None`` (``ValueError``).  The
        dimension and ``now`` checks run in full only when a quick comparison
        fails: the array's shape against the store's, and ``now - now ==
        0.0`` for a ``float`` (not a subclass), which holds iff it is finite;
        any other ``now`` (an ``int`` or ``None``, say) goes to
        ``require_finite``.  A refused call changes nothing: no service is
        recorded, nothing is evicted and no id is consumed.  The table is made
        at the service's first call.
        """
        if v._array.shape != self._shape:
            require_dimension(v, self.dimension)
        if not service:
            raise ValueError("service name must be non-empty")
        # inf - inf and nan - nan are nan
        if now.__class__ is not float or now - now != 0.0:
            require_finite({"now": now})
        table = self._tables.get(service)
        if table is None:
            seed = _service_seed(self.seed, service)
            table = _ServiceTable(LshIndex(self.lsh, self.dimension, seed))
            self._tables[service] = table
        return table

    def lookup(self, service: str, q: FeatureVector, now: float) -> LookupResult:
        """Classify the nearest stored input for ``service`` against the thresholds.

        A full or partial hit increments the matched entry's frequency and
        stamps its last use; a miss changes no entry and counts one miss.
        ``_open`` records a service it has not seen: a miss for a new service
        builds its table and index, so ``stats()`` lists it with 0 entries,
        0 hits and 1 miss.
        """
        table = self._open(service, q, now)
        nearest = table.index.query(q)
        settings = self.settings
        if not nearest or nearest[0][1] > settings.tau_partial:
            table.misses += 1
            return MISS
        ((best_id, best_dist),) = nearest
        entry = table.entries[best_id]
        entry.frequency += 1
        entry.last_used_at = now
        if table.heap is not None:
            table.push_key(entry)
        table.hits += 1
        if best_dist <= settings.tau_full:
            return _build_result(_FULL, entry, 1.0)
        return _build_result(_PARTIAL, entry, settings.partial_fraction)

    def place(
        self, service: str, features: FeatureVector, output: str, now: float
    ) -> int:
        """Admit a freshly computed result, evicting LFU first if at capacity.

        ``output`` is the label the computation produced.  Returns the new
        entry's id.
        """
        table = self._open(service, features, now)
        capacity = self.settings.capacity
        if capacity is not None and len(table.entries) >= capacity:
            self.evict_lfu(service)
        entry_id = self._next_id
        entry = ReuseEntry(entry_id, features, output, 0, now)
        table.index.insert(entry_id, features)  # a rejected vector stores nothing
        table.entries[entry_id] = entry
        if table.heap is not None:
            table.push_key(entry)
        self._next_id = entry_id + 1
        return entry_id

    def evict_lfu(self, service: str) -> int:
        """Remove and return the id of the least-frequently-used entry.

        The victim is ``min((frequency, last_used_at, id))`` over the
        service's entries, found by popping stale keys off the lazy heap.
        """
        table = self._tables.get(service)
        if table is None or not table.entries:
            raise KeyError(f"no entries stored for service {service!r}")
        entries = table.entries
        while True:
            if not table.heap:  # no heap yet, or only stale keys were left
                table.heap = [_lfu_key(e) for e in entries.values()]
                heapq.heapify(table.heap)
            key = heapq.heappop(table.heap)
            victim = entries.get(key[2])
            if victim is not None and _lfu_key(victim) == key:
                break
        del entries[victim.id]
        table.index.remove(victim.id)
        self.eviction_log.append((service, victim.id))
        return victim.id

    def entry_count(self, service: str) -> int:
        table = self._tables.get(service)
        return len(table.entries) if table else 0

    def entries(self, service: str) -> list[ReuseEntry]:
        table = self._tables.get(service)
        return list(table.entries.values()) if table else []

    def stats(self) -> dict[str, ServiceStats]:
        return {
            service: ServiceStats(len(t.entries), t.hits, t.misses)
            for service, t in sorted(self._tables.items())
        }
