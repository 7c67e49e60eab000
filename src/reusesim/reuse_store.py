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
whole lifetime by default; setting ``decay_interval`` halves all counts every
interval to approximate windowed popularity.

Eviction is exact and O(log n) amortized: each service that has evicted keeps
a lazy min-heap of ``(frequency, last_used_at, id)`` keys.  Every change of an
entry's key pushes the new key; ``evict_lfu`` pops until the top key is still
the live key of a stored entry, which is the same victim a full scan picks,
whatever the order of ``now`` values.  The heap is dropped and rebuilt from
the table when stale keys outnumber live ones or when decay rewrites every
key.  Frequencies and last-use times change only through the store.

Single-writer, multi-reader: lookups mutate frequency counters, so they need
the writer role; the structure itself is sendable between threads.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .core import FeatureVector, require_dimension, require_finite
from .lsh import LshIndex, LshSettings


@dataclass(frozen=True)
class StoreSettings:
    """Capacity, similarity thresholds and decay (the ``store.`` config section)."""

    capacity: Optional[int] = 500
    tau_full: float = 1.0
    tau_partial: float = 2.0
    partial_fraction: float = 0.5
    decay_interval: Optional[float] = None

    def __post_init__(self) -> None:
        require_finite("tau_full", self.tau_full)
        require_finite("tau_partial", self.tau_partial)
        require_finite("partial_fraction", self.partial_fraction)
        require_finite("decay_interval", self.decay_interval)
        if self.capacity is not None and self.capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        if self.tau_full < 0 or self.tau_partial <= self.tau_full:
            raise ValueError("need 0 <= tau_full < tau_partial")
        if not 0.0 < self.partial_fraction < 1.0:
            raise ValueError("partial_fraction must lie in (0, 1)")
        if self.decay_interval is not None and self.decay_interval <= 0:
            raise ValueError("decay_interval must be > 0 when set")


@dataclass
class ResultPayload:
    """Opaque computed output: the produced label and its size in megabits."""

    label: str
    output_size: float = 0.0


@dataclass
class ReuseEntry:
    id: int
    service: str
    features: FeatureVector
    output: ResultPayload
    frequency: int = 0
    inserted_at: float = 0.0
    last_used_at: float = 0.0


class LookupKind(Enum):
    FULL = "full"
    PARTIAL = "partial"
    MISS = "miss"


@dataclass(frozen=True)
class LookupResult:
    """The lookup's class, the matched entry and the share of the task it covers.

    ``reused_fraction`` is 1 for a full hit, the store's ``partial_fraction``
    for a partial hit and 0 for a miss.
    """

    kind: LookupKind
    entry: Optional[ReuseEntry] = None
    reused_fraction: float = 0.0


MISS = LookupResult(LookupKind.MISS)

_SNAPSHOT_MAGIC = "#reusesim-snapshot"
_HEADER_FIELDS = {"dimension", "next_id", "last_decay"}


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

    def admit(self, entry: ReuseEntry) -> None:
        """Index, store and key one entry; a vector the index rejects stores nothing."""
        self.index.insert(entry.id, entry.features)
        self.entries[entry.id] = entry
        self.push_key(entry)

    def push_key(self, entry: ReuseEntry) -> None:
        """Record an entry's new LFU key in the heap, if there is one."""
        if self.heap is None:
            return
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
        self.settings = settings
        self.lsh = lsh
        self.seed = seed
        self._tables: dict[str, _ServiceTable] = {}
        self._next_id = 0
        self._last_decay = 0.0
        self.eviction_log: list[tuple[str, int]] = []

    @property
    def capacity(self) -> Optional[int]:
        return self.settings.capacity

    def _table(self, service: str) -> _ServiceTable:
        """The service's table, made at first use; the one check of a service name."""
        table = self._tables.get(service)
        if table is None:
            if not service:
                raise ValueError("service name must be non-empty")
            seed = _service_seed(self.seed, service)
            table = _ServiceTable(LshIndex(self.lsh, self.dimension, seed))
            self._tables[service] = table
        return table

    def _advance(self, now: float) -> None:
        """Check ``now``, then apply the decay due by then.

        Every frequency is halved once per whole interval since the last
        decay.  ``k`` halvings are applied as one shift, so the cost does not
        depend on how much simulated time has passed.
        """
        require_finite("now", now)
        interval = self.settings.decay_interval
        if interval is None:
            return
        k = (now - self._last_decay) // interval
        if k < 1:
            return
        for table in self._tables.values():
            for entry in table.entries.values():
                # halving past f.bit_length() leaves 0 unchanged
                entry.frequency >>= int(min(k, entry.frequency.bit_length()))
            table.heap = None
        self._last_decay += k * interval

    def lookup(self, service: str, q: FeatureVector, now: float) -> LookupResult:
        """Classify the nearest stored input for ``service`` against the thresholds.

        A full or partial hit increments the matched entry's frequency and
        stamps its last use; a miss (including an unknown service) leaves the
        store untouched apart from the miss counter.  A vector of the wrong
        dimension raises ``DimensionMismatch`` before anything changes: no
        decay is applied and no service is recorded.
        """
        require_dimension(q, self.dimension)
        self._advance(now)
        table = self._table(service)
        nearest = table.index.query(q)
        if not nearest or nearest[0][1] > self.settings.tau_partial:
            table.misses += 1
            return MISS
        ((best_id, best_dist),) = nearest
        entry = table.entries[best_id]
        entry.frequency += 1
        entry.last_used_at = now
        table.push_key(entry)
        table.hits += 1
        if best_dist <= self.settings.tau_full:
            return LookupResult(LookupKind.FULL, entry, 1.0)
        return LookupResult(LookupKind.PARTIAL, entry, self.settings.partial_fraction)

    def place(
        self,
        service: str,
        features: FeatureVector,
        output: ResultPayload,
        now: float,
    ) -> int:
        """Admit a freshly computed result, evicting LFU first if at capacity.

        Returns the new entry's id.  A vector of the wrong dimension raises
        ``DimensionMismatch`` before anything changes: no decay is applied,
        no service is recorded, nothing is evicted and no id is consumed.
        """
        require_dimension(features, self.dimension)
        self._advance(now)
        table = self._table(service)
        capacity = self.settings.capacity
        if capacity is not None and len(table.entries) >= capacity:
            self.evict_lfu(service)
        entry = ReuseEntry(
            self._next_id, service, features, output, inserted_at=now, last_used_at=now
        )
        table.admit(entry)
        self._next_id += 1
        return entry.id

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

    # -- snapshot/restore -------------------------------------------------
    #
    # Flat text format: a header line
    #   #reusesim-snapshot dimension=<d> next_id=<n> last_decay=<t>
    # then one entry per line:
    #   service,id,frequency,inserted_at,last_used_at,label,output_size,v1,...,vd
    # Lines end with "\n" alone, so a service name or label round-trips with
    # any character but "\n" and ",", "\r" and leading spaces included.
    # Hit/miss counters are not part of the snapshot.

    def save(self, path) -> None:
        """Write the store's entries, ids and decay clock to ``path``.

        A service name or label holding a comma or a line break raises
        ``ValueError`` naming the field: the row could not be read back.
        """
        lines = [
            f"{_SNAPSHOT_MAGIC} dimension={self.dimension} next_id={self._next_id} "
            f"last_decay={self._last_decay!r}"
        ]
        for service, table in sorted(self._tables.items()):
            _check_snapshot_text("service names", service)
            for entry_id in sorted(table.entries):
                e = table.entries[entry_id]
                _check_snapshot_text("labels", e.output.label)
                values = ",".join(repr(v) for v in e.features.values)
                lines.append(
                    f"{service},{e.id},{e.frequency},{e.inserted_at!r},"
                    f"{e.last_used_at!r},{e.output.label},{e.output.output_size!r},"
                    f"{values}"
                )
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(
        cls,
        path,
        settings: StoreSettings = StoreSettings(),
        lsh: LshSettings = LshSettings(),
        seed: int = 0,
    ) -> "ReuseStore":
        """Rebuild a store from a snapshot under the given settings and seed.

        The feature dimension, the next id to hand out and the decay clock
        come from the header.  A malformed header or row raises
        ``ValueError`` naming its line, and a service with more entries than
        ``settings.capacity`` raises one naming the service.
        """
        with open(path, encoding="utf-8", newline="\n") as fh:
            dim, next_id, last_decay = _parse_header(fh.readline().removesuffix("\n"))
            store = cls(dim, settings, lsh, seed)
            store._next_id, store._last_decay = next_id, last_decay
            seen: set[int] = set()  # ids are unique across the whole store
            for lineno, raw in enumerate(fh, start=2):
                line = raw.removesuffix("\n")
                if not line:
                    continue
                try:
                    entry = _parse_entry(line.split(","))
                    if entry.features.dimension != dim:
                        raise ValueError(
                            f"expected {dim} feature values, "
                            f"got {entry.features.dimension}"
                        )
                    if entry.id in seen:
                        raise ValueError(f"duplicate entry id {entry.id}")
                    if entry.id >= next_id:
                        raise ValueError(
                            f"entry id {entry.id} is not below "
                            f"the header's next_id {next_id}"
                        )
                    store._table(entry.service).admit(entry)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
                seen.add(entry.id)
        capacity = settings.capacity
        for service, table in store._tables.items():
            if capacity is not None and len(table.entries) > capacity:
                raise ValueError(
                    f"service {service!r} holds {len(table.entries)} entries, "
                    f"more than the capacity {capacity}"
                )
        return store


def _check_snapshot_text(field_name: str, text: str) -> None:
    if "," in text or "\n" in text:
        raise ValueError(f"{field_name} must not contain commas or line breaks")


def _parse_header(line: str) -> tuple[int, int, float]:
    """``(dimension, next_id, last_decay)`` from a snapshot's header (line 1)."""
    magic, *pairs = line.split(" ")
    fields = dict(pair.partition("=")[::2] for pair in pairs)
    try:
        if magic == _SNAPSHOT_MAGIC and fields.keys() == _HEADER_FIELDS:
            dim, next_id = int(fields["dimension"]), int(fields["next_id"])
            last_decay = float(fields["last_decay"])
            require_finite("last_decay", last_decay)
            if dim >= 1 and next_id >= 0:
                return dim, next_id, last_decay
    except ValueError:
        pass
    raise ValueError(f"line 1: malformed snapshot header {line!r}")


def _parse_entry(parts: list[str]) -> ReuseEntry:
    """One snapshot row, already split on commas, as an entry."""
    if len(parts) < 8:
        raise ValueError("too few fields")
    service, raw_id, raw_freq, inserted, used, label, size = parts[:7]
    entry_id, frequency = int(raw_id), int(raw_freq)
    if entry_id < 0:
        raise ValueError(f"entry id must be >= 0, got {entry_id}")
    if frequency < 0:
        raise ValueError(f"frequency must be >= 0, got {frequency}")
    inserted_at, last_used_at, output_size = float(inserted), float(used), float(size)
    require_finite("inserted_at", inserted_at)
    require_finite("last_used_at", last_used_at)
    require_finite("output_size", output_size)
    return ReuseEntry(
        id=entry_id,
        service=service,
        features=FeatureVector(parts[7:]),
        output=ResultPayload(label=label, output_size=output_size),
        frequency=frequency,
        inserted_at=inserted_at,
        last_used_at=last_used_at,
    )
