"""Reuse store: previously computed results keyed by input similarity.

Each service gets its own LSH index plus an entry map.  A lookup classifies
the nearest stored input as a full hit (distance <= tau_full), a partial hit
(distance <= tau_partial, covering ``partial_fraction`` of the task), or a
miss.  Hits bump the entry's reuse frequency; when a service's table is at
capacity the least-frequently-used entry is evicted (ties: least recently
used, then smallest id).

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
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .core import FeatureVector, require_finite
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


class ReuseStore:
    """Per-service similarity-indexed cache of computed results."""

    def __init__(
        self,
        dimension: int,
        settings: StoreSettings = StoreSettings(),
        lsh: LshSettings = LshSettings(),
        seed: int = 0,
    ):
        self.dimension = dimension
        self.settings = settings
        self.lsh = lsh
        self.seed = seed
        self._entries: dict[str, dict[int, ReuseEntry]] = {}
        self._indexes: dict[str, LshIndex] = {}
        # service -> lazy LFU heap, built at the service's first eviction
        self._heaps: dict[str, list[tuple[int, float, int]]] = {}
        self._hits: Counter[str] = Counter()
        self._misses: Counter[str] = Counter()
        self._next_id = 0
        self._last_decay = 0.0
        self.eviction_log: list[tuple[str, int]] = []

    @property
    def capacity(self) -> Optional[int]:
        return self.settings.capacity

    def _index_for(self, service: str) -> LshIndex:
        index = self._indexes.get(service)
        if index is None:
            index = LshIndex(
                self.lsh, self.dimension, _service_seed(self.seed, service)
            )
            self._indexes[service] = index
        return index

    def _maybe_decay(self, now: float) -> None:
        """Halve every frequency once per whole interval since the last decay.

        ``k`` halvings are applied as one shift, so the cost does not depend
        on how much simulated time has passed.
        """
        interval = self.settings.decay_interval
        if interval is None:
            return
        k = (now - self._last_decay) // interval
        if k < 1:
            return
        for table in self._entries.values():
            for entry in table.values():
                # halving past f.bit_length() leaves 0 (or -1) unchanged
                entry.frequency >>= int(min(k, entry.frequency.bit_length()))
        self._last_decay += k * interval
        self._heaps.clear()

    def _push_key(self, service: str, entry: ReuseEntry) -> None:
        """Record an entry's new LFU key in the service's heap, if it has one."""
        heap = self._heaps.get(service)
        if heap is None:
            return
        if len(heap) > 2 * len(self._entries[service]) + 16:
            del self._heaps[service]  # mostly stale: rebuild at the next eviction
        else:
            heapq.heappush(heap, _lfu_key(entry))

    def _build_heap(self, service: str, table: dict[int, ReuseEntry]) -> list:
        heap = [_lfu_key(e) for e in table.values()]
        heapq.heapify(heap)
        self._heaps[service] = heap
        return heap

    def lookup(self, service: str, q: FeatureVector, now: float) -> LookupResult:
        """Classify the nearest stored input for ``service`` against the thresholds.

        A full or partial hit increments the matched entry's frequency and
        stamps its last use; a miss (including an unknown service) leaves the
        store untouched apart from the miss counter.
        """
        if not service:
            raise ValueError("service name must be non-empty")
        require_finite("now", now)
        self._maybe_decay(now)
        table = self._entries.get(service)
        if not table:
            self._misses[service] += 1
            return MISS
        nearest = self._index_for(service).query(q)
        if not nearest:
            self._misses[service] += 1
            return MISS
        ((best_id, best_dist),) = nearest
        if best_dist > self.settings.tau_partial:
            self._misses[service] += 1
            return MISS
        entry = table[best_id]
        entry.frequency += 1
        entry.last_used_at = now
        self._push_key(service, entry)
        self._hits[service] += 1
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

        Returns the new entry's id.
        """
        require_finite("now", now)
        self._maybe_decay(now)
        table = self._entries.setdefault(service, {})
        capacity = self.settings.capacity
        if capacity is not None and len(table) >= capacity:
            self.evict_lfu(service)
        entry_id = self._next_id
        self._next_id += 1
        entry = ReuseEntry(
            id=entry_id,
            service=service,
            features=features,
            output=output,
            frequency=0,
            inserted_at=now,
            last_used_at=now,
        )
        table[entry_id] = entry
        self._push_key(service, entry)
        self._index_for(service).insert(entry_id, features)
        return entry_id

    def evict_lfu(self, service: str) -> int:
        """Remove and return the id of the least-frequently-used entry.

        The victim is ``min((frequency, last_used_at, id))`` over the
        service's entries, found by popping stale keys off the lazy heap.
        """
        table = self._entries.get(service)
        if not table:
            raise KeyError(f"no entries stored for service {service!r}")
        heap = self._heaps.get(service)
        while True:
            if not heap:  # no heap yet, or only stale keys were left
                heap = self._build_heap(service, table)
            key = heapq.heappop(heap)
            victim = table.get(key[2])
            if victim is not None and _lfu_key(victim) == key:
                break
        del table[victim.id]
        self._index_for(service).remove(victim.id)
        self.eviction_log.append((service, victim.id))
        return victim.id

    def entry_count(self, service: str) -> int:
        return len(self._entries.get(service, {}))

    def entries(self, service: str) -> list[ReuseEntry]:
        return list(self._entries.get(service, {}).values())

    def stats(self) -> dict[str, ServiceStats]:
        services = set(self._entries) | set(self._hits) | set(self._misses)
        return {
            s: ServiceStats(
                entries=len(self._entries.get(s, {})),
                hits=self._hits[s],
                misses=self._misses[s],
            )
            for s in sorted(services)
        }

    # -- snapshot/restore -------------------------------------------------
    #
    # Flat text format: a header line
    #   #reusesim-snapshot dimension=<d> next_id=<n> last_decay=<t>
    # then one entry per line:
    #   service,id,frequency,inserted_at,last_used_at,label,output_size,v1,...,vd
    # Hit/miss counters are not part of the snapshot.  Files without
    # ``last_decay=`` in the header, or without a header, predate the
    # ``output_size`` column: their rows load with an output size of 0 and a
    # decay clock of 0.

    def save(self, path) -> None:
        lines = [
            f"{_SNAPSHOT_MAGIC} dimension={self.dimension} next_id={self._next_id} "
            f"last_decay={self._last_decay!r}"
        ]
        for service in sorted(self._entries):
            if "," in service:
                raise ValueError("service names must not contain commas")
            for entry_id in sorted(self._entries[service]):
                e = self._entries[service][entry_id]
                if "," in e.output.label:
                    raise ValueError("labels must not contain commas")
                values = ",".join(repr(v) for v in e.features.values)
                lines.append(
                    f"{service},{e.id},{e.frequency},{e.inserted_at!r},"
                    f"{e.last_used_at!r},{e.output.label},{e.output.output_size!r},"
                    f"{values}"
                )
        with open(path, "w", encoding="utf-8") as fh:
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
        come from the header.  A file without one (as written before the
        header existed) takes the dimension from its first row (1 when it has
        none) and continues ids after the largest stored one, so it cannot
        know about ids evicted before it was saved.  A malformed header or
        row raises ``ValueError`` naming its line, and a service with more
        entries than ``settings.capacity`` raises one naming the service.
        """
        dim: Optional[int] = None
        next_id: Optional[int] = None
        last_decay: Optional[float] = None
        entries: list[ReuseEntry] = []
        seen: set[tuple[str, int]] = set()
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if lineno == 1 and line.startswith(_SNAPSHOT_MAGIC):
                    dim, next_id, last_decay = _parse_header(line)
                    continue
                if not line:
                    continue
                try:
                    entry = _parse_entry(line.split(","), sized=last_decay is not None)
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
                if dim is None:
                    dim = entry.features.dimension
                elif entry.features.dimension != dim:
                    raise ValueError(
                        f"line {lineno}: expected {dim} "
                        f"feature values, got {entry.features.dimension}"
                    )
                if (entry.service, entry.id) in seen:
                    raise ValueError(f"line {lineno}: duplicate entry id {entry.id}")
                if next_id is not None and entry.id >= next_id:
                    raise ValueError(
                        f"line {lineno}: entry id {entry.id} is not below "
                        f"the header's next_id {next_id}"
                    )
                seen.add((entry.service, entry.id))
                entries.append(entry)
        if settings.capacity is not None:
            for service, count in Counter(e.service for e in entries).items():
                if count > settings.capacity:
                    raise ValueError(
                        f"service {service!r} holds {count} entries, more than "
                        f"the capacity {settings.capacity}"
                    )
        store = cls(1 if dim is None else dim, settings, lsh, seed)
        for entry in entries:
            store._entries.setdefault(entry.service, {})[entry.id] = entry
            store._index_for(entry.service).insert(entry.id, entry.features)
            store._next_id = max(store._next_id, entry.id + 1)
        if next_id is not None:
            store._next_id = next_id
        if last_decay is not None:
            store._last_decay = last_decay
        return store


def _parse_header(line: str) -> tuple[int, int, Optional[float]]:
    """``(dimension, next_id, last_decay)`` from a snapshot's header (line 1).

    ``last_decay`` is None for a header written before it was recorded.
    """
    fields = dict(field.partition("=")[::2] for field in line.split()[1:])
    try:
        dim, next_id = int(fields["dimension"]), int(fields["next_id"])
        raw_decay = fields.get("last_decay")
        last_decay = None if raw_decay is None else float(raw_decay)
        require_finite("last_decay", last_decay)
    except (KeyError, ValueError):
        dim = next_id = -1
    if dim < 1 or next_id < 0:
        raise ValueError(f"line 1: malformed snapshot header {line!r}")
    return dim, next_id, last_decay


def _parse_entry(parts: list[str], sized: bool) -> ReuseEntry:
    """One snapshot row, already split on commas, as an entry.

    ``sized`` rows carry the output size after the label.
    """
    first_value = 7 if sized else 6
    if len(parts) <= first_value:
        raise ValueError("too few fields")
    service, entry_id, freq, inserted, used, label = parts[:6]
    inserted_at, last_used_at = float(inserted), float(used)
    output_size = float(parts[6]) if sized else 0.0
    require_finite("inserted_at", inserted_at)
    require_finite("last_used_at", last_used_at)
    require_finite("output_size", output_size)
    return ReuseEntry(
        id=int(entry_id),
        service=service,
        features=FeatureVector(tuple(float(v) for v in parts[first_value:])),
        output=ResultPayload(label=label, output_size=output_size),
        frequency=int(freq),
        inserted_at=inserted_at,
        last_used_at=last_used_at,
    )
