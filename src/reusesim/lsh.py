"""Locality-sensitive similarity index over real-valued feature vectors.

The hash family is sign-of-random-projection: each of ``num_tables`` tables
hashes a vector to a ``bits_per_table``-bit bucket key, one bit per random
unit hyperplane (bit j is 1 iff the projection onto hyperplane j is >= 0,
so the boundary case is deterministic).  Two unit vectors at angle theta
agree on one bit with probability 1 - theta/pi, hence collide on a whole
k-bit key with probability (1 - theta/pi)^k.  Multiple tables raise the
chance that near neighbours share at least one bucket.

Hyperplanes come from ``numpy.random.default_rng(seed)`` (PCG64), whose
stream is stable across platforms, so given settings, dimension and seed
always build the same index.

Every vector the index takes is a ``FeatureVector``, whose values are
already checked finite; the index checks only the dimension.  The vector
remembers the bucket keys the last index to hash it computed, so each
vector is projected once per index: the place that follows a lookup reuses
the lookup's keys.  Reads (``signature``, ``query``, ``candidate_ids``)
therefore write that derived, idempotent cache on a value type; they may
still run concurrently, since two reads of one vector write the same keys.
``insert``/``remove`` need exclusive access.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

import numpy as np

from .core import DimensionMismatch, FeatureVector

INITIAL_ROWS = 64

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_EMPTY: frozenset[int] = frozenset()


@dataclass(frozen=True)
class LshSettings:
    """Index shape (the ``lsh.`` config section)."""

    num_tables: int = 8
    bits_per_table: int = 8

    def __post_init__(self) -> None:
        if self.num_tables < 1:
            raise ValueError("num_tables must be >= 1")
        if not 1 <= self.bits_per_table <= 62:
            raise ValueError("bits_per_table must be in [1, 62]")


class LshIndex:
    """In-memory LSH index mapping entry ids to feature vectors."""

    def __init__(self, settings: LshSettings, dimension: int, seed: int):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        tables, bits = settings.num_tables, settings.bits_per_table
        rng = np.random.default_rng(seed)
        planes = rng.standard_normal((tables, bits, dimension))
        planes /= np.linalg.norm(planes, axis=2, keepdims=True)
        self.settings = settings
        self.dimension = dimension
        self.hyperplanes = planes
        self._shape = (dimension,)
        self._key_shape = (tables, bits)
        self._proj = planes.reshape(-1, dimension)
        self._bit_weights = 1 << np.arange(bits, dtype=np.int64)
        self._tables: list[dict[int, set[int]]] = [{} for _ in range(tables)]
        # Stored vectors are rows of one matrix that doubles when full; rows
        # freed by ``remove`` are reused.  Each id maps to its row and to the
        # per-table keys computed at insert.
        self._matrix = np.empty((INITIAL_ROWS, dimension))
        self._free_rows: list[int] = []
        self._row_of: dict[int, int] = {}
        self._keys_of: dict[int, tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self._row_of)

    def __contains__(self, entry_id: int) -> bool:
        return entry_id in self._row_of

    def _coerce(self, v: FeatureVector) -> np.ndarray:
        """``v``'s values as a float64 array of shape ``(dimension,)``."""
        arr = np.asarray(v.values, dtype=np.float64)
        if arr.shape != self._shape:
            raise DimensionMismatch(
                f"expected a vector of dimension {self.dimension}, "
                f"got shape {arr.shape}"
            )
        return arr

    def _project(self, arr: np.ndarray) -> tuple[int, ...]:
        bits = (self._proj @ arr) >= 0.0
        return tuple((bits.reshape(self._key_shape) @ self._bit_weights).tolist())

    def signature(self, v: FeatureVector) -> tuple[int, ...]:
        """Per-table bucket keys of one vector; key i addresses table i.

        The vector keeps the keys with a reference to this index, and a
        later call of this index returns them without projecting.
        """
        memo = v._lsh_keys
        if memo is not None and memo[0] is self:
            return memo[1]
        keys = self._project(self._coerce(v))
        object.__setattr__(v, "_lsh_keys", (self, keys))
        return keys

    def insert(self, entry_id: int, v: FeatureVector) -> None:
        if entry_id in self._row_of:
            raise ValueError(f"entry id {entry_id} already present")
        if not _INT64_MIN <= entry_id <= _INT64_MAX:  # query ranks ids as int64
            raise ValueError(f"entry id {entry_id} is outside the int64 range")
        arr = self._coerce(v)
        keys = self.signature(v)
        for table, key in zip(self._tables, keys):
            table.setdefault(key, set()).add(entry_id)
        if self._free_rows:
            row = self._free_rows.pop()
        else:
            row = len(self._row_of)
            if row == len(self._matrix):
                grown = np.empty((2 * row, self.dimension))
                grown[:row] = self._matrix
                self._matrix = grown
        self._matrix[row] = arr
        self._row_of[entry_id] = row
        self._keys_of[entry_id] = keys

    def remove(self, entry_id: int) -> None:
        if entry_id not in self._row_of:
            raise KeyError(f"unknown entry id {entry_id}")
        self._free_rows.append(self._row_of.pop(entry_id))
        for table, key in zip(self._tables, self._keys_of.pop(entry_id)):
            bucket = table[key]
            bucket.discard(entry_id)
            if not bucket:
                del table[key]

    def candidate_ids(self, q: FeatureVector) -> frozenset[int]:
        """Union of the buckets addressed by the query's signature."""
        keys = self.signature(q)
        return _EMPTY.union(*map(dict.get, self._tables, keys, repeat(_EMPTY)))

    def query(self, q: FeatureVector) -> list[tuple[int, float]]:
        """The nearest candidate from the addressed buckets.

        Returns ``[(entry_id, euclidean distance)]`` for the candidate at the
        smallest distance (ties go to the smallest id), or ``[]`` when no
        addressed bucket holds a candidate.
        """
        cands = self.candidate_ids(q)
        n = len(cands)
        if not n:
            return []
        arr = self._coerce(q)
        ids = np.fromiter(cands, np.int64, n)
        rows = np.fromiter(map(self._row_of.__getitem__, cands), np.intp, n)
        # in place, but the same elementwise steps (hence the same floats) as
        # sqrt(((stacked - arr) ** 2).sum(axis=1))
        diff = self._matrix.take(rows, axis=0)
        diff -= arr
        diff *= diff
        dists = diff.sum(axis=1)
        np.sqrt(dists, out=dists)
        best = dists.argmin()
        tied = dists == dists[best]
        best_id = ids[tied].min() if np.count_nonzero(tied) > 1 else ids[best]
        return [(int(best_id), float(dists[best]))]

    def bucket_sizes(self) -> Iterable[int]:
        for table in self._tables:
            for bucket in table.values():
                yield len(bucket)
