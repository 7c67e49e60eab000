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
already checked finite and held as a read-only float64 array; the index
checks only its shape and converts nothing.

Vectors are hashed by feature block, not one at a time.  Each vector is a
row of a read-only matrix, its block: ``tasks_from_columns`` makes its whole
feature matrix the block of every vector it builds, and the constructor
makes a block of one row.  The index keeps one key cache: the last block
``signature`` read, held weakly, and a list with one entry per row of it,
that row's keys or None.  The first ``signature`` of a row of that block
hashes the row's whole chunk and writes the keys of every row of it into
the list; every later call for a row of the chunk reads them back, so the
place that follows a lookup reuses the lookup's keys.  Chunks are hashed
lazily: a run over ten tasks of a large block hashes only the chunks those
ten lie in.  A call for a row of another block starts a fresh list, so an
index that alternates between two blocks hashes a chunk again at each
switch (the sign guard below keeps those keys the same); a run's tasks are
one block, so no run does.  A task list dropped while its store lives
frees its block; the list goes at the index's next change of block or with
the index.

Reads (``signature``, ``query``, ``candidate_ids``) write only that cache,
so they may run concurrently: the cache is one tuple, replaced whole, and
two readers that fill one chunk write the same keys.  ``insert``/``remove``
need exclusive access.

A chunk is as many rows as keep its product to ``_CHUNK_MULADDS`` (2^17)
multiply-adds, 64 rows at the default 8x8 planes and dimension 32, and at
least one.  OpenBLAS runs a dgemm of at most 65536x4 multiply-adds on the
calling thread; a product over a whole block of thousands of rows wakes its
worker threads and is slower.  A chunk of one row (a vector the
constructor built, or the last row of a block) is hashed by ``_project``,
one matrix-vector product; a chunk of two or more rows by ``_hash_chunk``.

A chunk's matrix product rounds differently from ``_project``'s
matrix-vector product, so a row takes its keys from the chunk only where
the two must agree in sign.  Each computed inner product of a plane ``a``
and a row ``x`` of dimension ``d`` lies within ``gamma_d * |a|.|x|`` of the
exact one, in any summation order, with or without fused multiply-adds,
where ``gamma_d = d*u / (1 - d*u)`` and ``u = 2^-53`` (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., 2002, section 3.1), and
``|a|.|x| <= ||a|| ||x|| = ||x||`` for a unit plane.  The two products
therefore differ by at most ``2 gamma_d ||x||``, and where every product of
the chunk exceeds that in magnitude, each has the sign of the matching
``_project`` product, which is non-zero.  The margin carries a relative
slack of 2^-10 that covers the rounding of ``||x||``, of the planes' unit
norms and of the margin itself, and the absolute error of products that
underflow: the row's squared norm must lie in [2^-1000, 2^1000], so no
partial sum overflows and the margin dwarfs ``d * 2^-1074``.  Every other
row, with a product inside the margin or a norm outside that range, is
hashed by ``_project``.  So a key never depends on the chunk a row lies in.

Stored vectors are copied into rows of one matrix that doubles when full,
and rows freed by ``remove`` are reused.  Each entry's row and keys are kept
from its insert, so a removal hashes nothing.  Each bucket is an
``array.array("q")`` of the rows that hold its entries, as native int64s;
as buckets hold rows, not ids, an entry id may be a Python int of any
size.  A query joins the addressed buckets' bytes and gathers its
candidates' rows with one copy, building no union.  A row held by several
addressed buckets is listed once for each of them and ranked once per
listing at the same distance, so the duplicates change neither the winner
nor its distance.  Ids are read only to name the winner, the smallest id
among the rows at the smallest distance.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional
from weakref import ref

import numpy as np

from .core import FeatureVector, require_dimension, require_int

INITIAL_ROWS = 64
# the most multiply-adds one chunk product may take (see the module docstring)
_CHUNK_MULADDS = 2**17

# the relative slack of the sign guard, and the squared norms it accepts
_GUARD_SLACK = 2.0**-10
_GUARD_NORM2 = (2.0**-1000, 2.0**1000)

# bit j of a bucket key weighs 2^j; a table's key has at most 62 bits
_BIT_WEIGHTS = 1 << np.arange(62, dtype=np.int64)
_BIT_WEIGHTS.setflags(write=False)

# what an unaddressed bucket contributes to a candidate set
_NO_BUCKET = b""


def _no_block() -> None:
    """The block of a signature memo that matches no block."""


@dataclass(frozen=True)
class LshSettings:
    """Index shape (the ``lsh.`` config section)."""

    num_tables: int = 8
    bits_per_table: int = 8

    def __post_init__(self) -> None:
        require_int("num_tables", self.num_tables, 1)
        require_int("bits_per_table", self.bits_per_table)
        if not 1 <= self.bits_per_table <= 62:
            raise ValueError("bits_per_table must be in [1, 62]")


class LshIndex:
    """In-memory LSH index mapping entry ids to feature vectors."""

    def __init__(self, settings: LshSettings, dimension: int, seed: int):
        require_int("dimension", dimension, 1)
        tables, bits = settings.num_tables, settings.bits_per_table
        rng = np.random.default_rng(seed)
        planes = rng.standard_normal((tables, bits, dimension))
        # each plane's norm as ``np.linalg.norm(planes, axis=2,
        # keepdims=True)`` computes it for real input, minus its Python layer
        planes /= np.sqrt(np.add.reduce(planes * planes, axis=2, keepdims=True))
        self.settings = settings
        self.dimension = dimension
        self.hyperplanes = planes
        self._key_shape = (tables, bits)
        self._proj = planes.reshape(-1, dimension)
        self._bit_weights = _BIT_WEIGHTS[:bits]
        self._chunk_rows = max(1, _CHUNK_MULADDS // self._proj.size)
        # a chunk product within 2 gamma_d ||x|| of zero may differ in sign
        # from _project's; past 2^-20 the slack no longer covers d*u terms
        du = dimension * 2.0**-53
        self._margin = 2 * du / (1 - du) * (1 + _GUARD_SLACK) if du < 2.0**-20 else math.inf
        # each id maps to its row and keys, and ``_id_of_row`` names the id
        # each row in use holds (see the module docstring)
        self._tables: list[dict[int, array]] = [{} for _ in range(tables)]
        self._matrix = np.empty((INITIAL_ROWS, dimension))
        self._free_rows: list[int] = []
        self._keys_of: dict[int, tuple[int, tuple[int, ...]]] = {}
        self._id_of_row: list[int] = []
        # the last block ``signature`` read, held weakly, and its key list
        self._last: tuple[Callable[[], Optional[np.ndarray]], list] = (_no_block, [])

    def __len__(self) -> int:
        return len(self._keys_of)

    def _project(self, arr: np.ndarray) -> tuple[int, ...]:
        bits = (self._proj @ arr) >= 0.0
        return tuple((bits.reshape(self._key_shape) @ self._bit_weights).tolist())

    def _hash_chunk(self, rows: np.ndarray) -> list[tuple[int, ...]]:
        """The keys ``_project`` gives each of two or more rows, from one product.

        A row whose products do not all clear the sign guard, or whose
        squared norm lies outside the guarded range, is hashed by
        ``_project``.
        """
        products = rows @ self._proj.T
        norm2 = np.einsum("ij,ij->i", rows, rows)
        low, high = _GUARD_NORM2
        exact = (norm2 >= low) & (norm2 <= high)
        exact &= np.abs(products).min(axis=1) > np.sqrt(norm2) * self._margin
        bits = (products >= 0.0).reshape(len(rows), *self._key_shape)
        keys = list(map(tuple, (bits @ self._bit_weights).tolist()))
        for i in np.flatnonzero(~exact).tolist():
            keys[i] = self._project(rows[i])
        return keys

    def signature(self, v: FeatureVector) -> tuple[int, ...]:
        """Per-table bucket keys of one vector; key i addresses table i.

        The keys of the vector's chunk of its block are computed at the
        first call for a row of the chunk, and read back from the memo while
        the block is the one the last call read.
        """
        block = v._block
        last_block, keys = self._last
        if last_block() is not block:
            require_dimension(v, self.dimension)  # every row of the block has v's shape
            keys = [None] * len(block)
            # one tuple, so a concurrent reader sees a block with its own keys
            self._last = (ref(block), keys)
        row = v._row
        found = keys[row]
        if found is None:
            size = self._chunk_rows
            start = row - row % size
            rows = block[start : start + size]
            if len(rows) == 1:
                keys[start] = self._project(rows[0])
            else:
                keys[start : start + size] = self._hash_chunk(rows)
            found = keys[row]
        return found

    def insert(self, entry_id: int, v: FeatureVector) -> None:
        if entry_id in self._keys_of:
            raise ValueError(f"entry id {entry_id} already present")
        keys = self.signature(v)  # v's shape is checked where its keys are computed
        if self._free_rows:
            row = self._free_rows.pop()
            self._id_of_row[row] = entry_id
        else:
            row = len(self._keys_of)  # every row below is in use
            if row == len(self._matrix):
                grown = np.empty((2 * row, self.dimension))
                grown[:row] = self._matrix
                self._matrix = grown
            self._id_of_row.append(entry_id)
        self._matrix[row] = v._array
        self._keys_of[entry_id] = (row, keys)
        for table, key in zip(self._tables, keys):
            bucket = table.get(key)
            if bucket is None:
                table[key] = array("q", (row,))
            else:
                bucket.append(row)

    def remove(self, entry_id: int) -> None:
        found = self._keys_of.pop(entry_id, None)
        if found is None:
            raise KeyError(f"unknown entry id {entry_id}")
        row, keys = found
        for table, key in zip(self._tables, keys):
            bucket = table[key]
            if len(bucket) == 1:
                del table[key]
            else:
                bucket.remove(row)
        self._free_rows.append(row)

    def candidate_ids(self, q: FeatureVector) -> np.ndarray:
        """The rows of ``_matrix`` that the buckets addressed by the query hold.

        A read-only int64 array, in table order, that lists a row once for
        each addressed bucket holding it.
        """
        packed = b"".join(map(dict.get, self._tables, self.signature(q), repeat(_NO_BUCKET)))
        return np.frombuffer(packed, np.int64)

    def query(self, q: FeatureVector) -> list[tuple[int, float]]:
        """The nearest candidate from the addressed buckets.

        Returns ``[(entry_id, euclidean distance)]`` for the candidate at the
        smallest distance (ties go to the smallest id), or ``[]`` when no
        addressed bucket holds a candidate.
        """
        rows = self.candidate_ids(q)
        if not len(rows):
            return []
        # in place, but the same elementwise steps (hence the same floats) as
        # sqrt(((stacked - q) ** 2).sum(axis=1)): ``ndarray.sum`` is
        # ``np.add.reduce``; ``signature`` checked q's shape
        diff = self._matrix.take(rows, axis=0)
        diff -= q._array
        diff *= diff
        dists = np.add.reduce(diff, axis=1)
        np.sqrt(dists, out=dists)
        best = dists.argmin()
        dist = dists[best]
        # the smallest id among the rows at that distance: usually one row,
        # listed once for each addressed bucket that holds it
        best_id = min(map(self._id_of_row.__getitem__, rows[dists == dist].tolist()))
        return [(best_id, float(dist))]
