import copy
import gc
import math
import pickle
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reusesim import (
    CostParams,
    DimensionMismatch,
    FeatureVector,
    LshIndex,
    LshSettings,
    Mode,
    ReuseStore,
    WorkloadSpec,
    generate,
    simulate,
)
from reusesim.core import tasks_from_columns
from reusesim.lsh import INITIAL_ROWS


def collision_rate(theta, bits, builds, tables, d=8, seed0=0):
    """Per-table key collision frequency for two unit vectors at a given angle.

    Each table within a build has independent hyperplanes, so a build with
    ``tables`` tables contributes that many trials.
    """
    u = np.zeros(d)
    u[0] = 1.0
    w = np.zeros(d)
    w[0] = math.cos(theta)
    w[1] = math.sin(theta)
    u, w = FeatureVector(u), FeatureVector(w)
    hits = 0
    for b in range(builds):
        idx = LshIndex(LshSettings(num_tables=tables, bits_per_table=bits), d, seed0 + b)
        ku = idx.signature(u)
        kw = idx.signature(w)
        hits += sum(a == b2 for a, b2 in zip(ku, kw))
    return hits / (builds * tables)


def test_build_deterministic():
    p = LshSettings(num_tables=4, bits_per_table=6)
    a, b = LshIndex(p, 16, 99), LshIndex(p, 16, 99)
    assert np.array_equal(a.hyperplanes, b.hyperplanes)


def test_build_seed_sensitivity():
    a = LshIndex(LshSettings(num_tables=4, bits_per_table=6), 16, 1)
    b = LshIndex(LshSettings(num_tables=4, bits_per_table=6), 16, 2)
    assert not np.array_equal(a.hyperplanes, b.hyperplanes)


@pytest.mark.parametrize(
    "tables,bits,dimension,seed",
    [(1, 1, 1, 0), (1, 1, 2, 0), (8, 8, 32, 42), (3, 62, 5, 7), (16, 4, 300, 2**62)],
)
def test_hyperplanes_are_the_draws_over_their_linalg_norms(tables, bits, dimension, seed):
    # the index normalises with the expression np.linalg.norm evaluates for
    # real input; a numpy whose norm computes otherwise fails here
    planes = np.random.default_rng(seed).standard_normal((tables, bits, dimension))
    expected = planes / np.linalg.norm(planes, axis=2, keepdims=True)
    idx = LshIndex(LshSettings(tables, bits), dimension, seed)
    assert idx.hyperplanes.tobytes() == expected.tobytes()
    assert idx._bit_weights.tolist() == [1 << j for j in range(bits)]


def test_build_minimal_shape():
    idx = LshIndex(LshSettings(num_tables=1, bits_per_table=1), 2, 0)
    assert idx.hyperplanes.shape == (1, 1, 2)
    assert np.linalg.norm(idx.hyperplanes[0, 0]) == pytest.approx(1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        LshSettings(num_tables=0)
    with pytest.raises(ValueError):
        LshSettings(bits_per_table=63)
    for field in ("num_tables", "bits_per_table"):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got 2.5$"):
            LshSettings(**{field: 2.5})
    # a numpy integer is an integer
    assert LshSettings(np.int64(2), np.int64(8)) == LshSettings(2, 8)
    with pytest.raises(ValueError, match="^dimension must be >= 1"):
        LshIndex(LshSettings(), 0, 0)


@pytest.mark.parametrize("dimension", [2.5, 2.0, "4", None])
def test_index_dimension_must_be_an_integer(dimension):
    with pytest.raises(ValueError, match="^dimension must be an integer, got "):
        LshIndex(LshSettings(), dimension, 0)


def test_signature_deterministic():
    idx = LshIndex(LshSettings(num_tables=3, bits_per_table=5), 8, 7)
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(8)
        assert idx.signature(FeatureVector(v)) == idx.signature(FeatureVector(v))


def test_signature_sign_symmetry():
    idx = LshIndex(LshSettings(num_tables=1, bits_per_table=1), 4, 3)
    h = idx.hyperplanes[0, 0]
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.standard_normal(4)
        if abs(float(h @ v)) < 1e-12:
            continue
        assert idx.signature(FeatureVector(v)) != idx.signature(FeatureVector(-v))


def test_signature_dimension_mismatch():
    idx = LshIndex(LshSettings(), 8, 0)
    with pytest.raises(DimensionMismatch):
        idx.signature(FeatureVector((1.0, 2.0)))


def test_collision_probability_matches_law():
    # (1 - 0.1/pi)^8 = 0.772; >= 1e5 seeded per-table trials
    rate = collision_rate(0.1, bits=8, builds=100, tables=1000, seed0=500)
    assert rate == pytest.approx((1 - 0.1 / math.pi) ** 8, abs=0.02)


def test_collision_rate_monotone_in_angle():
    angles = [0.05, 0.2, 0.5, 1.0]
    rates = [collision_rate(a, bits=6, builds=20, tables=500, seed0=80) for a in angles]
    assert all(r1 >= r2 for r1, r2 in zip(rates, rates[1:]))


def _rows_in(bucket):
    """The matrix rows one bucket holds, in its order."""
    return np.frombuffer(bucket, np.int64).tolist()


def _bucket_refs(idx):
    """How many rows the index's buckets hold, summed over its tables."""
    return sum(len(_rows_in(bucket)) for table in idx._tables for bucket in table.values())


def _candidate_ids(idx, q):
    """The ids whose rows ``candidate_ids`` lists for ``q``."""
    return {idx._id_of_row[row] for row in idx.candidate_ids(q).tolist()}


def _filled_index(n=50, d=16, seed=5):
    idx = LshIndex(LshSettings(num_tables=4, bits_per_table=6), d, seed)
    rng = np.random.default_rng(seed)
    vectors = [FeatureVector(row) for row in rng.standard_normal((n, d))]
    for i in range(n):
        idx.insert(i, vectors[i])
    return idx, vectors


def test_insert_then_query_self():
    idx, vectors = _filled_index()
    for i in (0, 17, 42):
        assert idx.query(vectors[i]) == [(i, 0.0)]


def test_insert_counts_bucket_references():
    idx, _ = _filled_index(n=50)
    assert _bucket_refs(idx) == 4 * 50
    assert len(idx) == 50


def test_identical_vectors_share_buckets():
    idx = LshIndex(LshSettings(num_tables=6, bits_per_table=8), 8, 11)
    v = FeatureVector(np.arange(8, dtype=float))
    idx.insert(1, v)
    idx.insert(2, FeatureVector(v.values))
    assert _candidate_ids(idx, v) == {1, 2}


def test_insert_duplicate_id_rejected():
    idx = LshIndex(LshSettings(), 4, 0)
    idx.insert(0, FeatureVector([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        idx.insert(0, FeatureVector([0.0, 1.0, 0.0, 0.0]))


def test_query_empty_index():
    idx = LshIndex(LshSettings(), 4, 0)
    assert idx.query(FeatureVector([1.0, 0.0, 0.0, 0.0])) == []


def test_query_near_duplicates_rank_first():
    # 1000 random vectors plus 10 near-duplicates of the query; a brute-force
    # scan is the oracle for the nearest pair.
    d, sigma = 32, 0.01
    rng = np.random.default_rng(123)
    idx = LshIndex(LshSettings(num_tables=8, bits_per_table=8), d, 321)
    g = rng.standard_normal((1000, d))
    randoms = 10.0 * g / np.linalg.norm(g, axis=1, keepdims=True)
    q = 10.0 * rng.standard_normal(d)
    q /= np.linalg.norm(q) / 10.0
    near = q + sigma * rng.standard_normal((10, d))
    for i in range(1000):
        idx.insert(i, FeatureVector(randoms[i]))
    for j in range(10):
        idx.insert(1000 + j, FeatureVector(near[j]))
    [(got_id, got_dist)] = idx.query(FeatureVector(q))
    dists = [(float(np.linalg.norm(randoms[i] - q)), i) for i in range(1000)]
    dists += [(float(np.linalg.norm(near[j] - q)), 1000 + j) for j in range(10)]
    expect_dist, expect_id = min(dists)
    assert got_id == expect_id and got_id in range(1000, 1010)
    assert got_dist == pytest.approx(expect_dist)


def test_query_orders_by_distance_then_id():
    idx = LshIndex(LshSettings(num_tables=2, bits_per_table=2), 2, 9)
    idx.insert(5, FeatureVector([1.0, 1.0]))
    idx.insert(3, FeatureVector([1.0, 1.0]))
    assert idx.query(FeatureVector([1.0, 1.0])) == [(3, 0.0)]


def test_remove():
    idx, vectors = _filled_index(n=10)
    idx.remove(3)
    assert len(idx) == 9
    assert all(3 not in _candidate_ids(idx, vectors[k]) for k in range(10))
    for i in range(10):
        if i != 3:
            idx.remove(i)
    assert len(idx) == 0
    assert _bucket_refs(idx) == 0


def test_remove_unknown_id():
    idx = LshIndex(LshSettings(), 4, 0)
    with pytest.raises(KeyError):
        idx.remove(12)


def test_candidate_set_is_exact_bucket_union():
    # exhaustive recall oracle on <= 500 entries: every entry sharing at
    # least one per-table key with the query is a candidate, nothing else,
    # listed once per shared key.
    d = 12
    idx = LshIndex(LshSettings(num_tables=5, bits_per_table=4), d, 77)
    rng = np.random.default_rng(77)
    vectors = [FeatureVector(row) for row in rng.standard_normal((500, d))]
    for i in range(500):
        idx.insert(i, vectors[i])
    for qi in range(0, 500, 50):
        q = vectors[qi]
        kq = idx.signature(q)
        shared = {
            i: sum(a == b for a, b in zip(idx.signature(vectors[i]), kq))
            for i in range(500)
        }
        assert _candidate_ids(idx, q) == {i for i, n in shared.items() if n}
        assert len(idx.candidate_ids(q)) == sum(shared.values())


def test_candidate_scan_scaling_reported():
    # report the measured growth exponent of candidate-scan work on clustered
    # data (many small clusters); no fixed bound is asserted.
    d = 16
    rng = np.random.default_rng(2024)
    sizes = [500, 2000, 8000]
    means = []
    for n in sizes:
        idx = LshIndex(LshSettings(num_tables=8, bits_per_table=12), d, 2024)
        n_clusters = n // 10
        g = rng.standard_normal((n_clusters, d))
        bases = 10.0 * g / np.linalg.norm(g, axis=1, keepdims=True)
        members = rng.integers(0, n_clusters, size=n)
        pts = bases[members] + 0.05 * rng.standard_normal((n, d))
        for i in range(n):
            idx.insert(i, FeatureVector(pts[i]))
        probes = bases[rng.integers(0, n_clusters, size=100)]
        means.append(
            sum(len(idx.candidate_ids(FeatureVector(p))) for p in probes) / 100.0
        )
    exponent = math.log(means[-1] / means[0]) / math.log(sizes[-1] / sizes[0])
    print(f"candidate-scan scaling exponent ~= {exponent:.3f} (means {means})")
    assert math.isfinite(exponent)


def _row(idx, entry_id):
    """The row of ``idx``'s matrix that holds ``entry_id``.

    The row must name the id, and every bucket the id's keys address must
    hold the row once.
    """
    row, keys = idx._keys_of[entry_id]
    assert idx._id_of_row[row] == entry_id
    assert all(_rows_in(table[key]).count(row) == 1 for table, key in zip(idx._tables, keys))
    return row


def test_removed_rows_are_reused():
    idx, vectors = _filled_index(n=10)
    rows = idx._matrix.shape[0]
    freed = {_row(idx, 3), _row(idx, 7)}
    idx.remove(3)
    idx.remove(7)
    idx.insert(100, vectors[3])
    idx.insert(101, vectors[7])
    assert {_row(idx, 100), _row(idx, 101)} == freed
    assert idx._matrix.shape[0] == rows
    assert idx.query(vectors[3]) == [(100, 0.0)]
    assert idx.query(vectors[7]) == [(101, 0.0)]


def test_matrix_grows_past_initial_rows():
    n = INITIAL_ROWS + 1
    idx, vectors = _filled_index(n=n)
    assert idx._matrix.shape[0] == 2 * INITIAL_ROWS
    assert len(idx) == n
    for i in (0, INITIAL_ROWS - 1, INITIAL_ROWS):
        assert idx.query(vectors[i]) == [(i, 0.0)]


def test_query_distances_match_stacked_brute_force():
    idx, vectors = _filled_index(n=200, seed=8)
    for i in range(0, 200, 2):
        idx.remove(i)  # leave holes so rows and ids no longer line up
    shifted = {i: FeatureVector(np.add(vectors[i].values, 0.01)) for i in range(60)}
    for i in range(0, 60, 2):
        idx.insert(1000 + i, shifted[i])
    stored = {i: vectors[i] for i in range(1, 200, 2)}
    stored.update({1000 + i: shifted[i] for i in range(0, 60, 2)})
    rng = np.random.default_rng(9)
    randoms = [FeatureVector(row) for row in rng.standard_normal((20, 16))]
    for q in vectors[::7] + randoms:
        ids = sorted(_candidate_ids(idx, q))
        stacked = np.stack([np.asarray(stored[i].values) for i in ids])
        dists = np.sqrt(((stacked - np.asarray(q.values)) ** 2).sum(axis=1)).tolist()
        expected = min(zip(ids, dists), key=lambda p: (p[1], p[0]))
        assert idx.query(q) == [expected]


@pytest.fixture
def signature_calls(monkeypatch):
    """Records one item per call of ``LshIndex.signature``."""
    calls = []
    signature = LshIndex.signature

    def counting(self, v):
        calls.append(1)
        return signature(self, v)

    monkeypatch.setattr(LshIndex, "signature", counting)
    return calls


def test_remove_does_not_recompute_signature(signature_calls):
    idx, _ = _filled_index(n=20)
    signature_calls.clear()
    for i in range(20):
        idx.remove(i)
    assert signature_calls == []
    assert _bucket_refs(idx) == 0


@pytest.mark.parametrize("make", [FeatureVector], ids=["FeatureVector"])
def test_insert_and_query_hash_once(signature_calls, make):
    idx = LshIndex(LshSettings(num_tables=4, bits_per_table=6), 3, 5)
    v = make([1.0, 2.0, 3.0])
    idx.insert(0, v)
    assert len(signature_calls) == 1
    assert idx.query(v) == [(0, 0.0)]
    assert len(signature_calls) == 2


@pytest.mark.parametrize("make", [list, np.array], ids=["list", "ndarray"])
def test_insert_takes_feature_vectors_only(make):
    # a raw vector would skip FeatureVector's finiteness check
    idx = LshIndex(LshSettings(num_tables=1, bits_per_table=1), 2, 0)
    with pytest.raises(AttributeError):
        idx.insert(0, make([1.0, 0.0]))
    assert len(idx) == 0 and _bucket_refs(idx) == 0


@pytest.fixture
def projections(monkeypatch):
    """Records the index of each hash ``LshIndex`` computes: each product of
    a chunk of two or more rows, and each ``_project`` of one row (a chunk of
    one row, or a row of a larger chunk that the sign guard sends there)."""
    calls = []

    def counting(method):
        def count(self, rows):
            calls.append(self)
            return method(self, rows)

        return count

    for name in ("_project", "_hash_chunk"):
        monkeypatch.setattr(LshIndex, name, counting(getattr(LshIndex, name)))
    return calls


MEMO_LSH = LshSettings(num_tables=4, bits_per_table=6)


def test_each_vector_is_projected_once_per_index(projections, signature_calls):
    idx, _ = _filled_index(n=20, d=3)
    projections.clear()
    signature_calls.clear()
    v = FeatureVector([1.0, 2.0, 3.0])
    idx.query(v)  # a lookup's hash
    idx.insert(100, v)  # the place after it reuses the lookup's keys
    assert idx.query(v) == [(100, 0.0)]
    idx.candidate_ids(v)
    assert projections == [idx]
    assert len(signature_calls) == 4  # the calls themselves are unchanged


def test_a_place_reuses_its_lookups_keys(projections):
    store = ReuseStore(3, seed=1)
    first, second = FeatureVector([1.0, 2.0, 3.0]), FeatureVector([60.0, 0.0, 0.0])
    store.place("s", first, "a", 0.0)  # an empty table needs no lookup
    assert store.lookup("s", second, 1.0).kind.value == "miss"
    store.place("s", second, "b", 1.0)
    assert len(projections) == 2
    assert store.lookup("s", FeatureVector([60.0, 0.0, 0.0]), 2.0).entry.id == 1


def test_two_indexes_keep_their_own_keys(projections):
    a, b = LshIndex(MEMO_LSH, 3, 1), LshIndex(MEMO_LSH, 3, 2)
    values = [0.3, -1.2, 0.7]
    keys_a = a.signature(FeatureVector(values))
    keys_b = b.signature(FeatureVector(values))
    assert keys_a != keys_b
    v = FeatureVector(values)
    for _ in range(2):
        assert a.signature(v) == keys_a
        assert b.signature(v) == keys_b


def test_keys_are_kept_for_the_index_object_not_an_equal_one(projections):
    v = FeatureVector([0.3, -1.2, 0.7])
    first = LshIndex(MEMO_LSH, 3, 1)
    keys = first.signature(v)
    twin = LshIndex(MEMO_LSH, 3, 1)  # the same hyperplanes in another object
    assert twin.signature(v) == keys
    assert projections == [first, twin]
    del first, twin
    gc.collect()
    fresh = LshIndex(MEMO_LSH, 3, 1)
    assert fresh.signature(v) == keys
    assert projections[-1] is fresh and len(projections) == 3


@pytest.mark.parametrize(
    "clone",
    [
        lambda v: pickle.loads(pickle.dumps(v)),
        lambda v: pickle.loads(pickle.dumps(copy.copy(v))),
        copy.copy,
        copy.deepcopy,
    ],
    ids=["pickled", "copied-then-pickled", "copied", "deep-copied"],
)
def test_a_copied_or_pickled_vector_is_rehashed(projections, clone):
    idx = LshIndex(MEMO_LSH, 3, 1)
    v = FeatureVector([0.3, -1.2, 0.7])
    keys = idx.signature(v)
    # the cached keys, and the index they name, stay out of the pickle
    assert pickle.dumps(v) == pickle.dumps(FeatureVector([0.3, -1.2, 0.7]))
    w = clone(v)
    assert (w, hash(w), repr(w)) == (v, hash(v), repr(v))
    fresh = LshIndex(MEMO_LSH, 3, 1)
    assert fresh.signature(w) == keys
    assert projections == [idx, fresh]
    assert idx.signature(v) == keys and len(projections) == 2


def _columns_block(features):
    """The tasks ``tasks_from_columns`` builds over one feature matrix."""
    n, one = len(features), np.ones(len(features))
    return tasks_from_columns("s", ["o"] * n, features, one, one, one, np.zeros(n))


# 128 x 32 planes at dimension 4: 2^17 / 2^14 = 8 rows per chunk
CHUNK8_LSH = LshSettings(num_tables=128, bits_per_table=32)


def test_vectors_from_columns_and_the_constructor_behave_alike(projections):
    rows = np.random.default_rng(3).standard_normal((20, 4))
    fast = [task.features for task in _columns_block(rows)]
    built = [FeatureVector(row) for row in rows.tolist()]
    for f, b in zip(fast, built):
        assert (f, hash(f), repr(f)) == (b, hash(b), repr(b))
        assert pickle.loads(pickle.dumps(f)) == b
    # the rows of one read-only matrix, and a matrix of one row each
    assert all(f._block is fast[0]._block and f._array.base is f._block for f in fast)
    assert all(b._block.shape == (1, 4) and np.shares_memory(b._block, b._array) for b in built)
    assert not any(v._block.flags.writeable for v in fast + built)
    idx, twin = LshIndex(CHUNK8_LSH, 4, 1), LshIndex(CHUNK8_LSH, 4, 1)
    assert idx._chunk_rows == 8
    expected = [twin._project(f._array) for f in fast]
    for _ in range(2):
        assert [idx.signature(f) for f in fast] == [idx.signature(b) for b in built] == expected
    # one hash per chunk each time the index comes back to a block: rows 0-7,
    # 8-15 and 16-19 of the task block, and each constructed vector, a block
    # of one row, in each of the two rounds
    assert projections.count(idx) == 2 * (3 + 20)


def test_a_one_row_chunk_is_hashed_by_project_alone(monkeypatch):
    # a constructed vector is a block of one row, and the last row of a
    # 9-row block is a chunk of one row at 8 rows per chunk
    idx, twin = LshIndex(CHUNK8_LSH, 4, 1), LshIndex(CHUNK8_LSH, 4, 1)
    rows = np.random.default_rng(6).standard_normal((9, 4))
    built = FeatureVector(rows[0].tolist())
    last = _columns_block(rows)[8].features
    hash_chunk = LshIndex._hash_chunk

    def two_or_more_rows(self, chunk):
        if len(chunk) < 2:
            raise AssertionError("a one-row chunk reached _hash_chunk")
        return hash_chunk(self, chunk)

    monkeypatch.setattr(LshIndex, "_hash_chunk", two_or_more_rows)
    assert idx.signature(built) == twin._project(built._array)
    assert idx.signature(last) == twin._project(last._array)


def test_a_block_shared_by_two_indexes_keeps_each_indexs_keys(projections):
    rows = np.random.default_rng(4).standard_normal((20, 4))
    vectors = [task.features for task in _columns_block(rows)]
    a, b = LshIndex(CHUNK8_LSH, 4, 1), LshIndex(CHUNK8_LSH, 4, 2)
    expected = {idx: [idx._project(v._array) for v in vectors] for idx in (a, b)}
    assert expected[a] != expected[b]
    projections.clear()
    for idx in (a, b, a, b):
        assert [idx.signature(v) for v in vectors] == expected[idx]
    # each index keeps its own memo of the block, so neither hashes it again
    assert projections == [a] * 3 + [b] * 3
    block = vectors[0]._block
    assert all(v._block is block for v in vectors)
    assert {idx: idx._last[1] for idx in (a, b)} == expected
    assert a._last[0]() is block and b._last[0]() is block


def test_a_block_keeps_no_index_alive():
    rows = np.random.default_rng(5).standard_normal((20, 4))
    vectors = [task.features for task in _columns_block(rows)]
    idx = LshIndex(CHUNK8_LSH, 4, 1)
    keys = [idx.signature(v) for v in vectors]
    # the block is a plain array: nothing of the index can hang off it
    block = vectors[0]._block
    assert all(v._block is block for v in vectors) and type(block) is np.ndarray
    index_alive = weakref.ref(idx)
    del idx
    assert index_alive() is None  # by reference counting, with no cycle to collect
    assert [LshIndex(CHUNK8_LSH, 4, 1).signature(v) for v in vectors] == keys


def test_a_dropped_task_list_frees_its_block_while_the_store_lives():
    spec = WorkloadSpec(num_tasks=50, seed=3)
    store = ReuseStore(32, seed=3)
    simulate(generate(spec), Mode.EDGE_WITH_REUSE, CostParams(), store=store)
    (index,) = (table.index for table in store._tables.values())

    def lookups(tasks):
        return [store.lookup(t.service, t.features, 100.0).entry.id for t in tasks]

    # a second list with the same rows: only looked up, so no entry keeps a
    # row of it, and the index's signature memo last read its block
    looked_up = generate(spec)
    block = weakref.ref(looked_up[0].features._block)
    ids = lookups(looked_up)
    assert index._last[0]() is block()
    del looked_up
    assert block() is None  # by reference counting, with no cycle to collect
    assert index._last[0]() is None
    assert lookups(generate(spec)) == ids


def test_a_slice_of_a_block_hashes_only_the_chunks_it_lies_in(projections):
    tasks = generate(WorkloadSpec(num_tasks=10_000, seed=3))
    store = ReuseStore(32, seed=3)
    # 64 rows per chunk at the default planes: tasks 5115-5124 lie in the
    # chunks of rows 5056-5119 and 5120-5183
    simulate(tasks[5115:5125], Mode.EDGE_WITH_REUSE, CostParams(), store=store)
    (index,) = set(projections)
    assert index._chunk_rows == 64 and len(projections) == 2
    block, keys = index._last
    assert block() is tasks[0].features._block
    assert [row for row, k in enumerate(keys) if k is not None] == list(range(5056, 5184))


# powers of two around the guard's norm range [2^-500, 2^500] and the ends
# of the float range; no coordinate of a standard normal draw here reaches
# 2^5, so even 2^1018 keeps every row finite
SCALES = (-1074, -1040, -1000, -600, -502, -500, -498, -40, 40, 498, 500, 502, 1000, 1018)
ROW_KINDS = ("random", "plane", "nudged", "zero", "subnormal")


@st.composite
def guarded_blocks(draw):
    """An index and a feature matrix whose rows test the chunk's sign guard.

    Rows lie on one of the index's hyperplanes (``x - (a.x) a``), with or
    without a nudge of a few ulps, or are random; any row may be scaled by a
    power of two, toward subnormal values or norms near 2^-1000 and 2^1000.
    Some rows are exactly zero, or entirely subnormal.  Up to 62 x 62 planes
    at dimension 100 give chunks of one row.  Hypothesis picks the shapes
    and the kinds and scales in play; a seeded generator picks them per row.
    """
    dimension = draw(st.integers(1, 100))
    tables, bits = draw(st.integers(1, 62)), draw(st.integers(1, 62))
    lsh = LshSettings(num_tables=tables, bits_per_table=bits)
    idx = LshIndex(lsh, dimension, draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, unique=True))
    scales = draw(st.lists(st.sampled_from(SCALES), unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((draw(st.integers(1, 200)), dimension))
    planes = idx._proj
    for x in rows:
        kind = kinds[rng.integers(len(kinds))]
        if kind in ("plane", "nudged"):
            a = planes[rng.integers(len(planes))]
            x -= (a @ x) * a
            if kind == "nudged":
                j = rng.integers(dimension)
                toward = np.inf if rng.random() < 0.5 else -np.inf
                for _ in range(rng.integers(1, 5)):
                    x[j] = np.nextafter(x[j], toward)
        elif kind == "zero":
            x[:] = 0.0
        elif kind == "subnormal":
            x[:] = rng.integers(-3, 4, dimension) * 5e-324
        if scales and rng.random() < 0.5:
            x *= 2.0 ** scales[rng.integers(len(scales))]
    return idx, rows


@settings(max_examples=100, deadline=None)
@given(case=guarded_blocks())
def test_block_keys_equal_each_rows_own_projection(case):
    idx, rows = case
    vectors = [task.features for task in _columns_block(rows)]
    for v in vectors:
        assert idx.signature(v) == idx._project(v._array)


def test_query_breaks_ties_between_ids_outside_int64():
    # ids are Python ints of any size; a tie goes to the smallest
    idx = LshIndex(LshSettings(), 2, 0)
    ids = [2**63, -(2**63) - 1, 2**70]
    for entry_id in ids:
        idx.insert(entry_id, FeatureVector([1.0, 0.0]))
    for expected in sorted(ids):
        assert idx.query(FeatureVector([1.0, 0.0])) == [(expected, 0.0)]
        idx.remove(expected)
    assert len(idx) == 0 and _bucket_refs(idx) == 0


class ReferenceLsh:
    """The read path written with Python sets and sorts, as the reference.

    It shares the hyperplanes of the index under test, hashes through a
    reshape and an int64 cast, unions per-table sets, stacks the candidates
    in ascending id order and sorts all of the pairs by (distance, id).
    """

    def __init__(self, index: LshIndex):
        self.settings = index.settings
        self.planes = index.hyperplanes.reshape(-1, index.dimension)
        self.weights = 1 << np.arange(index.settings.bits_per_table, dtype=np.int64)
        self.tables = [{} for _ in range(index.settings.num_tables)]
        self.vectors = {}

    def signature(self, v):
        bits = (self.planes @ np.asarray(v.values, dtype=np.float64)) >= 0.0
        keys = bits.reshape(
            self.settings.num_tables, self.settings.bits_per_table
        ).astype(np.int64) @ self.weights
        return tuple(int(k) for k in keys)

    def insert(self, entry_id, v):
        self.vectors[entry_id] = v
        for table, key in zip(self.tables, self.signature(v)):
            table.setdefault(key, set()).add(entry_id)

    def remove(self, entry_id):
        v = self.vectors.pop(entry_id)
        for table, key in zip(self.tables, self.signature(v)):
            table[key].discard(entry_id)

    def candidate_ids(self, q):
        ids = set()
        for table, key in zip(self.tables, self.signature(q)):
            ids |= table.get(key, set())
        return frozenset(ids)

    def query(self, q):
        ids = sorted(self.candidate_ids(q))
        if not ids:
            return []
        stacked = np.stack([np.asarray(self.vectors[i].values) for i in ids])
        dists = np.sqrt(((stacked - np.asarray(q.values)) ** 2).sum(axis=1))
        return sorted(zip(ids, dists.tolist()), key=lambda p: (p[1], p[0]))


@st.composite
def lsh_scenarios(draw):
    dimension = draw(st.sampled_from([1, 2, 3, 16]))
    lsh = LshSettings(
        num_tables=draw(st.integers(1, 4)),
        bits_per_table=draw(st.sampled_from([1, 8, 62])),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.standard_normal((draw(st.integers(1, 6)), dimension))
    # rows rounded to halves give exact ties between different vectors (and
    # repeated rows between equal ones); the others make the summation
    # order show in the last bit of a distance
    halves = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    pool[halves] = np.round(2 * pool[halves]) / 2
    pool = [FeatureVector(row) for row in pool.tolist()]
    vector = st.integers(0, len(pool) - 1)
    # ids whose set iteration order is not ascending, so ties must be ranked,
    # and one beyond int64
    entry_id = st.sampled_from([-3, 0, 1, 8, 9, 16, 33, 2**62 + 3, 2**70])
    operations = st.one_of(
        st.tuples(st.just("insert"), entry_id, vector),
        st.tuples(st.just("remove"), entry_id),
        st.tuples(st.just("query"), vector),
    )
    return (lsh, dimension, seed), pool, draw(st.lists(operations, max_size=40))


@settings(max_examples=300, deadline=None)
@given(scenario=lsh_scenarios())
def test_read_path_matches_reference(scenario):
    index_args, pool, operations = scenario
    idx = LshIndex(*index_args)
    ref = ReferenceLsh(idx)
    for op, *args in operations:
        if op == "insert":
            entry_id, v = args[0], pool[args[1]]
            if entry_id in ref.vectors:
                with pytest.raises(ValueError):
                    idx.insert(entry_id, v)
            else:
                idx.insert(entry_id, v)
                ref.insert(entry_id, v)
        elif op == "remove":
            if args[0] in ref.vectors:
                idx.remove(args[0])
                ref.remove(args[0])
            else:
                with pytest.raises(KeyError):
                    idx.remove(args[0])
        else:
            q = pool[args[0]]
            assert idx.signature(q) == ref.signature(q)
            assert _candidate_ids(idx, q) == ref.candidate_ids(q)
            # each candidate's row, once per addressed bucket that holds it
            memberships = [
                _row(idx, i)
                for table, key in zip(ref.tables, ref.signature(q))
                for i in table.get(key, ())
            ]
            assert sorted(idx.candidate_ids(q).tolist()) == sorted(memberships)
            assert idx.query(q) == ref.query(q)[:1]


def test_a_smaller_id_wins_a_tie_with_an_entry_in_every_addressed_bucket():
    # ``far`` shares every key with the query and is inserted first, so its
    # row leads the candidate rows and is listed once per table; ``near``
    # lies at the same distance (exactly 1) under a smaller id and is
    # listed in some of the addressed buckets but not the first
    q, far, near = (FeatureVector(v) for v in ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0]))
    lsh = LshSettings(num_tables=4, bits_per_table=1)
    for seed in range(1000):
        idx = LshIndex(lsh, 2, seed)
        shared = [a == b for a, b in zip(idx.signature(near), idx.signature(q))]
        if idx.signature(far) == idx.signature(q) and any(shared) and not shared[0]:
            break
    else:
        pytest.fail("no seed puts the entries in the buckets this test needs")
    idx.insert(9, far)
    idx.insert(2, near)
    rows = idx.candidate_ids(q).tolist()
    assert rows[0] == _row(idx, 9) and rows.count(_row(idx, 9)) == 4
    assert 0 < rows.count(_row(idx, 2)) < 4
    assert idx.query(q) == [(2, 1.0)]


def test_rows_one_ulp_apart_in_squared_distance_tie_at_their_distance():
    # the squared distances of the two rows from the query differ by one ulp,
    # yet both square roots round to one float: a tie, which the smaller id
    # wins although its row lies a little farther in squared distance
    q = FeatureVector([0.0, 0.0])
    nearer = [1.0148888202713704, 0.9662060253252891]
    farther = [nearer[0], math.nextafter(nearer[1], math.inf)]
    d2 = [np.add.reduce(np.square(row)) for row in (nearer, farther)]
    assert math.nextafter(d2[0], math.inf) == d2[1]
    assert math.sqrt(d2[0]) == math.sqrt(d2[1])
    idx = LshIndex(LshSettings(num_tables=1, bits_per_table=1), 2, 1)
    idx.insert(2, FeatureVector(nearer))
    idx.insert(1, FeatureVector(farther))
    assert _candidate_ids(idx, q) == {1, 2}
    ref = ReferenceLsh(idx)
    ref.insert(2, FeatureVector(nearer))
    ref.insert(1, FeatureVector(farther))
    assert idx.query(q) == ref.query(q)[:1] == [(1, math.sqrt(d2[0]))]


def test_the_largest_finite_squared_distance_ranks_without_a_warning():
    # the largest float whose square is finite: its squared distance from the
    # origin lies one ulp below the largest float, and ranking it must not
    # scale it further
    far = 1.3407807929942596e154
    beyond = math.nextafter(far, math.inf)
    assert math.isfinite(far * far) and math.isinf(beyond * beyond)
    idx = LshIndex(LshSettings(num_tables=1, bits_per_table=1), 1, 1)
    idx.insert(1, FeatureVector([far]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert idx.query(FeatureVector([0.0])) == [(1, far)]


def test_a_freed_row_leaves_every_bucket_and_is_reused():
    idx, vectors = _filled_index(n=30)
    ref = ReferenceLsh(idx)
    for i, v in enumerate(vectors):
        ref.insert(i, v)
    freed = _row(idx, 3)
    idx.remove(3)
    ref.remove(3)
    assert all(
        freed not in _rows_in(bucket) for table in idx._tables for bucket in table.values()
    )
    moved = FeatureVector(np.negative(vectors[3].values))  # other keys than id 3's
    assert idx.signature(moved) != idx.signature(vectors[3])
    idx.insert(100, moved)
    ref.insert(100, moved)
    assert _row(idx, 100) == freed
    holders = [
        key for table in idx._tables for key, bucket in table.items() if freed in _rows_in(bucket)
    ]
    assert holders == list(idx.signature(moved))
    for q in [*vectors, moved]:
        assert _candidate_ids(idx, q) == ref.candidate_ids(q)
        assert idx.query(q) == ref.query(q)[:1]
