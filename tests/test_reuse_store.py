import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reusesim import (
    DimensionMismatch,
    FeatureVector,
    LookupKind,
    LshSettings,
    ReuseStore,
    StoreSettings,
)
from reusesim.reuse_store import ServiceStats


def axis_vector(i, d=4, spacing=10.0):
    """Pairwise distances are multiples of ``spacing``: lookups of a stored
    vector are exact (distance 0), everything else is far beyond tau_partial."""
    v = [0.0] * d
    v[0] = spacing * (i + 1)
    return FeatureVector(v)


SMALL_LSH = LshSettings(num_tables=2, bits_per_table=4)


def small_store(capacity=3, seed=0, **kwargs):
    return ReuseStore(4, StoreSettings(capacity=capacity, **kwargs), SMALL_LSH, seed)


@pytest.mark.parametrize("capacity", [None, 1, 500])
def test_capacity_is_the_settings_capacity(capacity):
    assert small_store(capacity).capacity == capacity


def test_lookup_on_empty_store_is_miss():
    store = small_store()
    res = store.lookup("svc", axis_vector(0), now=1.0)
    assert res.kind is LookupKind.MISS and res.entry is None
    assert store.stats()["svc"].misses == 1


def test_exact_match_is_full_and_bumps_frequency():
    store = small_store()
    store.place("svc", axis_vector(0), "a", now=0.0)
    res = store.lookup("svc", axis_vector(0), now=2.0)
    assert res.kind is LookupKind.FULL
    assert res.entry.frequency == 1
    assert res.entry.last_used_at == 2.0


def test_mid_distance_is_partial_with_remaining_fraction():
    store = ReuseStore(
        dimension=2,
        settings=StoreSettings(tau_full=1.0, tau_partial=5.0, partial_fraction=0.25),
        seed=1,
    )
    store.place("svc", FeatureVector((10.0, 0.0)), "a", now=0.0)
    res = store.lookup("svc", FeatureVector((13.0, 0.0)), now=1.0)  # distance 3
    assert res.kind is LookupKind.PARTIAL
    assert res.reused_fraction == 0.25
    assert res.entry.frequency == 1


def test_place_then_lookup_roundtrip():
    store = small_store()
    store.place("svc", axis_vector(7), "x", now=0.0)
    assert store.entry_count("svc") == 1
    assert store.lookup("svc", axis_vector(7), now=1.0).kind is LookupKind.FULL


def test_place_beyond_capacity_evicts_exactly_once():
    store = small_store(capacity=3)
    for i in range(4):
        store.place("svc", axis_vector(i), f"o{i}", now=float(i))
    assert store.entry_count("svc") == 3
    assert len(store.eviction_log) == 1


def test_evict_minimum_frequency():
    store = small_store(capacity=10)
    ids = {}
    for name, bumps in (("a", 5), ("b", 1), ("c", 3)):
        i = len(ids)
        ids[name] = store.place("svc", axis_vector(i), name, now=0.0)
        for k in range(bumps):
            store.lookup("svc", axis_vector(i), now=float(k + 1))
    assert store.evict_lfu("svc") == ids["b"]


def test_evict_ties_break_by_least_recent_use():
    store = small_store(capacity=10)
    id_a = store.place("svc", axis_vector(0), "a", now=0.0)
    id_b = store.place("svc", axis_vector(1), "b", now=0.0)
    store.lookup("svc", axis_vector(0), now=10.0)
    store.lookup("svc", axis_vector(0), now=10.5)
    store.lookup("svc", axis_vector(1), now=4.0)
    store.lookup("svc", axis_vector(1), now=4.5)
    assert store.evict_lfu("svc") == id_b


def test_evict_single_entry():
    store = small_store()
    only = store.place("svc", axis_vector(0), "a", now=0.0)
    assert store.evict_lfu("svc") == only
    assert store.entry_count("svc") == 0


def test_evict_empty_service_raises():
    store = small_store()
    with pytest.raises(KeyError):
        store.evict_lfu("svc")


def test_stats_counters():
    store = small_store()
    assert store.stats() == {}
    store.place("svc", axis_vector(0), "a", now=0.0)
    store.lookup("svc", axis_vector(0), now=1.0)
    s = store.stats()["svc"]
    assert (s.entries, s.hits, s.misses) == (1, 1, 0)
    store.lookup("other", axis_vector(1), now=2.0)
    assert store.stats()["other"].misses == 1


def test_unknown_service_is_miss_not_error():
    store = small_store()
    assert store.lookup("nope", axis_vector(0), now=0.0).kind is LookupKind.MISS


def test_lookup_requires_service_name():
    store = small_store()
    with pytest.raises(ValueError):
        store.lookup("", axis_vector(0), now=0.0)


def test_place_requires_service_name():
    store = small_store()
    with pytest.raises(ValueError, match="^service name must be non-empty$"):
        store.place("", axis_vector(0), "a", now=0.0)
    assert store.stats() == {}
    assert store.place("svc", axis_vector(0), "a", now=1.0) == 0


@pytest.mark.parametrize("stored", [0, 1], ids=["empty", "non-empty"])
def test_lookup_of_wrong_dimension_raises_and_counts_no_miss(stored):
    store = small_store()
    for i in range(stored):
        store.place("svc", axis_vector(i), "a", now=0.0)
    with pytest.raises(DimensionMismatch):
        store.lookup("svc", FeatureVector((1.0, 2.0)), now=1.0)
    assert store.stats() == ({"svc": ServiceStats(1, 0, 0)} if stored else {})


@pytest.mark.parametrize("op", ["lookup", "place"])
def test_call_of_wrong_dimension_changes_no_frequency(op):
    store = small_store()
    store.place("svc", axis_vector(0), "a", now=0.0)
    store.lookup("svc", axis_vector(0), now=0.5)
    wrong = FeatureVector((1.0, 2.0))
    with pytest.raises(DimensionMismatch):
        if op == "lookup":
            store.lookup("svc", wrong, now=5.0)
        else:
            store.place("svc", wrong, "b", now=5.0)
    assert [e.frequency for e in store.entries("svc")] == [1]


WRONG_DIMENSION = FeatureVector((1.0, 2.0))
BAD_DIMENSION = "^expected a vector of dimension 4,"
BAD_NAME = "^service name must be non-empty$"
BAD_NOW = "^now must be finite"

# (service, vector, now, error, message): an empty name and each other kind
# of refused call, then one that is bad in all three ways, where the
# dimension is checked first.  A bad ``now`` comes with an unseen service,
# whose table a late check would leave behind.
REFUSED_CALLS = [
    ("svc", WRONG_DIMENSION, 5.0, DimensionMismatch, BAD_DIMENSION),
    ("", axis_vector(1), 5.0, ValueError, BAD_NAME),
    ("new", axis_vector(1), float("nan"), ValueError, BAD_NOW),
    ("new", axis_vector(1), float("inf"), ValueError, BAD_NOW),
    ("", WRONG_DIMENSION, float("nan"), DimensionMismatch, BAD_DIMENSION),
]


@pytest.mark.parametrize("op", ["lookup", "place"])
def test_call_of_empty_service_name_changes_nothing(op):
    # at capacity, so a place that got past its checks would evict
    store = small_store(capacity=1)
    store.place("svc", axis_vector(0), "a", now=0.0)
    for now in (0.25, 0.5):
        store.lookup("svc", axis_vector(0), now)

    def state():
        frequencies = [e.frequency for e in store.entries("svc")]
        return store.stats(), frequencies, store.eviction_log[:]

    before = state()
    for service, v, now, error, message in REFUSED_CALLS:
        with pytest.raises(error, match=message):
            if op == "lookup":
                store.lookup(service, v, now)
            else:
                store.place(service, v, "b", now)
        assert state() == before
    # and no refused place consumed an id
    assert store.place("other", axis_vector(2), "c", now=0.75) == 1


@pytest.mark.parametrize("stored", [0, 1], ids=["empty", "non-empty"])
def test_place_of_wrong_dimension_raises_and_stores_nothing(stored):
    # at capacity, the check comes before the eviction that makes room
    store = small_store(capacity=1)
    for i in range(stored):
        store.place("svc", axis_vector(i), "a", now=0.0)
    with pytest.raises(DimensionMismatch):
        store.place("svc", FeatureVector((1.0, 2.0)), "b", now=1.0)
    assert store.stats() == ({"svc": ServiceStats(1, 0, 0)} if stored else {})
    assert [e.id for e in store.entries("svc")] == list(range(stored))
    assert store.eviction_log == []
    assert store.place("other", axis_vector(5), "c", now=2.0) == stored


# Calls that fail a quick comparison in ``_open``, with the exact errors of
# the full checks they then run: ``now`` non-finite as a float, a numpy
# float or an int too large for a float, a wrong dimension, an empty name,
# mixes of these, where the dimension comes first, then the name, and a
# ``now`` of None.
FALLBACK_REFUSALS = [
    ("new", axis_vector(1), float("inf"), ValueError, "now must be finite, got inf"),
    ("new", axis_vector(1), -float("inf"), ValueError, "now must be finite, got -inf"),
    ("new", axis_vector(1), np.float64("nan"), ValueError,
     f"now must be finite, got {np.float64('nan')!r}"),
    ("new", axis_vector(1), 10**400, ValueError,
     "now must be finite, got an int too large for a float"),
    ("svc", WRONG_DIMENSION, 5.0, DimensionMismatch,
     "expected a vector of dimension 4, got shape (2,)"),
    ("", axis_vector(1), 5.0, ValueError, "service name must be non-empty"),
    ("", axis_vector(1), np.float64("inf"), ValueError, "service name must be non-empty"),
    ("", WRONG_DIMENSION, 10**400, DimensionMismatch,
     "expected a vector of dimension 4, got shape (2,)"),
    ("new", axis_vector(1), None, ValueError, "now must be finite, got None"),
]


@pytest.mark.parametrize("op", ["lookup", "place"])
@pytest.mark.parametrize(
    "service,v,now,error,message",
    FALLBACK_REFUSALS,
    ids=["inf", "-inf", "np-nan", "int-10**400", "dimension", "name", "name-np-inf",
         "dimension-name-int", "none"],
)
def test_a_call_the_fast_check_refuses_fails_as_the_full_checks_do(
    op, service, v, now, error, message
):
    store = small_store(capacity=1)
    store.place("svc", axis_vector(0), "a", now=0.0)
    store.lookup("svc", axis_vector(0), now=0.5)

    def state():
        entries = [(e.id, e.frequency, e.last_used_at) for e in store.entries("svc")]
        return store.stats(), entries, store._next_id, store.eviction_log[:]

    before = state()
    with pytest.raises(error) as refused:
        if op == "lookup":
            store.lookup(service, v, now)
        else:
            store.place(service, v, "b", now)
    assert type(refused.value) is error and str(refused.value) == message
    assert state() == before


@pytest.mark.parametrize(
    "now", [5, np.float64(5.0), np.int64(5)], ids=["int", "np-float64", "np-int64"]
)
def test_a_finite_now_that_is_not_a_float_runs_as_its_float_does(now):
    def calls(now):
        store = small_store(capacity=2)
        store.place("svc", axis_vector(0), "a", now=0.0)
        store.place("svc", axis_vector(1), "b", now=1.0)
        store.lookup("svc", axis_vector(1), now=4.0)
        # a and b tie on frequency 1 after this hit, and b's last use, 4.0,
        # comes before now, so the place at now evicts b
        hit = store.lookup("svc", axis_vector(0), now)
        placed = store.place("svc", axis_vector(2), "c", now)
        entries = [(e.id, e.frequency, e.last_used_at) for e in store.entries("svc")]
        return hit.kind, placed, entries, store.stats(), store.eviction_log

    want = calls(5.0)
    assert calls(now) == want
    assert want[-1] == [("svc", 1)]


def _state_fingerprint(store, service):
    return tuple(
        sorted(
            (e.id, e.frequency, e.last_used_at, e.output)
            for e in store.entries(service)
        )
    )


def test_miss_does_not_mutate_state():
    store = small_store()
    store.place("svc", axis_vector(0), "a", now=0.0)
    store.lookup("svc", axis_vector(0), now=1.0)
    before = _state_fingerprint(store, "svc")
    assert store.lookup("svc", axis_vector(5), now=2.0).kind is LookupKind.MISS
    assert _state_fingerprint(store, "svc") == before


def test_capacity_invariant_under_random_ops():
    rng = random.Random(7)
    for trial in range(30):
        capacity = rng.randint(1, 6)
        store = small_store(capacity=capacity, seed=trial)
        placed = 0
        for step in range(60):
            if placed == 0 or rng.random() < 0.5:
                store.place("svc", axis_vector(placed), "x", float(step))
                placed += 1
            else:
                store.lookup("svc", axis_vector(rng.randrange(placed)), float(step))
            assert store.entry_count("svc") <= capacity


def test_eviction_sequence_matches_bruteforce_replay():
    # replay the same operation log (with observed hit ids) through a model
    # that picks evictees by full scan with the documented tie-breaks
    rng = random.Random(99)
    for trial in range(200):
        capacity = rng.randint(2, 5)
        store = small_store(capacity=capacity, seed=trial)
        model = {}
        model_evictions = []
        next_id = 0
        placed = []
        for step in range(40):
            now = float(step)
            if placed and rng.random() < 0.6:
                target = rng.choice(placed)
                res = store.lookup("svc", axis_vector(target), now)
                if res.kind is not LookupKind.MISS:
                    model[res.entry.id][0] += 1
                    model[res.entry.id][1] = now
            else:
                if len(model) >= capacity:
                    victim = min(model.values(), key=lambda e: (e[0], e[1], e[2]))
                    del model[victim[2]]
                    model_evictions.append(victim[2])
                store.place("svc", axis_vector(next_id), "x", now)
                model[next_id] = [0, now, next_id]
                placed.append(next_id)
                next_id += 1
        assert [eid for _, eid in store.eviction_log] == model_evictions


def test_frequency_conservation_on_live_entries():
    rng = random.Random(11)
    store = small_store(capacity=4, seed=11)
    bumps = {}
    placed = []
    for step in range(120):
        now = float(step)
        if placed and rng.random() < 0.6:
            res = store.lookup("svc", axis_vector(rng.choice(placed)), now)
            if res.kind is not LookupKind.MISS:
                bumps[res.entry.id] = bumps.get(res.entry.id, 0) + 1
        else:
            eid = store.place("svc", axis_vector(len(placed)), "x", now)
            placed.append(len(placed))
            bumps[eid] = 0
    live = store.entries("svc")
    assert sum(e.frequency for e in live) == sum(bumps[e.id] for e in live)


def test_constructor_validation():
    with pytest.raises(ValueError):
        StoreSettings(tau_full=2.0, tau_partial=1.0)
    with pytest.raises(ValueError):
        StoreSettings(partial_fraction=1.0)
    with pytest.raises(ValueError):
        StoreSettings(capacity=0)
    with pytest.raises(ValueError, match="^capacity must be an integer, got 2.5$"):
        StoreSettings(capacity=2.5)


def test_store_dimension_must_be_positive():
    with pytest.raises(ValueError, match="^dimension must be >= 1$"):
        ReuseStore(0)


@pytest.mark.parametrize("dimension", [2.5, 2.0, "4", None])
def test_store_dimension_must_be_an_integer(dimension):
    # refused at construction, naming the argument, not at the first place
    with pytest.raises(ValueError, match="^dimension must be an integer, got "):
        ReuseStore(dimension)


@pytest.mark.parametrize(
    "seed,message",
    [
        (2.5, "^seed must be an integer, got 2.5$"),
        ("1", "^seed must be an integer, got '1'$"),
        (None, "^seed must be an integer, got None$"),
        (-1, "^seed must be >= 0$"),
    ],
)
def test_store_seed_is_refused_at_construction_naming_it(seed, message):
    # refused before any table exists, not at the first place or lookup
    with pytest.raises(ValueError, match=message):
        ReuseStore(4, seed=seed)


@pytest.mark.parametrize(
    "value,field",
    [
        (value, field)
        for field in ("tau_full", "tau_partial", "partial_fraction")
        for value in (float("nan"), float("inf"), None)
    ],
)
def test_constructor_rejects_non_finite(value, field):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        StoreSettings(**{field: value})


_times = st.integers(0, 24).map(lambda t: t / 2.0)
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("place"), _times),
        # the vector placed this many placements ago: mostly hits
        st.tuples(st.just("lookup"), _times, st.integers(1, 8)),
        st.tuples(st.just("evict"), _times),
    ),
    max_size=120,
)


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.one_of(st.none(), st.integers(1, 5)),
    operations=_operations,
)
def test_heap_eviction_matches_full_scan_oracle(capacity, operations):
    """Replays random operations against a model that evicts by full scan.

    Times repeat and run backwards; lookups of a stored vector are exact full
    hits and every other pair of vectors is far apart, so the model knows
    which lookups hit without asking the store.
    """
    store = ReuseStore(4, StoreSettings(capacity=capacity), SMALL_LSH, 5)
    model = {}  # entry id -> [frequency, last_used_at, id]
    live_vector = {}  # vector index -> entry id
    expected = []
    placed = 0

    def model_evict():
        victim = min(model.values(), key=tuple)
        del model[victim[2]]
        del live_vector[next(v for v, i in live_vector.items() if i == victim[2])]
        expected.append(victim[2])

    for op, now, *arg in operations:
        if op == "place":
            if capacity is not None and len(model) >= capacity:
                model_evict()
            entry_id = store.place("svc", axis_vector(placed), "x", now)
            model[entry_id] = [0, now, entry_id]
            live_vector[placed] = entry_id
            placed += 1
        elif op == "lookup":
            target = placed - arg[0]
            res = store.lookup("svc", axis_vector(target), now)
            hit_id = live_vector.get(target)
            assert (res.entry.id if res.kind is not LookupKind.MISS else None) == hit_id
            if hit_id is not None:
                model[hit_id][0] += 1
                model[hit_id][1] = now
        else:
            if not model:
                with pytest.raises(KeyError):
                    store.evict_lfu("svc")
                continue
            model_evict()
            store.evict_lfu("svc")
        assert [eid for _, eid in store.eviction_log] == expected
        assert {e.id: e.frequency for e in store.entries("svc")} == {
            i: key[0] for i, key in model.items()
        }


def test_lfu_heap_stays_bounded_under_many_hits():
    store = small_store(capacity=3)
    for i in range(4):  # the fourth place evicts and builds the heap
        store.place("svc", axis_vector(i), "x", now=float(i))
    for step in range(1000):
        store.lookup("svc", axis_vector(1 + step % 3), now=10.0 + step)
        assert len(store._tables["svc"].heap or ()) <= 2 * 3 + 17
    live = store.entries("svc")
    victim = min(live, key=lambda e: (e.frequency, e.last_used_at, e.id))
    assert store.evict_lfu("svc") == victim.id


def test_place_of_a_rejected_vector_stores_nothing():
    store = small_store()
    with pytest.raises(DimensionMismatch):
        store.place("svc", FeatureVector((1.0, 2.0)), "a", now=0.0)
    assert store.entries("svc") == []
    assert store.place("svc", axis_vector(0), "b", now=1.0) == 0
