"""The per-task value types are slotted dataclasses that keep their contracts.

``Task``, ``TaskRecord``, ``Outcome``, ``LookupResult`` and ``ReuseEntry``
are made once or more per task, so they hold their fields in slots rather
than an instance ``__dict__``.  Slots must change nothing
else: the field order, ``==`` and ``hash``, ``dataclasses.replace``, pickling
and deep copies behave as for a plain dataclass.  A slot builder that
``core._slot_builder`` generates makes what the constructor makes, by type,
``repr`` and ``==``.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

import numpy as np
import pytest

from reusesim import (
    EdgeNode,
    FeatureVector,
    LookupKind,
    LookupResult,
    LshSettings,
    Mode,
    Outcome,
    OutcomeKind,
    ReuseEntry,
    ReuseStore,
    SimConfig,
    StoreSettings,
    Task,
    TaskRecord,
    WorkloadSpec,
    run,
)
from reusesim.core import EDGE_COMPUTE, _slot_builder

from conftest import make_task


def _entry():
    features = FeatureVector((1.0, -0.0))
    return ReuseEntry(3, features, "a", 2, 1.5)


# (class, a factory of equal instances, its fields in declaration order,
# a field to change with ``replace`` and its new value)
CASES = {
    "Task": (
        Task,
        lambda: make_task(values=(1.0, -0.0), arrival=0.25),
        ("id", "service", "object_label", "features", "input_size", "output_size",
         "complexity", "arrival_time"),
        ("arrival_time", 2.0),
    ),
    "TaskRecord": (
        TaskRecord,
        lambda: TaskRecord(7, "s", "a", "full_reuse", "edge", 0.0, 0.1, 0.3, 0.0, 0.001,
                           0.3, True),
        ("task_id", "service", "label", "outcome", "location", "arrival_s", "start_s",
         "finish_s", "waiting_s", "computation_s", "completion_s", "correct"),
        ("completion_s", 0.5),
    ),
    "Outcome": (
        Outcome,
        lambda: Outcome(OutcomeKind.PARTIAL_REUSE, 0.5, _entry()),
        ("kind", "reused_fraction", "matched_entry"),
        ("reused_fraction", 0.25),
    ),
    "LookupResult": (
        LookupResult,
        lambda: LookupResult(LookupKind.FULL, _entry(), 1.0),
        ("kind", "entry", "reused_fraction"),
        ("kind", LookupKind.PARTIAL),
    ),
    "ReuseEntry": (
        ReuseEntry,
        _entry,
        ("id", "features", "output", "frequency", "last_used_at"),
        ("frequency", 5),
    ),
}
FROZEN = {"Task", "TaskRecord", "Outcome", "LookupResult"}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return request.param, *CASES[request.param]


def _values(obj, names):
    return tuple(getattr(obj, name) for name in names)


def test_fields_are_slots_in_declaration_order(case):
    name, cls, make, names, _ = case
    assert is_dataclass(cls)
    assert tuple(f.name for f in fields(cls)) == names
    assert cls.__slots__ == names
    obj = make()
    assert not hasattr(obj, "__dict__")
    # a frozen type refuses the name as frozen, whether or not it is a field
    refusal = FrozenInstanceError if name in FROZEN else AttributeError
    with pytest.raises(refusal):
        obj.undeclared = 1
    with pytest.raises(AttributeError):
        object.__setattr__(obj, "undeclared", 1)
    assert not hasattr(obj, "undeclared")


def test_frozen_types_stay_frozen_and_the_others_mutable(case):
    name, cls, make, names, (field, value) = case
    obj = make()
    if name in FROZEN:
        with pytest.raises(FrozenInstanceError, match=f"assign to field '{field}'"):
            setattr(obj, field, value)
        with pytest.raises(FrozenInstanceError, match=f"delete field '{field}'"):
            delattr(obj, field)
    else:
        setattr(obj, field, value)
        assert getattr(obj, field) == value


def test_equality_and_hash_go_by_the_fields_in_order(case):
    name, cls, make, names, (field, value) = case
    a, b = make(), make()
    assert a == b and a is not b
    assert a != replace(a, **{field: value})
    if cls.__hash__ is None:
        assert name not in FROZEN
        with pytest.raises(TypeError):
            hash(a)
        return
    try:
        want = hash(_values(a, names))
    except TypeError:  # a field holds an unhashable value (a ReuseEntry)
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == want


def test_replace_changes_one_field(case):
    name, cls, make, names, (field, value) = case
    obj = make()
    new = replace(obj, **{field: value})
    assert type(new) is cls and getattr(new, field) == value
    assert all(getattr(new, n) == getattr(obj, n) for n in names if n != field)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trips(case, protocol):
    name, cls, make, names, _ = case
    obj = make()
    back = pickle.loads(pickle.dumps(obj, protocol))
    assert type(back) is cls and back == obj
    assert repr(back) == repr(obj)


def test_deepcopy_round_trips(case):
    name, cls, make, names, _ = case
    obj = make()
    back = copy.deepcopy(obj)
    assert type(back) is cls and back == obj and back is not obj
    assert repr(back) == repr(obj)


def _built_from_slots(obj):
    cls = type(obj)
    return _slot_builder(cls)(*(getattr(obj, name) for name in cls.__slots__))


def test_the_slot_builder_builds_what_the_constructor_builds(case):
    name, cls, make, names, _ = case
    obj = make()
    built = _built_from_slots(obj)
    assert type(built) is cls
    assert repr(built) == repr(obj)
    assert built == obj and built is not obj


def test_the_slot_builder_builds_a_feature_vector():
    vector = FeatureVector((1.0, -0.0))
    built = _built_from_slots(vector)
    assert type(built) is FeatureVector
    assert repr(built) == repr(vector)
    assert built == vector
    assert built._array is vector._array
    # the constructor's block: a read-only matrix of one row, whose row 0 is
    # the vector's array
    assert built._block is vector._block and built._row == 0
    assert vector._block.shape == (1, 2) and not vector._block.flags.writeable
    assert np.shares_memory(vector._block, vector._array)


def test_the_slot_builder_skips_the_checks():
    # the caller vouches for the values: no __post_init__ refuses them
    task = _slot_builder(Task)(0, "s", "a", FeatureVector((1.0,)), -1.0, 0.0, 0.0, -1.0)
    assert task.complexity == 0.0 and task.arrival_time == -1.0


def test_the_reuse_path_builds_what_the_constructors_build():
    # the store and the edge node build their values with slot builders
    store = ReuseStore(2, StoreSettings(None, 0.5, 1.0, 0.25), LshSettings(1, 8))
    node = EdgeNode(frozenset({"s"}), store)
    # one ray, so every key agrees, at distance 0.75: a partial hit
    near, far = (1.0, 0.0), (1.75, 0.0)
    first = make_task(0, values=near)
    assert node.decide(first, 0.0) is EDGE_COMPUTE
    node.complete(first, EDGE_COMPUTE, "a", 0.5)
    (entry,) = store.entries("s")
    assert type(entry) is ReuseEntry
    assert entry == ReuseEntry(0, first.features, "a", 0, 0.5)
    hits = [
        (near, LookupKind.FULL, OutcomeKind.FULL_REUSE, 1.0),
        (far, LookupKind.PARTIAL, OutcomeKind.PARTIAL_REUSE, 0.25),
    ]
    for now, (values, kind, outcome_kind, fraction) in enumerate(hits, 1):
        result = store.lookup("s", FeatureVector(values), float(now))
        assert type(result) is LookupResult
        assert result == LookupResult(kind, entry, fraction)
        outcome = node.decide(make_task(now, values=values), now + 0.5)
        assert type(outcome) is Outcome
        assert outcome == Outcome(outcome_kind, fraction, entry)
    assert entry == ReuseEntry(0, first.features, "a", 4, 2.5)


def test_the_event_loop_builds_what_the_record_constructor_builds():
    # one slot and a short patience: every outcome
    # and both locations turn up
    config = SimConfig(
        Mode.EDGE_WITH_REUSE,
        WorkloadSpec(num_tasks=80, arrival_rate=2.0, noise_sigma=0.12, seed=3),
        edge_slots=1,
        max_queue_delay=1.0,
    )
    records = run(config).records
    names = [f.name for f in fields(TaskRecord)]
    types = [f.type for f in fields(TaskRecord)]  # "int", "str", "float", "bool"
    for record in records:
        values = [getattr(record, name) for name in names]
        assert type(record) is TaskRecord and record == TaskRecord(*values)
        assert [type(value).__name__ for value in values] == types
    assert {(r.outcome, r.location) for r in records} == {
        ("full_reuse", "edge"),
        ("partial_reuse", "edge"),
        ("edge_compute", "edge"),
        ("cloud_offload", "cloud"),
    }
