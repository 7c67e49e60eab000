import pickle
import re
from dataclasses import replace

import numpy as np
import pytest

from reusesim import CostParams, FeatureVector, Outcome, OutcomeKind, Task
from reusesim.core import tasks_from_columns
from reusesim.reuse_store import ReuseEntry

from conftest import assert_rows_of_one_matrix, make_task


@pytest.mark.parametrize("bad", [(), (float("nan"), 1.0), (float("inf"),)])
def test_feature_vector_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        FeatureVector(bad)


@pytest.mark.parametrize("huge", [10**400, -(10**400)], ids=["positive", "negative"])
def test_feature_vector_rejects_an_int_too_large_for_a_float(huge):
    # the ValueError an infinite value raises, not float()'s OverflowError
    with pytest.raises(ValueError, match="^feature vector values must be finite$"):
        FeatureVector([1.0, huge])
    with pytest.raises(ValueError, match="^feature vector values must be finite$"):
        FeatureVector([1.0, float("inf")])


def test_a_feature_vector_is_unequal_to_the_tuple_of_its_values():
    v = FeatureVector((1.0, 2.0))
    assert v.__eq__(v.values) is NotImplemented
    assert v != v.values and v.values != v


def test_feature_vector_coerces_to_floats():
    v = FeatureVector([1, 2, 3])
    assert v.values == (1.0, 2.0, 3.0)
    assert v.dimension == 3
    assert len(v) == 3



@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_feature_vector_pickles(protocol):
    v = FeatureVector((1.0, -0.0, 2.5))
    w = pickle.loads(pickle.dumps(v, protocol))
    assert type(w) is FeatureVector and w == v and w.values == v.values
    assert repr(w) == repr(v) == "FeatureVector(values=(1.0, -0.0, 2.5))"
    task = make_task(values=(1.0, -0.0))
    assert pickle.loads(pickle.dumps(task, protocol)) == task
    assert not hasattr(v, "__dict__")  # slots

def test_task_validation():
    with pytest.raises(ValueError):
        make_task(complexity=0.0)
    with pytest.raises(ValueError):
        make_task(input_size=-1.0)
    with pytest.raises(ValueError):
        make_task(arrival=-0.1)


def test_cost_params_validation():
    with pytest.raises(ValueError):
        CostParams(edge_bandwidth=0.0)
    with pytest.raises(ValueError):
        CostParams(edge_hops=3, cloud_hops=2)
    with pytest.raises(ValueError):
        CostParams(lookup_cost=-0.1)
    for rates in ({"edge_capacity_rate": 0.0}, {"cloud_capacity_rate": -1.0}):
        with pytest.raises(ValueError, match="^capacity rates must be > 0$"):
            CostParams(**rates)
    with pytest.raises(ValueError, match="^per-hop latency must be >= 0$"):
        CostParams(per_hop_latency=-0.001)
    for field in ("edge_hops", "cloud_hops"):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got 1.0$"):
            CostParams(**{field: 1.0})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), None, "1"])
@pytest.mark.parametrize(
    "valid,field",
    [
        (CostParams(), name)
        for name in (
            "edge_bandwidth",
            "cloud_bandwidth",
            "edge_capacity_rate",
            "cloud_capacity_rate",
            "lookup_cost",
            "per_hop_latency",
        )
    ]
    + [
        (make_task(), name)
        for name in ("input_size", "output_size", "complexity", "arrival_time")
    ],
)
def test_constructors_reject_non_finite(valid, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        replace(valid, **{field: value})


def _columns(n=3, dimension=2):
    return {
        "features": np.arange(n * dimension, dtype=float).reshape(n, dimension),
        "input_size": np.full(n, 4.0),
        "output_size": np.full(n, 0.5),
        "complexity": np.full(n, 80.0),
        "arrival": np.arange(1.0, n + 1.0),
    }


def _checked_task(i, columns):
    """Task ``i`` of ``columns`` through the checked public constructors."""
    return Task(
        i,
        "s",
        f"obj-{i}",
        FeatureVector(columns["features"][i].tolist()),
        float(columns["input_size"][i]),
        float(columns["output_size"][i]),
        float(columns["complexity"][i]),
        float(columns["arrival"][i]),
    )


def test_tasks_from_columns_equal_the_checked_constructors():
    columns = _columns()
    tasks = tasks_from_columns("s", ["obj-0", "obj-1", "obj-2"], **columns)
    assert tasks == [_checked_task(i, columns) for i in range(3)]
    assert tasks_from_columns("s", [], **_columns(n=0)) == []


@pytest.mark.parametrize(
    "column,value",
    [
        ("features", float("nan")),
        ("features", float("-inf")),
        ("input_size", float("nan")),
        ("input_size", -1.0),
        ("output_size", float("inf")),
        ("output_size", -0.5),
        ("complexity", 0.0),
        ("complexity", float("inf")),
        ("arrival", -0.1),
        ("arrival", float("nan")),
    ],
)
def test_tasks_from_columns_raise_the_constructors_error(column, value):
    columns = _columns()
    columns[column][1, ...] = value
    columns["complexity"][2] = -1.0  # a later bad row does not win
    with pytest.raises(ValueError) as expected:
        _checked_task(1, columns)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        tasks_from_columns("s", ["obj-0", "obj-1", "obj-2"], **columns)


@pytest.mark.parametrize("length", [1, 4])
@pytest.mark.parametrize(
    "column", ["labels", "input_size", "output_size", "complexity", "arrival"]
)
def test_tasks_from_columns_reject_a_column_of_another_length(column, length):
    # three feature rows; the named column alone has ``length`` entries
    columns = {"labels": ["obj-0", "obj-1", "obj-2", "obj-3"], **_columns(n=4)}
    columns = {
        name: values[: length if name == column else 3]
        for name, values in columns.items()
    }
    with pytest.raises(
        ValueError, match=f"^{column} has {length} entries for 3 feature rows$"
    ):
        tasks_from_columns("s", **columns)


def test_tasks_from_columns_give_rows_of_the_feature_matrix():
    columns = _columns()
    features = columns["features"]
    tasks = tasks_from_columns("s", ["obj-0", "obj-1", "obj-2"], **columns)
    assert_rows_of_one_matrix(tasks)
    assert not features.flags.writeable
    assert np.shares_memory(tasks[0].features._array, features)
    # a matrix that is not C-contiguous float64 is copied; the copy is shared
    ints = np.asfortranarray(np.arange(6).reshape(3, 2))
    tasks = tasks_from_columns("s", ["a", "b", "c"], **{**columns, "features": ints})
    assert_rows_of_one_matrix(tasks)
    assert ints.flags.writeable and tasks[2].features.values == (4.0, 5.0)


def test_feature_vector_holds_a_read_only_copy():
    source = np.array([1.0, 2.0])
    v = FeatureVector(source)
    source[0] = 9.0
    assert v.values == (1.0, 2.0) and v == FeatureVector((1, 2))
    assert hash(v) == hash(FeatureVector([1.0, 2.0]))
    with pytest.raises(ValueError, match="read-only"):
        v._array[0] = 5.0
    with pytest.raises(AttributeError):
        v.values = (3.0, 4.0)
    with pytest.raises(AttributeError):
        v._array = np.zeros(2)


def test_tasks_from_columns_need_dimension_one():
    with pytest.raises(ValueError, match="^feature vector needs dimension >= 1"):
        tasks_from_columns("s", ["obj-0"], **_columns(n=1, dimension=0))


def _entry():
    return ReuseEntry(id=0, features=FeatureVector((1.0, 2.0)), output="obj")


def test_outcome_valid_combinations():
    Outcome(OutcomeKind.FULL_REUSE, reused_fraction=1.0, matched_entry=_entry())
    Outcome(OutcomeKind.PARTIAL_REUSE, reused_fraction=0.5, matched_entry=_entry())
    Outcome(OutcomeKind.EDGE_COMPUTE)
    Outcome(OutcomeKind.CLOUD_OFFLOAD)


@pytest.mark.parametrize(
    "kind,fraction,with_entry",
    [
        (OutcomeKind.FULL_REUSE, 1.0, False),
        (OutcomeKind.FULL_REUSE, 0.5, True),
        (OutcomeKind.PARTIAL_REUSE, 1.0, True),
        (OutcomeKind.PARTIAL_REUSE, 0.5, False),
        (OutcomeKind.EDGE_COMPUTE, 0.5, False),
        (OutcomeKind.EDGE_COMPUTE, 0.0, True),
        (OutcomeKind.CLOUD_OFFLOAD, 1.0, False),
    ],
)
def test_outcome_invalid_combinations(kind, fraction, with_entry):
    with pytest.raises(ValueError):
        Outcome(kind, reused_fraction=fraction, matched_entry=_entry() if with_entry else None)


def test_outcome_flags():
    full = Outcome(OutcomeKind.FULL_REUSE, reused_fraction=1.0, matched_entry=_entry())
    assert full.at_edge and full.is_reuse
    partial = Outcome(OutcomeKind.PARTIAL_REUSE, reused_fraction=0.4, matched_entry=_entry())
    assert partial.at_edge and partial.is_reuse
    edge = Outcome(OutcomeKind.EDGE_COMPUTE)
    assert edge.at_edge and not edge.is_reuse
    cloud = Outcome(OutcomeKind.CLOUD_OFFLOAD)
    assert not cloud.at_edge and not cloud.is_reuse
