import numpy as np
import pytest

from reusesim import CostParams, FeatureVector, Task


@pytest.fixture
def flat_cost():
    """Latency-free parameters used by the worked cost examples."""
    return CostParams(
        edge_bandwidth=10.0,
        cloud_bandwidth=2.0,
        edge_capacity_rate=50.0,
        cloud_capacity_rate=500.0,
        lookup_cost=0.001,
        edge_hops=1,
        cloud_hops=6,
        per_hop_latency=0.0,
    )


def make_task(
    task_id=0,
    service="s",
    label="obj",
    values=(1.0, 2.0),
    input_size=8.0,
    output_size=2.0,
    complexity=100.0,
    arrival=0.0,
):
    return Task(
        id=task_id,
        service=service,
        object_label=label,
        features=FeatureVector(values),
        input_size=input_size,
        output_size=output_size,
        complexity=complexity,
        arrival_time=arrival,
    )


@pytest.fixture
def task_factory():
    return make_task


def assert_rows_of_one_matrix(tasks):
    """The tasks' vectors are read-only views of the consecutive rows of one
    C-contiguous float64 matrix, and their ``values`` are plain floats equal
    to those rows."""
    first = tasks[0].features._array
    for i, task in enumerate(tasks):
        row = task.features._array
        assert row.dtype == np.float64 and row.flags.c_contiguous
        assert row.base is first.base is not None
        assert row.ctypes.data == first.ctypes.data + i * first.nbytes
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 0.0
        values = task.features.values
        assert {type(v) for v in values} == {float}
        assert values == tuple(row.tolist())
