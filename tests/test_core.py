from dataclasses import replace

import pytest

from reusesim import CostParams, FeatureVector, Outcome, OutcomeKind
from reusesim.reuse_store import ResultPayload, ReuseEntry

from conftest import make_task


@pytest.mark.parametrize("bad", [(), (float("nan"), 1.0), (float("inf"),)])
def test_feature_vector_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        FeatureVector(bad)


def test_feature_vector_coerces_to_floats():
    v = FeatureVector([1, 2, 3])
    assert v.values == (1.0, 2.0, 3.0)
    assert v.dimension == 3
    assert len(v) == 3


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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
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


def _entry():
    return ReuseEntry(
        id=0,
        service="s",
        features=FeatureVector((1.0, 2.0)),
        output=ResultPayload("obj"),
    )


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
