import numpy as np
import pytest

from reusesim import (
    CostParams,
    Outcome,
    OutcomeKind,
    communication_cost,
    completion_cost,
    execution_cost,
    reuse_cost,
)
from reusesim.reuse_store import ReuseEntry
from reusesim.core import FeatureVector

from conftest import make_task


def _entry():
    return ReuseEntry(id=0, features=FeatureVector((0.0,)), output="x")


FULL = Outcome(OutcomeKind.FULL_REUSE, reused_fraction=1.0, matched_entry=_entry())
PARTIAL = Outcome(OutcomeKind.PARTIAL_REUSE, reused_fraction=0.5, matched_entry=_entry())
EDGE = Outcome(OutcomeKind.EDGE_COMPUTE)
CLOUD = Outcome(OutcomeKind.CLOUD_OFFLOAD)


def test_communication_cost_edge(flat_cost):
    assert communication_cost(make_task(), True, flat_cost) == pytest.approx(1.0, abs=1e-9)


def test_communication_cost_cloud(flat_cost):
    assert communication_cost(make_task(), False, flat_cost) == pytest.approx(5.0, abs=1e-9)


def test_communication_cost_zero_data():
    p = CostParams(per_hop_latency=0.0)
    t = make_task(input_size=0.0, output_size=0.0)
    assert communication_cost(t, True, p) == 0.0
    lat = CostParams(per_hop_latency=0.005, edge_hops=1, cloud_hops=6)
    assert communication_cost(t, True, lat) == pytest.approx(0.005)
    assert communication_cost(t, False, lat) == pytest.approx(0.030)


def test_execution_cost(flat_cost):
    t = make_task(complexity=100.0)
    assert execution_cost(t, True, flat_cost) == pytest.approx(2.0, abs=1e-9)
    assert execution_cost(t, False, flat_cost) == pytest.approx(0.2, abs=1e-9)


def test_reuse_cost_full(flat_cost):
    assert reuse_cost(make_task(), 1.0, flat_cost) == pytest.approx(0.001, abs=1e-12)


def test_reuse_cost_partial(flat_cost):
    # lookup + 0.5 * 100 / 50 = 0.001 + 1.0
    got = reuse_cost(make_task(complexity=100.0), 0.5, flat_cost)
    assert got == pytest.approx(1.001, abs=1e-9)


def test_reuse_cost_degenerate_remaining_one(flat_cost):
    got = reuse_cost(make_task(complexity=100.0), 0.0, flat_cost)
    assert got == pytest.approx(0.001 + 2.0, abs=1e-9)


def test_reuse_cost_rejects_contradiction(flat_cost):
    # a share of the task outside [0, 1] contradicts itself
    with pytest.raises(ValueError, match="reused_fraction"):
        reuse_cost(make_task(), -0.5, flat_cost)
    with pytest.raises(ValueError, match="reused_fraction"):
        reuse_cost(make_task(), 1.5, flat_cost)


def test_completion_cloud_offload(flat_cost):
    b = completion_cost(make_task(), CLOUD, flat_cost)
    assert b.total == pytest.approx(5.0 + 0.2, abs=1e-9)


def test_completion_full_reuse(flat_cost):
    b = completion_cost(make_task(), FULL, flat_cost)
    assert b.total == pytest.approx(1.001, abs=1e-9)


def test_completion_edge_compute(flat_cost):
    b = completion_cost(make_task(), EDGE, flat_cost)
    assert b.total == pytest.approx(3.0, abs=1e-9)


def _random_case(rng):
    t = make_task(
        input_size=float(rng.uniform(0, 20)),
        output_size=float(rng.uniform(0, 5)),
        complexity=float(rng.uniform(1, 500)),
    )
    p = CostParams(
        edge_bandwidth=float(rng.uniform(1, 200)),
        cloud_bandwidth=float(rng.uniform(1, 200)),
        edge_capacity_rate=float(rng.uniform(1, 500)),
        cloud_capacity_rate=float(rng.uniform(1, 5000)),
        lookup_cost=float(rng.uniform(0, 0.1)),
        edge_hops=int(rng.integers(1, 4)),
        cloud_hops=int(rng.integers(4, 9)),
        per_hop_latency=float(rng.uniform(0, 0.02)),
    )
    kind = rng.integers(0, 4)
    if kind == 0:
        o = Outcome(OutcomeKind.FULL_REUSE, 1.0, _entry())
    elif kind == 1:
        o = Outcome(OutcomeKind.PARTIAL_REUSE, float(rng.uniform(0.05, 0.95)), _entry())
    elif kind == 2:
        o = EDGE
    else:
        o = CLOUD
    return t, o, p


def test_reassembly_identity_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        t, o, p = _random_case(rng)
        b = completion_cost(t, o, p)
        gamma = 1.0 if o.is_reuse else 0.0
        rebuilt = b.communication + (1 - gamma) * b.execution + gamma * b.reuse
        assert abs(rebuilt - b.total) <= 1e-12
        assert min(b.communication, b.execution, b.reuse, b.total) >= 0.0


def test_lookup_cost_irrelevant_when_not_reused(flat_cost):
    t = make_task()
    for o in (EDGE, CLOUD):
        base = completion_cost(t, o, flat_cost).total
        bumped = completion_cost(
            t,
            o,
            CostParams(
                edge_bandwidth=10.0,
                cloud_bandwidth=2.0,
                edge_capacity_rate=50.0,
                cloud_capacity_rate=500.0,
                lookup_cost=9.9,
                per_hop_latency=0.0,
            ),
        ).total
        assert bumped == base


def test_complexity_irrelevant_on_full_reuse(flat_cost):
    light = completion_cost(make_task(complexity=1.0), FULL, flat_cost).total
    heavy = completion_cost(make_task(complexity=5000.0), FULL, flat_cost).total
    assert light == heavy


@pytest.mark.parametrize(
    "field,direction",
    [
        ("edge_bandwidth", -1),
        ("cloud_bandwidth", -1),
        ("edge_capacity_rate", -1),
        ("cloud_capacity_rate", -1),
        ("lookup_cost", +1),
    ],
)
def test_total_monotone_in_params(field, direction):
    rng = np.random.default_rng(1)
    for _ in range(100):
        t, o, p = _random_case(rng)
        base = completion_cost(t, o, p).total
        kwargs = {f: getattr(p, f) for f in (
            "edge_bandwidth", "cloud_bandwidth", "edge_capacity_rate",
            "cloud_capacity_rate", "lookup_cost", "edge_hops", "cloud_hops",
            "per_hop_latency",
        )}
        kwargs[field] = kwargs[field] * 2.0 + 0.01
        bumped = completion_cost(t, o, CostParams(**kwargs)).total
        if direction < 0:
            assert bumped <= base + 1e-12
        else:
            assert bumped >= base - 1e-12


@pytest.mark.parametrize("field", ["input_size", "output_size", "complexity"])
def test_total_monotone_in_task(field):
    rng = np.random.default_rng(2)
    for _ in range(100):
        t, o, p = _random_case(rng)
        base = completion_cost(t, o, p).total
        kwargs = dict(
            input_size=t.input_size, output_size=t.output_size, complexity=t.complexity
        )
        kwargs[field] = kwargs[field] * 2.0 + 0.01
        bigger = make_task(**kwargs)
        assert completion_cost(bigger, o, p).total >= base - 1e-12


def test_full_reuse_dominates_edge_compute():
    rng = np.random.default_rng(3)
    for _ in range(200):
        t, _, p = _random_case(rng)
        if p.lookup_cost >= execution_cost(t, True, p):
            continue
        reuse_total = completion_cost(t, FULL, p).total
        scratch_total = completion_cost(t, EDGE, p).total
        assert reuse_total < scratch_total
