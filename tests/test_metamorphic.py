"""Exact metamorphic relations over whole runs.

Scaling a float by a power of two is exact away from overflow and
subnormals, and IEEE rounding commutes with it.  So two relations hold with
``==``, not within a tolerance, in every mode, with the store's capacity
and the edge's ``max_queue_delay`` each on or off:

* **time scaling by k = 2^j:** dividing the arrival rate, both bandwidths
  and both capacity rates by k, and multiplying the lookup cost, the per-hop
  latency and ``max_queue_delay`` by k, multiplies every time of every
  record and of the report by k and leaves everything else equal: kinds,
  locations, correctness, counts, utilization, load split;
* **feature scaling by 2^j:** multiplying every feature row and both store
  thresholds by 2^j scales every distance exactly and changes no
  sign-of-projection key, so every record, the whole report and the store's
  stats and evictions are equal.

A third relation needs no scaling:

* **no eviction, no difference:** in the reuse mode, a store of unbounded
  capacity and one whose capacity is at or above the run's number of places
  give equal records, reports and stats, and neither evicts.

This is metamorphic testing (Chen, Cheung and Yiu, 1998): the relations
need no oracle for what a run should give, only two runs.
"""

from dataclasses import replace

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from reusesim import (
    CostParams,
    LshSettings,
    Mode,
    ReuseStore,
    StoreSettings,
    WorkloadSpec,
    generate,
    simulate,
)
from reusesim.core import tasks_from_columns

RECORD_TIMES = ("arrival_s", "start_s", "finish_s", "waiting_s", "computation_s",
                "completion_s")
REPORT_TIMES = ("mean_completion_s", "p90_completion_s", "mean_computation_s",
                "mean_waiting_s", "busy_slot_time", "makespan", "mean_time_in_system")
# the arrival times, hence the digest, scale with time
REPORT_NOT_COMPARED = {"records", "workload_digest", *REPORT_TIMES}

# the noise puts same-object distances on both sides of tau_full, so runs
# have full hits, partial hits and misses
NOISE_SIGMA = 0.12
# the powers of two to scale by
EXPONENTS = st.sampled_from([j for j in range(-6, 7) if j])


@st.composite
def runs(draw):
    """A run's mode, workload, edge and store settings."""
    capacity = draw(st.one_of(st.none(), st.integers(2, 20)))
    return dict(
        # the reuse mode, which the most settings act on, half the time
        mode=draw(st.sampled_from([*Mode, Mode.EDGE_WITH_REUSE, Mode.EDGE_WITH_REUSE])),
        spec=WorkloadSpec(
            num_tasks=draw(st.integers(1, 80)),
            redundancy_rate=draw(st.sampled_from([0.2, 0.6, 0.9])),
            # from underloaded to several times the slots' service rate
            arrival_rate=draw(st.sampled_from([1.0, 6.0, 40.0])),
            noise_sigma=NOISE_SIGMA,
            dimension=draw(st.sampled_from([4, 32])),
            seed=draw(st.integers(0, 2**16)),
        ),
        cost=CostParams(),
        slots=draw(st.integers(1, 4)),
        store=StoreSettings(capacity=capacity),
        # one table of 16 bits misses many near neighbours, so which inputs
        # share a bucket shows in the records
        lsh=LshSettings(draw(st.sampled_from([1, 8])), draw(st.sampled_from([8, 16]))),
        max_queue_delay=draw(st.one_of(st.none(), st.sampled_from([0.25, 1.0, 3.0]))),
    )


def _simulate(tasks, run):
    store = None
    if run["mode"] is Mode.EDGE_WITH_REUSE:
        store = ReuseStore(run["spec"].dimension, run["store"], run["lsh"], seed=7)
    report = simulate(tasks, run["mode"], run["cost"], run["slots"], store,
                      run["max_queue_delay"])
    # what the run exercised (pytest --hypothesis-show-statistics)
    event(run["mode"].value)
    for name in ("n_full_reuse", "n_partial_reuse"):
        if getattr(report, name):
            event(name)
    if run["mode"] is not Mode.CLOUD_ONLY and report.n_cloud:
        event("reneged")
    if store is not None and store.eviction_log:
        event("evicted")
    return report, store


def _times(k, run):
    """``run`` with its time scaled by ``k``."""
    cost, delay = run["cost"], run["max_queue_delay"]
    return dict(
        run,
        spec=replace(run["spec"], arrival_rate=run["spec"].arrival_rate / k),
        cost=replace(
            cost,
            edge_bandwidth=cost.edge_bandwidth / k,
            cloud_bandwidth=cost.cloud_bandwidth / k,
            edge_capacity_rate=cost.edge_capacity_rate / k,
            cloud_capacity_rate=cost.cloud_capacity_rate / k,
            lookup_cost=cost.lookup_cost * k,
            per_hop_latency=cost.per_hop_latency * k,
        ),
        max_queue_delay=None if delay is None else delay * k,
    )


def _features(factor, tasks):
    """``tasks`` with every feature row multiplied by ``factor``."""
    column = lambda name: np.array([getattr(t, name) for t in tasks])  # noqa: E731
    return tasks_from_columns(
        tasks[0].service,
        [t.object_label for t in tasks],
        np.array([t.features.values for t in tasks]) * factor,
        column("input_size"),
        column("output_size"),
        column("complexity"),
        column("arrival_time"),
    )


@settings(max_examples=300, deadline=None)
@given(run=runs(), j=EXPONENTS)
def test_scaling_time_by_a_power_of_two_scales_every_time(run, j):
    k = 2.0**j
    base, base_store = _simulate(generate(run["spec"]), run)
    scaled_run = _times(k, run)
    scaled, scaled_store = _simulate(generate(scaled_run["spec"]), scaled_run)
    assert scaled.records == tuple(
        replace(r, **{name: getattr(r, name) * k for name in RECORD_TIMES})
        for r in base.records
    )
    for name in REPORT_TIMES:
        assert getattr(scaled, name) == getattr(base, name) * k, name
    for name in vars(base).keys() - REPORT_NOT_COMPARED:
        assert getattr(scaled, name) == getattr(base, name), name
    if base_store is not None:
        assert scaled_store.stats() == base_store.stats()
        assert scaled_store.eviction_log == base_store.eviction_log


@settings(max_examples=300, deadline=None)
@given(run=runs(), j=EXPONENTS)
def test_scaling_features_and_thresholds_by_a_power_of_two_changes_nothing(run, j):
    factor = 2.0**j
    tasks = generate(run["spec"])
    base, base_store = _simulate(_features(1.0, tasks), run)
    store = run["store"]
    scaled_run = dict(
        run,
        store=replace(store, tau_full=store.tau_full * factor,
                      tau_partial=store.tau_partial * factor),
    )
    scaled, scaled_store = _simulate(_features(factor, tasks), scaled_run)
    assert scaled.records == base.records
    assert scaled == base
    if base_store is not None:
        assert scaled_store.stats() == base_store.stats()
        assert scaled_store.eviction_log == base_store.eviction_log


@settings(max_examples=250, deadline=None)
@given(run=runs(), extra=st.integers(0, 3))
def test_a_capacity_no_run_fills_changes_nothing(run, extra):
    run = dict(run, mode=Mode.EDGE_WITH_REUSE)
    tasks = generate(run["spec"])
    base, base_store = _simulate(tasks, dict(run, store=replace(run["store"], capacity=None)))
    # an unbounded store never evicts, so it holds every entry the run placed
    places = sum(stats.entries for stats in base_store.stats().values())
    capacity = max(1, places + extra)
    bounded, store = _simulate(tasks, dict(run, store=replace(run["store"], capacity=capacity)))
    assert bounded.records == base.records
    assert bounded == base
    assert store.stats() == base_store.stats()
    assert store.eviction_log == base_store.eviction_log == []
