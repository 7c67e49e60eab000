"""Differential test of the event loop against an independent queue recursion.

The oracle never schedules an event: it walks the tasks in reception order
through the Kiefer–Wolfowitz workload-vector recursion for a FIFO G/G/c
queue (Kiefer and Wolfowitz, "On the theory of queues with many servers",
1955), extended to reneging.  Service durations are taken from the
simulator's records, so the comparison checks the queue discipline, the
reception order, reneging and the tie rule, not the store.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reusesim import (
    CostParams,
    FeatureVector,
    Mode,
    ReuseStore,
    SimConfig,
    StoreSettings,
    Task,
    WorkloadSpec,
    generate,
    simulate,
)

EDGE_MODES = (Mode.EDGE_NO_REUSE, Mode.EDGE_WITH_REUSE)


def kiefer_wolfowitz(tasks, records, cost, slots, max_queue_delay):
    """Edge start times and bounced ids of a FIFO queue on ``slots`` slots.

    Tasks are taken in reception order: by receive time, then arrival, then
    id.  Each takes the slot that frees first, unless its wait would reach
    ``max_queue_delay`` before then, in which case it bounces and takes no
    slot.  Ties at one instant: receptions come first, then the other events
    in the order they were scheduled.  A task's expiry is scheduled at its
    reception; a slot's freeing is scheduled at the dispatch that filled it,
    which happens at the task's own reception if a slot was already free
    then, and otherwise after every reception of the dispatch instant.

    Returns ``({id: (start, waiting)} of edge tasks, {bounced ids})``.
    """
    receptions = sorted(
        (
            t.arrival_time
            + t.input_size / cost.edge_bandwidth
            + cost.edge_hops * cost.per_hop_latency,
            t.arrival_time,
            t.id,
        )
        for t in tasks
    )
    duration = {r.task_id: r.computation_s for r in records}
    free = [(-math.inf, ())] * slots  # (free at, when the freeing was scheduled)
    started, bounced = {}, set()
    for order, (recv, _, tid) in enumerate(receptions):
        slot = min(range(slots), key=free.__getitem__)
        at, scheduled = free[slot]
        reception = (recv, 0, order)
        if max_queue_delay is not None and (at, scheduled) > (
            recv + max_queue_delay,
            reception,
        ):
            bounced.add(tid)
            continue
        start = max(recv, at)
        started[tid] = (start, start - recv)
        free[slot] = (start + duration[tid], reception if at < recv else (start, 1))
    return started, bounced


def assert_matches_oracle(tasks, mode, cost, slots, store, max_queue_delay):
    rep = simulate(
        tasks, mode, cost, edge_slots=slots, store=store, max_queue_delay=max_queue_delay
    )
    started, bounced = kiefer_wolfowitz(tasks, rep.records, cost, slots, max_queue_delay)
    edge = {r.task_id: (r.start_s, r.waiting_s) for r in rep.records if r.location == "edge"}
    assert edge == started
    assert {r.task_id for r in rep.records if r.location == "cloud"} == bounced


# Collinear vectors share every LSH bucket, so the store finds them: 10.3 is
# a full hit on 10.0 and 11.0 a partial hit; the last one always misses.
VECTORS = ((10.0, 0.0), (10.3, 0.0), (11.0, 0.0), (0.0, 10.0))


@st.composite
def scenarios(draw):
    """Small streams on a dyadic grid, so equal timestamps are frequent."""
    n = draw(st.integers(1, 12))
    ids = draw(st.permutations(range(n)))
    grid = st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0, 3.0))
    tasks = []
    for tid in ids:
        k = draw(st.integers(0, len(VECTORS) - 1))
        tasks.append(
            Task(
                id=tid,
                service="s",
                object_label=f"obj-{k}",
                features=FeatureVector(VECTORS[k]),
                input_size=draw(st.sampled_from((0.0, 1.0, 2.0))),
                output_size=draw(st.sampled_from((0.0, 1.0))),
                complexity=draw(st.sampled_from((25.0, 50.0, 100.0))),
                arrival_time=draw(grid),
            )
        )
    cost = CostParams(
        edge_bandwidth=4.0,
        cloud_bandwidth=2.0,
        edge_capacity_rate=50.0,
        cloud_capacity_rate=500.0,
        lookup_cost=0.25,
        per_hop_latency=draw(st.sampled_from((0.0, 0.25))),
    )
    return (
        tasks,
        draw(st.sampled_from(EDGE_MODES)),
        cost,
        draw(st.integers(1, 4)),
        draw(st.sampled_from((None, 0.5, 1.0, 2.0))),
    )


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios())
def test_event_loop_matches_kiefer_wolfowitz(scenario):
    tasks, mode, cost, slots, max_queue_delay = scenario
    store = ReuseStore(
        dimension=2,
        settings=StoreSettings(tau_full=0.5, tau_partial=2.0, partial_fraction=0.5),
        seed=0,
    )
    assert_matches_oracle(tasks, mode, cost, slots, store, max_queue_delay)


@pytest.mark.parametrize("mode", EDGE_MODES)
@pytest.mark.parametrize("max_queue_delay", [None, 1.0])
def test_overloaded_generated_run_matches_kiefer_wolfowitz(mode, max_queue_delay):
    # 16 tasks/s on 15 slots of ~1 s each: the queue grows without reuse
    config = SimConfig(
        mode=mode,
        workload=WorkloadSpec(num_tasks=1000, arrival_rate=16.0, seed=9),
        max_queue_delay=max_queue_delay,
        seed=9,
    )
    store = ReuseStore(config.workload.dimension, config.store, config.lsh, 9)
    assert_matches_oracle(
        generate(config.workload),
        mode,
        config.cost,
        config.edge_slots,
        store,
        max_queue_delay,
    )
