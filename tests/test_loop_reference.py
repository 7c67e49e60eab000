"""Differential test of ``simulate`` against the event loop it replaced.

``reference_simulate`` is the event loop as it stood before the per-task
costs of the queue were cut: a closure that pushes each reception one by
one, a closure that dispatches, ``complete`` called after every finish, and
each record built by ``TaskRecord``'s own constructor.  Both loops must give
the same report: every record field equal by ``repr`` and of the same type,
and every other report field equal by ``repr``.  Times sit on a dyadic grid
so that equal timestamps, and with them the tie rules, come up often.
"""

import heapq
import math
from collections import Counter, deque
from dataclasses import fields
from operator import attrgetter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reusesim import (
    CostParams,
    EdgeNode,
    FeatureVector,
    Mode,
    ReuseStore,
    StoreSettings,
    Task,
    simulate,
)
from reusesim.core import CLOUD_OFFLOAD
from reusesim.cost import delivered_at, execution_cost, received_at, reuse_cost
from reusesim.reuse_store import ResultPayload
from reusesim.sim import (
    MetricsReport,
    TaskRecord,
    _aggregate,
    task_correct,
    workload_digest,
)


def _service_duration(outcome, task, cost):
    if outcome.is_reuse:
        return reuse_cost(task, outcome.reused_fraction, cost)
    return execution_cost(task, True, cost)


def _record(task, outcome, start, finish, waiting, computation):
    return TaskRecord(
        task.id,
        task.service,
        task.object_label,
        outcome.kind.value,
        "edge" if outcome.at_edge else "cloud",
        task.arrival_time,
        start,
        finish,
        waiting,
        computation,
        finish - task.arrival_time,
        task_correct(outcome, task),
    )


def _cloud_record(task, depart, waiting, cost):
    start = received_at(depart, task, False, cost)
    computation = execution_cost(task, False, cost)
    finish = delivered_at(start + computation, task, False, cost)
    return _record(task, CLOUD_OFFLOAD, start, finish, waiting, computation)


_RECV, _FINISH, _RENEGE = 0, 1, 2


def reference_simulate(tasks, mode, cost, edge_slots, store=None, max_queue_delay=None):
    if len({t.id for t in tasks}) != len(tasks):
        repeated = next(i for i, c in Counter(t.id for t in tasks).items() if c > 1)
        raise ValueError(f"task id {repeated} is repeated")
    digest = workload_digest(tasks)
    if mode is Mode.CLOUD_ONLY:
        records = [_cloud_record(t, t.arrival_time, 0.0, cost) for t in tasks]
        return _aggregate(mode, records, 0.0, edge_slots, 0, 0.0, 0.0, digest)

    node = EdgeNode(
        offloaded_services=frozenset(t.service for t in tasks),
        store=store if mode is Mode.EDGE_WITH_REUSE else None,
    )
    patience = math.inf if max_queue_delay is None else max_queue_delay
    queue = deque()
    heap = []
    seq = 0

    def push(when, kind, payload):
        nonlocal seq
        heapq.heappush(heap, (when, seq, kind, payload))
        seq += 1

    for t in sorted(tasks, key=attrgetter("arrival_time", "id")):
        push(received_at(t.arrival_time, t, True, cost), _RECV, t)

    running = 0
    peak = 0
    busy = 0.0
    records = []
    area = 0.0
    first_event = last_event = heap[0][0]
    sum_time_in_system = 0.0

    def dispatch(now):
        nonlocal running, peak
        while running < edge_slots and queue:
            _, _, task, recv = queue.popleft()
            outcome = node.decide(task, now)
            duration = _service_duration(outcome, task, cost)
            running += 1
            peak = max(peak, running)
            push(now + duration, _FINISH, (task, recv, outcome, now, duration))

    while heap:
        if queue and queue[0][:2] < heap[0][:2]:
            now, kind, payload = queue[0][0], _RENEGE, None
        else:
            now, _, kind, payload = heapq.heappop(heap)
        area += (len(queue) + running) * (now - last_event)
        last_event = now

        if kind == _RECV:
            queue.append((now + patience, seq, payload, now))
            seq += 1
            dispatch(now)
        elif kind == _FINISH:
            task, recv, outcome, start, duration = payload
            running -= 1
            busy += duration
            node.complete(
                task, outcome, ResultPayload(task.object_label, task.output_size), now
            )
            finish = delivered_at(now, task, True, cost)
            records.append(
                _record(task, outcome, start, finish, start - recv, duration)
            )
            sum_time_in_system += now - recv
            dispatch(now)
        else:
            _, _, task, recv = queue.popleft()
            records.append(_cloud_record(task, now, now - recv, cost))
            sum_time_in_system += now - recv

    span = last_event - first_event
    time_avg = area / span if span > 0 else 0.0
    mean_tis = sum_time_in_system / len(tasks)
    return _aggregate(mode, records, busy, edge_slots, peak, time_avg, mean_tis, digest)


# Collinear vectors share every LSH bucket, so the store finds them: 10.3 is
# a full hit on 10.0 and 11.0 a partial hit; the last one always misses.
VECTORS = ((10.0, 0.0), (10.3, 0.0), (11.0, 0.0), (0.0, 10.0))
GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)


_TYPES = (float, int, np.float64)


def _as(as_type, value):
    """``value`` as ``as_type``, or as a float where an int would round it."""
    return float(value) if as_type is int and not value.is_integer() else as_type(value)


# one task: its vector, service, label, sizes, complexity and arrival, and
# the type of each of its four numbers
_TASK = st.tuples(
    st.integers(0, len(VECTORS) - 1),
    st.sampled_from(("s", "t")),
    st.integers(0, 1),
    st.sampled_from((0.0, 1.0, 2.0)),
    st.sampled_from((0.0, 1.0)),
    st.sampled_from((25.0, 50.0, 100.0)),
    st.sampled_from(GRID),
    st.tuples(*[st.sampled_from(_TYPES)] * 4),
)


@st.composite
def scenarios(draw):
    rows = draw(st.lists(_TASK, min_size=1, max_size=60))
    ids = draw(st.permutations(range(len(rows))))
    tasks = [
        Task(
            id=tid,
            service=service,
            object_label=f"obj-{k}-{variant}",
            features=FeatureVector(VECTORS[k]),
            input_size=_as(types[0], size_in),
            output_size=_as(types[1], size_out),
            complexity=_as(types[2], work),
            arrival_time=_as(types[3], at),
        )
        for tid, (k, service, variant, size_in, size_out, work, at, types) in zip(
            ids, rows
        )
    ]
    cost = CostParams(
        edge_bandwidth=4.0,
        cloud_bandwidth=2.0,
        edge_capacity_rate=50.0,
        cloud_capacity_rate=500.0,
        lookup_cost=0.25,
        per_hop_latency=draw(st.sampled_from((0.0, 0.25))),
    )
    store_settings = StoreSettings(
        capacity=draw(st.one_of(st.none(), st.integers(1, 5))),
        tau_full=0.5,
        tau_partial=2.0,
        partial_fraction=0.5,
        decay_interval=draw(st.sampled_from((None, 1.0, 2.5))),
    )
    return (
        tasks,
        draw(st.sampled_from(list(Mode))),
        cost,
        draw(st.integers(1, 4)),
        store_settings,
        draw(st.sampled_from((None, 0.5, 1.0, 2.0))),
    )


def assert_same_report(got: MetricsReport, want: MetricsReport) -> None:
    assert len(got.records) == len(want.records)
    for g, w in zip(got.records, want.records):
        for f in fields(TaskRecord):
            a, b = getattr(g, f.name), getattr(w, f.name)
            assert (repr(a), type(a)) == (repr(b), type(b)), f.name
    for f in fields(MetricsReport):
        if f.name != "records":
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert repr(a) == repr(b), f.name


@settings(max_examples=250, deadline=None)
@given(scenario=scenarios())
def test_simulate_matches_the_reference_loop(scenario):
    tasks, mode, cost, slots, store_settings, max_queue_delay = scenario

    def store():
        return ReuseStore(dimension=2, settings=store_settings, seed=0)

    want_store, got_store = store(), store()
    want = reference_simulate(tasks, mode, cost, slots, want_store, max_queue_delay)
    got = simulate(
        tasks, mode, cost, edge_slots=slots, store=got_store, max_queue_delay=max_queue_delay
    )
    assert_same_report(got, want)
    assert got_store.stats() == want_store.stats()
    assert got_store.eviction_log == want_store.eviction_log
