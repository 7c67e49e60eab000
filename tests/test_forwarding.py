import math
import random

import numpy as np
import pytest

from reusesim import (
    EdgeNode,
    FeatureVector,
    OutcomeKind,
    ReuseStore,
    StoreSettings,
    Task,
)
from reusesim.core import CLOUD_OFFLOAD, EDGE_COMPUTE

from conftest import make_task


def fresh_node(capacity=None, seed=0, **store_kwargs):
    store = ReuseStore(
        dimension=4, settings=StoreSettings(capacity=capacity, **store_kwargs), seed=seed
    )
    return EdgeNode(offloaded_services=frozenset({"svc"}), store=store)


def svc_task(task_id, values, service="svc", label=None):
    return make_task(
        task_id=task_id,
        service=service,
        label=label or f"obj-{task_id}",
        values=values,
    )


def test_not_offloaded_goes_to_cloud():
    node = fresh_node()
    t = svc_task(0, (1.0, 0.0, 0.0, 0.0), service="elsewhere")
    assert node.decide(t, 0.0).kind is OutcomeKind.CLOUD_OFFLOAD


def test_fresh_input_computes_at_edge():
    node = fresh_node()
    t = svc_task(0, (1.0, 0.0, 0.0, 0.0))
    assert node.decide(t, 0.0).kind is OutcomeKind.EDGE_COMPUTE


def test_repeat_input_full_reuse():
    node = fresh_node()
    t0 = svc_task(0, (1.0, 0.0, 0.0, 0.0), label="same")
    o0 = node.decide(t0, 0.0)
    node.complete(t0, o0, "same", 0.1)
    t1 = svc_task(1, (1.0, 0.0, 0.0, 0.0), label="same")
    o1 = node.decide(t1, 1.0)
    assert o1.kind is OutcomeKind.FULL_REUSE
    assert o1.matched_entry.output == "same"
    assert o1.reused_fraction == 1.0


def test_complete_places_only_computed_results():
    node = fresh_node()
    t0 = svc_task(0, (1.0, 0.0, 0.0, 0.0))
    o0 = node.decide(t0, 0.0)
    node.complete(t0, o0, "r", 0.1)
    assert node.store.entry_count("svc") == 1

    t1 = svc_task(1, (1.0, 0.0, 0.0, 0.0))
    o1 = node.decide(t1, 1.0)
    assert o1.kind is OutcomeKind.FULL_REUSE
    node.complete(t1, o1, "r", 1.1)
    assert node.store.entry_count("svc") == 1  # full hits are not re-stored

    t2 = svc_task(2, (9.0, 9.0, 9.0, 9.0), service="elsewhere")
    o2 = node.decide(t2, 2.0)
    node.complete(t2, o2, "c", 2.1)
    assert node.store.entry_count("elsewhere") == 0  # cloud results not cached


def test_partial_reuse_places_residual_result():
    node = EdgeNode(
        offloaded_services=frozenset({"svc"}),
        store=ReuseStore(
            dimension=2,
            settings=StoreSettings(tau_full=1.0, tau_partial=5.0, partial_fraction=0.5),
            seed=1,
        ),
    )
    t0 = make_task(task_id=0, service="svc", values=(10.0, 0.0))
    node.complete(t0, node.decide(t0, 0.0), "a", 0.1)
    t1 = make_task(task_id=1, service="svc", values=(13.0, 0.0))  # distance 3
    o1 = node.decide(t1, 1.0)
    assert o1.kind is OutcomeKind.PARTIAL_REUSE
    assert o1.reused_fraction == pytest.approx(0.5)
    node.complete(t1, o1, "b", 1.1)
    assert node.store.entry_count("svc") == 2


@pytest.mark.parametrize("fraction", [0.1, 0.3, 0.7])
def test_partial_reuse_carries_configured_fraction_exactly(fraction):
    node = EdgeNode(
        offloaded_services=frozenset({"svc"}),
        store=ReuseStore(
            dimension=2,
            settings=StoreSettings(
                tau_full=1.0, tau_partial=5.0, partial_fraction=fraction
            ),
            seed=1,
        ),
    )
    t0 = make_task(task_id=0, service="svc", values=(10.0, 0.0))
    node.complete(t0, node.decide(t0, 0.0), "a", 0.1)
    t1 = make_task(task_id=1, service="svc", values=(13.0, 0.0))  # distance 3
    o1 = node.decide(t1, 1.0)
    assert o1.kind is OutcomeKind.PARTIAL_REUSE
    assert o1.reused_fraction == fraction


def test_store_disabled_never_reuses():
    node = EdgeNode(offloaded_services=frozenset({"svc"}), store=None)
    rng = np.random.default_rng(0)
    kinds = set()
    for i in range(30):
        values = tuple(rng.standard_normal(4).tolist())
        t = svc_task(i, values)
        o = node.decide(t, float(i))
        kinds.add(o.kind)
        node.complete(t, o, "x", float(i))
    assert kinds == {OutcomeKind.EDGE_COMPUTE}


def _replay(tasks, node):
    outcomes = []
    for i, t in enumerate(tasks):
        o = node.decide(t, float(i))
        node.complete(t, o, t.object_label, float(i))
        outcomes.append(o.kind)
    return outcomes


def _task_mix(seed, n=40):
    rng = np.random.default_rng(seed)
    bases = []
    tasks = []
    for i in range(n):
        if not bases or rng.random() < 0.4:
            g = rng.standard_normal(4)
            bases.append(tuple((10.0 * g / np.linalg.norm(g)).tolist()))
            values = bases[-1]
        else:
            values = bases[int(rng.integers(0, len(bases)))]
        service = "svc" if rng.random() < 0.8 else "other"
        tasks.append(
            svc_task(i, values, service=service, label=f"o{hash(values) & 0xffff}")
        )
    return tasks


def test_enabling_store_never_adds_edge_computes():
    for seed in range(5):
        tasks = _task_mix(seed)
        plain = _replay(tasks, EdgeNode(frozenset({"svc"}), store=None))
        with_store = _replay(tasks, fresh_node(seed=seed))
        assert plain.count(OutcomeKind.FULL_REUSE) == 0
        assert plain.count(OutcomeKind.PARTIAL_REUSE) == 0
        assert with_store.count(OutcomeKind.EDGE_COMPUTE) <= plain.count(
            OutcomeKind.EDGE_COMPUTE
        )


def test_decide_exhaustive_over_kinds():
    tasks = _task_mix(3)
    node = EdgeNode(
        offloaded_services=frozenset({"svc"}),
        store=ReuseStore(
            dimension=4,
            settings=StoreSettings(tau_full=1.0, tau_partial=6.0, partial_fraction=0.5),
            seed=3,
        ),
    )
    for i, t in enumerate(tasks):
        o = node.decide(t, float(i))
        assert o.kind in OutcomeKind
        node.complete(t, o, t.object_label, float(i))


def test_decide_is_label_blind():
    tasks = _task_mix(8)
    outcomes_a = _replay(tasks, fresh_node(seed=8))
    rng = random.Random(0)
    labels = [t.object_label for t in tasks]
    rng.shuffle(labels)
    relabeled = [
        Task(
            id=t.id,
            service=t.service,
            object_label=new_label,
            features=t.features,
            input_size=t.input_size,
            output_size=t.output_size,
            complexity=t.complexity,
            arrival_time=t.arrival_time,
        )
        for t, new_label in zip(tasks, labels)
    ]
    outcomes_b = _replay(relabeled, fresh_node(seed=8))
    assert outcomes_a == outcomes_b


class ReferenceInterpreter:
    """Independent model of the forwarding scheme: full-scan nearest
    neighbour, threshold classification, LFU with the documented tie-breaks,
    and placement after every from-scratch computation (miss and partial
    residual), never after a full hit or a cloud offload."""

    def __init__(self, offloaded, tau_full, tau_partial, capacity):
        self.offloaded = offloaded
        self.tau_full = tau_full
        self.tau_partial = tau_partial
        self.capacity = capacity
        self.entries: dict[int, list] = {}  # id -> [service, values, freq, used, id]
        self.next_id = 0

    def _place(self, service, values, now):
        svc = [e for e in self.entries.values() if e[0] == service]
        if self.capacity is not None and len(svc) >= self.capacity:
            victim = min(svc, key=lambda e: (e[2], e[3], e[4]))
            del self.entries[victim[4]]
        self.entries[self.next_id] = [service, values, 0, now, self.next_id]
        self.next_id += 1

    def process(self, task, now):
        if task.service not in self.offloaded:
            return ("cloud_offload", None)
        best = None
        for e in self.entries.values():
            if e[0] != task.service:
                continue
            d = math.dist(task.features.values, e[1])
            if best is None or (d, e[4]) < (best[0], best[1]):
                best = (d, e[4], e)
        if best is None or best[0] > self.tau_partial:
            self._place(task.service, task.features.values, now)
            return ("edge_compute", None)
        dist, eid, entry = best
        entry[2] += 1
        entry[3] = now
        if dist <= self.tau_full:
            return ("full_reuse", eid)
        self._place(task.service, task.features.values, now)
        return ("partial_reuse", eid)


def trace_pair(seed, n=40, dimension=32):
    """Drive the real node and the interpreter over one random task sequence.

    Repeats are exact copies (distance 0) or parallel rescalings of a base
    vector (identical hash signature by construction, distance 3), so index
    recall is guaranteed and both sides see identical candidate geometry.
    """
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    capacity = rng.choice([2, 3, 4, None])
    offloaded = frozenset({"svc-a", "svc-b"})
    store = ReuseStore(
        dimension=dimension,
        settings=StoreSettings(
            capacity=capacity, tau_full=1.0, tau_partial=6.0, partial_fraction=0.5
        ),
        seed=seed,
    )
    node = EdgeNode(offloaded_services=offloaded, store=store)
    interp = ReferenceInterpreter(offloaded, 1.0, 6.0, capacity)
    bases = []
    real, model = [], []
    for i in range(n):
        service = rng.choice(["svc-a", "svc-b", "remote"])
        r = rng.random()
        if not bases or r < 0.4:
            g = nprng.standard_normal(dimension)
            vec = tuple((10.0 * g / np.linalg.norm(g)).tolist())
            bases.append(vec)
        elif r < 0.75:
            vec = rng.choice(bases)
        else:
            vec = tuple(1.3 * x for x in rng.choice(bases))
        t = Task(
            id=i,
            service=service,
            object_label=f"o{i}",
            features=FeatureVector(vec),
            input_size=1.0,
            output_size=1.0,
            complexity=10.0,
            arrival_time=float(i),
        )
        o = node.decide(t, float(i))
        node.complete(t, o, t.object_label, float(i))
        real.append((o.kind.value, o.matched_entry.id if o.matched_entry else None))
        model.append(interp.process(t, float(i)))
    return real, model


def test_trace_matches_reference_interpreter():
    for seed in range(20):
        real, model = trace_pair(seed)
        assert real == model


def test_non_reuse_outcomes_are_the_shared_constants():
    node = fresh_node()
    assert node.decide(svc_task(0, [1.0, 0.0, 0.0, 0.0], service="other"), 0.0) is (
        CLOUD_OFFLOAD
    )
    assert node.decide(svc_task(1, [1.0, 0.0, 0.0, 0.0]), 0.0) is EDGE_COMPUTE  # miss
    plain = EdgeNode(offloaded_services=frozenset({"svc"}))
    assert plain.decide(svc_task(2, [1.0, 0.0, 0.0, 0.0]), 0.0) is EDGE_COMPUTE
