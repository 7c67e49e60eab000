"""The names and shapes the traced benchmark (``perfbench/``) reads.

``perfbench/layers.py`` wraps program functions by name and reads a few
result shapes.  A rename here would otherwise surface only when the traced
benchmark runs; these tests make it fail with the rest of the suite.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
from tracing import Clock, Patches, Tracer  # noqa: E402

from reusesim import FeatureVector, LookupKind, LshIndex, LshSettings  # noqa: E402
from reusesim.sim import Mode, SimConfig, run  # noqa: E402
from reusesim.workload import WorkloadSpec  # noqa: E402


class RecordingPatches(Patches):
    """``Patches`` that keeps every (owner, attribute, original) it replaces."""

    def __init__(self) -> None:
        super().__init__()
        self.points = []

    def replace(self, owner, attr, make):
        name = getattr(owner, "__name__", owner)
        assert attr in vars(owner), f"perfbench wraps {name}.{attr}, which is missing"
        self.points.append((owner, attr, vars(owner)[attr]))
        super().replace(owner, attr, make)


def test_wrapped_attributes_exist_and_restore():
    patches = RecordingPatches()
    counters = layers.LayerCounters()
    layers.install(patches, Tracer(Clock()), counters)
    try:
        assert len(patches.points) > 20
        # a traced run exercises the observers' reads of lookup results,
        # store entries and query results
        config = SimConfig(
            mode=Mode.EDGE_WITH_REUSE, workload=WorkloadSpec(num_tasks=40)
        )
        run(config)
    finally:
        patches.restore()
    for owner, attr, original in patches.points:
        assert vars(owner)[attr] is original
    assert sum(counters.kinds.values()) == 40
    assert counters.recall_checked >= 1


def test_lookup_kinds_match_the_counters():
    assert {k.value for k in LookupKind} == set(layers.LayerCounters().kinds)


def test_query_returns_int_float_pairs():
    idx = LshIndex(LshSettings(num_tables=2, bits_per_table=4), 3, 0)
    idx.insert(7, FeatureVector([1.0, 2.0, 3.0]))
    result = idx.query(FeatureVector([1.0, 2.0, 3.5]))
    assert isinstance(result, list) and len(result) == 1
    ((entry_id, dist),) = result
    assert type(entry_id) is int and type(dist) is float
    assert (entry_id, dist) == (7, 0.5)
