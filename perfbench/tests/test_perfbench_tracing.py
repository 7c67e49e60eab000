import time

import pytest

from tracing import Clock, Patches, Tracer, covered, layer_summary, nearest_rank, self_times


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a: together they cover [1, 6]
        ("c", 8.0, 12.0, 0),  # runs past its parent: only [8, 10] counts
        ("a1", 2.0, 3.0, 1),  # grandchild: counts against a, not root
        ("leaf", 5.0, 5.5, 2),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 2.5, 4.0, 1.0, 0.5])


def test_covered_clips_and_merges():
    assert covered(0.0, 1.0, []) == 0.0
    assert covered(0.0, 1.0, [(0.5, 2.0), (-1.0, 0.25), (0.6, 0.7)]) == pytest.approx(0.75)


def test_layer_summary_counts_calls_and_quantiles():
    spans = [("op", float(i), float(i) + 1e-6 * (i + 1), -1) for i in range(100)]
    summary = layer_summary(spans)["op"]
    assert summary["calls"] == 100
    assert summary["us_p50"] == pytest.approx(50.0)
    assert summary["us_p99"] == pytest.approx(99.0)
    assert nearest_rank([], 0.5) == 0.0


def test_tracer_records_parents_and_excludes_observer_time():
    clock = Clock()
    tracer = Tracer(clock)
    inner = tracer.wrap("inner", lambda x: x + 1, observe=lambda *_: time.sleep(0.05))
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    spans = tracer.spans
    assert [(name, parent) for name, _, _, parent in spans] == [("outer", -1), ("inner", 0)]
    assert spans[0][2] - spans[0][1] < 0.05
    assert clock.excluded_s >= 0.05


def test_patches_restore_in_reverse_order():
    class Owner:
        def f(self):
            return "original"

    original = vars(Owner)["f"]
    patches = Patches()
    patches.replace(Owner, "f", lambda fn: lambda self: "first")
    patches.replace(Owner, "f", lambda fn: lambda self: "second " + fn(self))
    assert Owner().f() == "second first"
    patches.restore()
    assert vars(Owner)["f"] is original
