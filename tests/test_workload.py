import math

import numpy as np
import pytest

from reusesim import (
    WorkloadFileError,
    WorkloadSpec,
    generate,
    ingest,
    ramp_rate,
    redundancy_ramp,
)


def test_generate_deterministic():
    spec = WorkloadSpec(num_tasks=50, seed=123)
    a, b = generate(spec), generate(spec)
    assert a == b


def test_generate_differs_across_seeds():
    a = generate(WorkloadSpec(num_tasks=20, seed=1))
    b = generate(WorkloadSpec(num_tasks=20, seed=2))
    assert a != b


def test_zero_redundancy_all_labels_distinct():
    tasks = generate(WorkloadSpec(num_tasks=80, redundancy_rate=0.0, seed=3))
    labels = [t.object_label for t in tasks]
    assert len(set(labels)) == len(labels)


def test_full_redundancy_single_label():
    tasks = generate(WorkloadSpec(num_tasks=80, redundancy_rate=1.0, seed=4))
    assert len({t.object_label for t in tasks}) == 1


def test_expected_distinct_labels():
    # minting rule: first task mints, others mint w.p. 1-p, so
    # E[distinct] = 1 + 99 * 0.2 = 20.8 at n=100, p=0.8
    counts = [
        len({t.object_label for t in generate(WorkloadSpec(num_tasks=100, seed=s))})
        for s in range(150)
    ]
    assert abs(sum(counts) / len(counts) - 20.8) <= 1.5


def test_interarrival_statistics():
    spec = WorkloadSpec(num_tasks=10_000, arrival_rate=6.0, redundancy_rate=0.5, seed=9)
    tasks = generate(spec)
    arrivals = np.array([t.arrival_time for t in tasks])
    gaps = np.diff(np.concatenate([[0.0], arrivals]))
    assert gaps.min() > 0
    mean = gaps.mean()
    assert abs(mean - 1.0 / 6.0) <= 0.05 / 6.0
    cv = gaps.std() / mean
    assert abs(cv - 1.0) <= 0.05


def test_same_label_distances_concentrate():
    spec = WorkloadSpec(num_tasks=300, redundancy_rate=0.8, seed=10)
    tasks = generate(spec)
    by_label = {}
    for t in tasks:
        by_label.setdefault(t.object_label, []).append(np.array(t.features.values))
    same, cross = [], []
    labels = [l for l, vs in by_label.items() if len(vs) >= 2]
    for label in labels[:20]:
        vs = by_label[label]
        same.append(float(np.linalg.norm(vs[0] - vs[1])))
    keys = list(by_label)
    for a, b in zip(keys, keys[1:]):
        cross.append(float(np.linalg.norm(by_label[a][0] - by_label[b][0])))
    expected = spec.noise_sigma * math.sqrt(2 * spec.dimension)  # 0.4 at defaults
    assert max(same) < 2.0 * expected
    assert np.mean(same) == pytest.approx(expected, rel=0.25)
    assert min(cross) > 10.0 * max(same)


def test_sizes_within_ranges():
    spec = WorkloadSpec(num_tasks=200, seed=11)
    for t in generate(spec):
        assert spec.input_size_range[0] <= t.input_size <= spec.input_size_range[1]
        assert spec.output_size_range[0] <= t.output_size <= spec.output_size_range[1]
        assert spec.complexity_range[0] <= t.complexity <= spec.complexity_range[1]
        assert t.service == spec.service


def test_ramp_rate_endpoints():
    assert ramp_rate(10) == pytest.approx(0.10)
    assert ramp_rate(100) == pytest.approx(0.80)
    assert ramp_rate(55) == pytest.approx(0.45)
    assert ramp_rate(5) == pytest.approx(0.10)  # clamped
    assert ramp_rate(500) == pytest.approx(0.80)  # clamped


def test_redundancy_ramp_specs():
    specs = redundancy_ramp([10, 50, 100])
    assert [s.num_tasks for s in specs] == [10, 50, 100]
    assert [round(s.redundancy_rate, 3) for s in specs] == [0.1, 0.411, 0.8]
    with pytest.raises(ValueError):
        redundancy_ramp([])
    with pytest.raises(ValueError):
        redundancy_ramp([50, 10])


def test_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(redundancy_rate=1.5)
    with pytest.raises(ValueError):
        WorkloadSpec(arrival_rate=0.0)
    with pytest.raises(ValueError):
        WorkloadSpec(input_size_range=(5.0, 1.0))
    with pytest.raises(ValueError):
        WorkloadSpec(complexity_range=(0.0, 10.0))


@pytest.mark.parametrize(
    "field,value",
    [
        ("redundancy_rate", float("nan")),
        ("arrival_rate", float("nan")),
        ("arrival_rate", float("inf")),
        ("noise_sigma", float("inf")),
        ("input_size_range", (float("nan"), 8.0)),
        ("output_size_range", (0.1, float("inf"))),
        ("complexity_range", (50.0, float("inf"))),
    ],
)
def test_spec_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        WorkloadSpec(**{field: value})


def _dump(tmp_path, lines):
    path = tmp_path / "features.csv"
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return path


def test_ingest_valid_file(tmp_path):
    spec = WorkloadSpec(dimension=3, seed=5)
    path = _dump(
        tmp_path,
        ["cat,1.0,2.0,3.0", "dog,4.0,5.0,6.0", "cat,1.1,2.1,3.1"],
    )
    tasks = ingest(path, spec)
    assert [t.object_label for t in tasks] == ["cat", "dog", "cat"]
    assert tasks[1].features.values == (4.0, 5.0, 6.0)
    assert [t.id for t in tasks] == [0, 1, 2]
    arrivals = [t.arrival_time for t in tasks]
    assert arrivals == sorted(arrivals) and arrivals[0] > 0


def test_ingest_skips_header(tmp_path):
    spec = WorkloadSpec(dimension=2, seed=5)
    path = _dump(tmp_path, ["label,f1,f2", "cat,1.0,2.0"])
    tasks = ingest(path, spec)
    assert len(tasks) == 1 and tasks[0].object_label == "cat"


def test_ingest_dimension_error_names_line(tmp_path):
    spec = WorkloadSpec(dimension=3, seed=5)
    path = _dump(tmp_path, ["cat,1.0,2.0,3.0", "dog,4.0,5.0"])
    with pytest.raises(WorkloadFileError, match="line 2"):
        ingest(path, spec)


def test_ingest_malformed_value_names_line(tmp_path):
    spec = WorkloadSpec(dimension=2, seed=5)
    path = _dump(tmp_path, ["cat,1.0,2.0", "dog,oops,2.0"])
    with pytest.raises(WorkloadFileError, match="line 2"):
        ingest(path, spec)


def test_ingest_empty_file(tmp_path):
    spec = WorkloadSpec(dimension=2, seed=5)
    assert ingest(_dump(tmp_path, []), spec) == []


def test_ingest_deterministic(tmp_path):
    spec = WorkloadSpec(dimension=2, seed=8)
    path = _dump(tmp_path, ["a,1.0,2.0", "b,3.0,4.0"])
    assert ingest(path, spec) == ingest(path, spec)


def test_ingest_missing_file(tmp_path):
    with pytest.raises(OSError):
        ingest(tmp_path / "missing.csv", WorkloadSpec())
