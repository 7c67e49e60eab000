import hashlib
import math
import tracemalloc
from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reusesim import (
    FeatureVector,
    Task,
    WorkloadFileError,
    WorkloadSpec,
    generate,
    ingest,
    ramp_rate,
    redundancy_ramp,
)
from reusesim.sim import workload_digest
from reusesim.workload import BASE_NORM

from conftest import assert_rows_of_one_matrix


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


def test_generated_and_ingested_vectors_are_rows_of_one_matrix(tmp_path):
    path = _dump(tmp_path, ["cat,1.0,2.0,3.0", "dog,4.0,5.0,6.0"])
    for tasks in (
        generate(WorkloadSpec(num_tasks=20, dimension=3, seed=5)),
        ingest(path, WorkloadSpec(dimension=3, seed=5)),
    ):
        assert_rows_of_one_matrix(tasks)
        # the matrix that owns the rows is read-only too
        assert not tasks[0].features._array.base.flags.writeable


def test_generated_tasks_hold_under_1000_bytes_each():
    # a 32-d float64 row is 256 bytes of the budget; a tuple of 32 Python
    # floats per task would take ~1000 more
    spec = WorkloadSpec(num_tasks=8000, dimension=32)
    generate(replace(spec, num_tasks=10))  # first-call allocations are not held
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tasks = generate(spec)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / len(tasks) <= 1000


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


@pytest.mark.parametrize("value", ["oops", "nan", "inf", "-inf"])
def test_ingest_malformed_value_names_line(tmp_path, value):
    spec = WorkloadSpec(dimension=2, seed=5)
    path = _dump(tmp_path, ["cat,1.0,2.0", f"dog,{value},2.0"])
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


# --- the per-task generator the columnar one replaced, kept as its oracle ---


@dataclass
class ObjectCatalog:
    """Labelled base vectors; observations of one label differ only by noise."""

    dimension: int
    noise_sigma: float
    objects: dict[str, np.ndarray] = field(default_factory=dict)
    labels: list[str] = field(default_factory=list)

    def mint(self, rng: np.random.Generator) -> str:
        label = f"obj-{len(self.labels):05d}"
        g = rng.standard_normal(self.dimension)
        self.objects[label] = BASE_NORM * g / np.linalg.norm(g)
        self.labels.append(label)
        return label

    def observe(self, label: str, rng: np.random.Generator) -> FeatureVector:
        base = self.objects[label]
        noisy = base + self.noise_sigma * rng.standard_normal(self.dimension)
        return FeatureVector(tuple(noisy.tolist()))


def _draw_task(
    spec: WorkloadSpec,
    rng: np.random.Generator,
    task_id: int,
    label: str,
    features: FeatureVector,
    clock: float,
) -> Task:
    """One task arriving after ``clock``; draws sizes, complexity, inter-arrival."""
    input_size = float(rng.uniform(*spec.input_size_range))
    output_size = float(rng.uniform(*spec.output_size_range))
    complexity = float(rng.uniform(*spec.complexity_range))
    return Task(
        id=task_id,
        service=spec.service,
        object_label=label,
        features=features,
        input_size=input_size,
        output_size=output_size,
        complexity=complexity,
        arrival_time=clock + float(rng.exponential(1.0 / spec.arrival_rate)),
    )


def reference_generate(spec: WorkloadSpec) -> list[Task]:
    """Generate the task list for a spec; deterministic given the seed."""
    rng = np.random.default_rng(spec.seed)
    catalog = ObjectCatalog(dimension=spec.dimension, noise_sigma=spec.noise_sigma)
    tasks: list[Task] = []
    clock = 0.0
    for i in range(spec.num_tasks):
        if catalog.labels and rng.random() < spec.redundancy_rate:
            label = catalog.labels[int(rng.integers(0, len(catalog.labels)))]
        else:
            label = catalog.mint(rng)
        task = _draw_task(spec, rng, i, label, catalog.observe(label, rng), clock)
        tasks.append(task)
        clock = task.arrival_time
    return tasks


def reference_ingest(path, spec: WorkloadSpec) -> list[Task]:
    """Build tasks from an externally produced feature dump.

    File format: one record per line, ``label,v1,...,vd`` with an optional
    ``label,f1,...,fd`` header.  Labels and features come from the file;
    arrival times, sizes, and complexities are drawn from the spec exactly
    as in ``generate``.
    """
    records: list[tuple[str, tuple[float, ...]]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            label = parts[0]
            try:
                values = tuple(float(p) for p in parts[1:])
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise WorkloadFileError(
                    f"line {lineno}: non-numeric feature value"
                ) from None
            if len(values) != spec.dimension:
                raise WorkloadFileError(
                    f"line {lineno}: expected {spec.dimension} feature values, "
                    f"got {len(values)}"
                )
            records.append((label, values))
    rng = np.random.default_rng(spec.seed)
    tasks: list[Task] = []
    clock = 0.0
    for i, (label, values) in enumerate(records):
        task = _draw_task(spec, rng, i, label, FeatureVector(values), clock)
        tasks.append(task)
        clock = task.arrival_time
    return tasks


def _size_range(lo_min):
    lo = st.floats(lo_min, 100.0)
    return st.one_of(
        lo.map(lambda v: (v, v)),
        st.tuples(lo, st.floats(0.0, 100.0)).map(lambda p: (p[0], p[0] + p[1])),
    )


specs = st.builds(
    WorkloadSpec,
    num_tasks=st.integers(0, 60),
    redundancy_rate=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    arrival_rate=st.floats(0.01, 1000.0),
    input_size_range=_size_range(0.0),
    output_size_range=_size_range(0.0),
    complexity_range=_size_range(0.001),
    dimension=st.integers(1, 8),
    noise_sigma=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    seed=st.integers(0, 2**63),
)


@settings(max_examples=300, deadline=None)
@given(spec=specs)
def test_generate_matches_the_per_task_reference(spec):
    tasks, expected = generate(spec), reference_generate(spec)
    assert tasks == expected
    assert workload_digest(tasks) == workload_digest(expected)


@settings(max_examples=100, deadline=None)
@given(spec=specs)
def test_ingest_matches_the_per_task_reference(tmp_path_factory, spec):
    path = tmp_path_factory.mktemp("dump") / "features.csv"
    lines = ["label," + ",".join(f"f{k}" for k in range(spec.dimension))]
    for t in generate(spec):
        lines.append(",".join([t.object_label, *map(repr, t.features.values)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tasks, expected = ingest(path, spec), reference_ingest(path, spec)
    assert tasks == expected
    assert workload_digest(tasks) == workload_digest(expected)


def test_generated_tasks_hold_plain_floats():
    task = generate(WorkloadSpec(num_tasks=1, dimension=3))[0]
    assert type(task.features.values) is tuple
    assert {type(v) for v in task.features.values} == {float}
    assert type(task.arrival_time) is float and type(task.complexity) is float


# the benchmark's specs at seed 301 (perfbench/workloads.py), digested before
# generation moved to columns; sweep pins the hash of its 100 run digests
def test_workload_digests_are_pinned():
    churn = WorkloadSpec(
        num_tasks=3000, redundancy_rate=0.2, arrival_rate=17.0, seed=301
    )
    hot = WorkloadSpec(
        num_tasks=8000, redundancy_rate=0.9, noise_sigma=0.12, seed=301
    )
    sweep = [
        replace(s, seed=301 + trial)
        for s in redundancy_ramp(range(10, 101, 10), WorkloadSpec())
        for trial in range(10)
    ]
    assert workload_digest(generate(churn)) == "6ff9e704aa975f7151320a4b1fbbbf06"
    assert workload_digest(generate(hot)) == "ec88a2b1e220b4ef5135a0952859cbd1"
    digests = "".join(workload_digest(generate(s)) for s in sweep)
    assert hashlib.sha256(digests.encode()).hexdigest() == (
        "ab3a9c77c5b31e2b5eb2020e195520aa896d6459f5a18460737405052326d3af"
    )
