"""Workload generation and ingestion.

A scalar model of the block draw order (one ``Generator`` call per value, a
per-row norm and a running-sum clock) must return the tasks that
``generate`` and ``ingest`` return, over Hypothesis specs; the ``ingest``
round trip of a ``repr`` dump and the paired draws are checked too.  The
earlier workload digest, one ``repr`` line per task, is kept as the oracle
of the generated workloads.  Both digests are pinned for the benchmark's
workloads, and the byte layout of ``sim.workload_digest`` is rebuilt with
``struct.pack`` for hand-made task lists.
"""

import hashlib
import math
import struct
import tracemalloc
import warnings
from dataclasses import replace

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
from reusesim import workload
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
    with pytest.raises(ValueError, match="^num_tasks must be >= 0$"):
        WorkloadSpec(num_tasks=-1)
    with pytest.raises(ValueError, match="^noise_sigma must be >= 0$"):
        WorkloadSpec(noise_sigma=-0.01)
    for field in ("num_tasks", "dimension", "seed"):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got 2.5$"):
            WorkloadSpec(**{field: 2.5})
    for bad in ((1.0,), (1.0, 2.0, 3.0), 3.0):
        with pytest.raises(ValueError, match=r"^input_size_range must be a \(lo, hi\) pair"):
            WorkloadSpec(input_size_range=bad)


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
        ("noise_sigma", None),
        ("input_size_range", (None, 8.0)),
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


# --- an independent scalar model of the block draw order, kept as its oracle:
# one scalar Generator call per value, per-row norms and a running-sum clock ---


def _reference_sizes_and_arrivals(
    spec: WorkloadSpec, rng: np.random.Generator, n: int
) -> list[tuple[float, float, float, float]]:
    """The first two blocks: every task's three sizes, then every gap."""
    ranges = (spec.input_size_range, spec.output_size_range, spec.complexity_range)
    sizes = [
        tuple(lo + (hi - lo) * rng.random() for lo, hi in ranges) for _ in range(n)
    ]
    rows, clock = [], 0.0
    for size in sizes:
        clock += rng.standard_exponential() / spec.arrival_rate
        rows.append((*size, clock))
    return rows


def _reference_task(spec, task_id, label, features, row) -> Task:
    input_size, output_size, complexity, arrival = row
    return Task(
        id=task_id,
        service=spec.service,
        object_label=label,
        features=features,
        input_size=input_size,
        output_size=output_size,
        complexity=complexity,
        arrival_time=arrival,
    )


def reference_generate(spec: WorkloadSpec) -> list[Task]:
    n, d = spec.num_tasks, spec.dimension
    rng = np.random.default_rng(spec.seed)
    rows = _reference_sizes_and_arrivals(spec, rng, n)
    # task 0 draws no coin
    repeats = [i > 0 and rng.random() < spec.redundancy_rate for i in range(n)]
    noise = [[rng.standard_normal() for _ in range(d)] for _ in range(n)]
    bases = []
    for _ in range(repeats.count(False)):
        g = np.array([rng.standard_normal() for _ in range(d)])
        bases.append(BASE_NORM * g / math.sqrt(g @ g))
    tasks, minted = [], 0
    for i, repeat in enumerate(repeats):
        if repeat:
            obj = int(rng.integers(0, minted))
        else:
            obj, minted = minted, minted + 1
        values = tuple(
            float(b + spec.noise_sigma * z) for b, z in zip(bases[obj], noise[i])
        )
        label = f"obj-{obj:05d}"
        tasks.append(_reference_task(spec, i, label, FeatureVector(values), rows[i]))
    return tasks


def reference_ingest(path, spec: WorkloadSpec) -> list[Task]:
    """Labels and features from the file, then the first two draw blocks."""
    records: list[tuple[str, tuple[float, ...]]] = []
    nonblank = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            nonblank += 1
            label, *fields = line.split(",")
            parsed = []
            for text in fields:
                try:
                    parsed.append(float(text))
                except ValueError:
                    parsed.append(None)
            if None in parsed:
                if nonblank == 1 and parsed.count(None) == len(parsed):
                    if len(parsed) != spec.dimension:
                        raise WorkloadFileError(
                            f"line {lineno}: header names {len(parsed)} features, "
                            f"expected {spec.dimension}"
                        )
                    continue  # header row
                raise WorkloadFileError(f"line {lineno}: non-numeric feature value")
            if len(parsed) != spec.dimension:
                raise WorkloadFileError(
                    f"line {lineno}: expected {spec.dimension} feature values, "
                    f"got {len(parsed)}"
                )
            if not all(map(math.isfinite, parsed)):
                raise WorkloadFileError(f"line {lineno}: non-finite feature value")
            if '"' in label:  # the only cell breaker a split line can leave
                raise WorkloadFileError(
                    f'line {lineno}: label must not hold , " CR or LF'
                )
            records.append((label, tuple(parsed)))
    rng = np.random.default_rng(spec.seed)
    rows = _reference_sizes_and_arrivals(spec, rng, len(records))
    return [
        _reference_task(spec, i, label, FeatureVector(values), row)
        for i, ((label, values), row) in enumerate(zip(records, rows))
    ]


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


@pytest.mark.parametrize("rows", [1, 7, 59, 60])
def test_generate_adds_the_bases_in_blocks_bit_for_bit(monkeypatch, rows):
    # blocks smaller than the run, and one that does not divide it, give the
    # per-task reference's feature bytes
    spec = WorkloadSpec(num_tasks=59, redundancy_rate=0.7, dimension=5, seed=11)
    expected = reference_generate(spec)
    monkeypatch.setattr(workload, "_GATHER_ROWS", rows)
    tasks = generate(spec)
    assert tasks == expected
    assert np.array([t.features.values for t in tasks]).tobytes() == np.array(
        [t.features.values for t in expected]
    ).tobytes()


def _repr_dump(tmp_path_factory, spec, tasks):
    """A feature dump of ``tasks`` with a header row, each float as its repr."""
    path = tmp_path_factory.mktemp("dump") / "features.csv"
    lines = ["label," + ",".join(f"f{k}" for k in range(spec.dimension))]
    for t in tasks:
        lines.append(",".join([t.object_label, *map(repr, t.features.values)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@settings(max_examples=100, deadline=None)
@given(spec=specs)
def test_ingest_matches_the_per_task_reference(tmp_path_factory, spec):
    path = _repr_dump(tmp_path_factory, spec, generate(spec))
    tasks, expected = ingest(path, spec), reference_ingest(path, spec)
    assert tasks == expected
    assert workload_digest(tasks) == workload_digest(expected)


@pytest.mark.parametrize("ingest_", [ingest, reference_ingest])
@pytest.mark.parametrize(
    "first", ["obj-a,1.0,abc", "label,1.0,f2", "obj-a,abc,def,1.0"]
)
def test_ingest_rejects_a_malformed_first_record(tmp_path, ingest_, first):
    # line 1 is a header only when none of its feature fields parses
    spec = WorkloadSpec(dimension=2, seed=5)
    path = _dump(tmp_path, [first, "obj-b,2.0,3.0"])
    with pytest.raises(WorkloadFileError, match="^line 1: non-numeric feature value$"):
        ingest_(path, spec)


@pytest.mark.parametrize("ingest_", [ingest, reference_ingest])
@pytest.mark.parametrize(
    "lines,line",
    [
        (['"cat,1.0,2.0', "dog,3.0,4.0", '"cat,1.1,2.0'], 1),
        (["label,f1,f2", "cat,1.0,2.0", 'd"og,3.0,4.0'], 3),
    ],
)
def test_ingest_rejects_a_label_holding_a_quote(tmp_path, ingest_, lines, line):
    # a quoted tasks.csv cell would swallow the separators up to the next quote
    spec = WorkloadSpec(dimension=2, seed=5)
    path = _dump(tmp_path, lines)
    with pytest.raises(
        WorkloadFileError, match=f'^line {line}: label must not hold , " CR or LF$'
    ):
        ingest_(path, spec)


@pytest.mark.parametrize("ingest_", [ingest, reference_ingest])
@pytest.mark.parametrize("blanks", [0, 1, 2])
def test_ingest_takes_the_first_nonblank_line_as_the_header(tmp_path, ingest_, blanks):
    spec = WorkloadSpec(dimension=2, seed=5)
    path = _dump(tmp_path, [""] * blanks + ["label,f1,f2", "cat,1.0,2.0"])
    tasks = ingest_(path, spec)
    assert [t.object_label for t in tasks] == ["cat"]
    assert tasks[0].features.values == (1.0, 2.0)


@pytest.mark.parametrize("ingest_", [ingest, reference_ingest])
@pytest.mark.parametrize("names", [["f1"], ["f1", "f2", "f3"]])
@pytest.mark.parametrize("blanks", [0, 1])
def test_ingest_rejects_a_header_of_another_dimension(tmp_path, ingest_, names, blanks):
    spec = WorkloadSpec(dimension=2, seed=5)
    path = _dump(tmp_path, [""] * blanks + [",".join(["label", *names]), "cat,1.0,2.0"])
    line = blanks + 1
    with pytest.raises(
        WorkloadFileError,
        match=f"^line {line}: header names {len(names)} features, expected 2$",
    ):
        ingest_(path, spec)


@pytest.mark.parametrize("ingest_", [ingest, reference_ingest])
@pytest.mark.parametrize(
    "lines", [["cat,1.0,2.0", "label,f1,f2"], ["label,f1,f2", "label,f1,f2"]]
)
def test_ingest_takes_no_header_after_the_first_nonblank_line(tmp_path, ingest_, lines):
    spec = WorkloadSpec(dimension=2, seed=5)
    path = _dump(tmp_path, lines)
    with pytest.raises(WorkloadFileError, match="^line 2: non-numeric feature value$"):
        ingest_(path, spec)


@settings(max_examples=100, deadline=None)
@given(spec=specs)
def test_ingest_of_a_repr_dump_is_generate(tmp_path_factory, spec):
    # ingest draws the same first two blocks as generate, and repr round-trips
    generated = generate(spec)
    tasks = ingest(_repr_dump(tmp_path_factory, spec, generated), spec)
    assert tasks == generated
    assert workload_digest(tasks) == workload_digest(generated)


def _columns(tasks):
    return [(t.input_size, t.output_size, t.complexity, t.arrival_time) for t in tasks]


def _repeated_ids(tasks):
    seen, repeated = set(), set()
    for t in tasks:
        if t.object_label in seen:
            repeated.add(t.id)
        seen.add(t.object_label)
    return repeated


@settings(max_examples=100, deadline=None)
@given(
    spec=specs,
    rates=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
    noise_sigma=st.floats(0.0, 5.0),
    dimension=st.integers(1, 8),
)
def test_draws_are_paired_across_redundancy_noise_dimension_and_service(
    spec, rates, noise_sigma, dimension
):
    # sizes and arrivals are drawn first, so only the seed, the task count,
    # the ranges and the arrival rate set them (common random numbers)
    low, high = (replace(spec, redundancy_rate=r) for r in rates)
    variants = [
        low,
        high,
        replace(spec, noise_sigma=noise_sigma),
        replace(spec, dimension=dimension),
        replace(spec, service="other"),
    ]
    columns = _columns(generate(spec))
    for variant in variants:
        assert _columns(generate(variant)) == columns
    # each repeat coin is compared with the rate, so a higher rate only turns
    # new tasks into repeats
    assert _repeated_ids(generate(low)) <= _repeated_ids(generate(high))


def test_generated_tasks_hold_plain_floats():
    task = generate(WorkloadSpec(num_tasks=1, dimension=3))[0]
    assert type(task.features.values) is tuple
    assert {type(v) for v in task.features.values} == {float}
    assert type(task.arrival_time) is float and type(task.complexity) is float


def repr_digest(tasks) -> str:
    """The workload digest as the program took it before it hashed columns.

    One line per task of its id, its label and the ``repr`` of its four float
    fields.  It is the oracle that keeps the generated-workload pins below:
    ``repr`` round-trips every float, so these pins hold every bit of each
    task's sizes, complexity and arrival time.
    """
    h = hashlib.blake2b(digest_size=16)
    for t in tasks:
        h.update(
            f"{t.id},{t.object_label},{t.arrival_time!r},{t.input_size!r},"
            f"{t.output_size!r},{t.complexity!r}|".encode()
        )
    return h.hexdigest()


# the benchmark's specs at seed 301 (perfbench/workloads.py), digested in the
# block draw order, by the repr oracle and by the program: churn, hot, and the
# hash of sweep's 100 run digests
PINS = {
    repr_digest: (
        "d50a487dfdec51f908502bf5837f33af",
        "69fb4d66f7f4a98c4e1b4fdd2491895c",
        "6bea15da10462b34b5bc8be5761901397168c18ba62f66ad2a22a328074e2ece",
    ),
    workload_digest: (
        "17945b4b22eaf5fba28567ba283b93c8",
        "4fe65b45c12034f59be707258575b7cb",
        "c023dfbf4948de718a466d6a639ab986200f470debf008f9b0dc732021170036",
    ),
}


def test_workload_digests_are_pinned():
    churn = generate(
        WorkloadSpec(num_tasks=3000, redundancy_rate=0.2, arrival_rate=17.0, seed=301)
    )
    hot = generate(
        WorkloadSpec(num_tasks=8000, redundancy_rate=0.9, noise_sigma=0.12, seed=301)
    )
    sweep = [
        generate(replace(s, seed=301 + trial))
        for s in redundancy_ramp(range(10, 101, 10), WorkloadSpec())
        for trial in range(10)
    ]
    for digest, pins in PINS.items():
        digests = "".join(map(digest, sweep))
        assert (
            digest(churn),
            digest(hot),
            hashlib.sha256(digests.encode()).hexdigest(),
        ) == pins, digest.__name__


# --- the digest's byte layout, built field by field with struct ---


def packed_digest(tasks) -> str:
    """``workload_digest`` from its documented layout, one value at a time."""
    ids = "[" + ", ".join("%d" % t.id for t in tasks) + "]\n"
    lengths = b"".join(struct.pack("<q", len(t.object_label)) for t in tasks)
    labels = b"".join(t.object_label.encode("utf-8", "surrogatepass") for t in tasks)
    floats = b"".join(
        struct.pack("<d", getattr(t, name))
        for name in ("input_size", "output_size", "complexity", "arrival_time")
        for t in tasks
    )
    return hashlib.blake2b(
        ids.encode() + lengths + labels + floats, digest_size=16
    ).hexdigest()


def _task(
    task_id=0, label="a", input_size=1.0, output_size=0.5, complexity=2.0, arrival=0.0
) -> Task:
    return Task(
        task_id, "svc", label, FeatureVector([0.0]),
        input_size, output_size, complexity, arrival,
    )


HAND_MADE = [
    [],
    [_task()],
    [
        _task(7, "ab", 4.25, arrival=0.1),
        _task(-3, "", 0.0, complexity=1e-300, arrival=0.1),
        _task(2**70, "猫-é", 5, arrival=2.5),  # an id outside int64, an int size
        _task(1, "\ud800,|", 5e-324, output_size=-0.0, arrival=1e16),
    ],
    generate(WorkloadSpec(num_tasks=30, dimension=2, seed=4)),
]


@pytest.mark.parametrize("tasks", HAND_MADE, ids=["empty", "one", "mixed", "generated"])
def test_workload_digest_is_its_documented_layout(tasks):
    assert workload_digest(tasks) == packed_digest(tasks)


def test_workload_digest_tells_apart_near_task_lists():
    assert workload_digest([_task(input_size=0.0)]) != workload_digest(
        [_task(input_size=-0.0)]
    )
    split = [_task(0, "ab"), _task(1, "c")]
    assert workload_digest(split) != workload_digest([_task(0, "a"), _task(1, "bc")])
    # a label that holds a second task's text: the repr oracle merges the one
    # task with the two, the packed columns do not
    one = [_task(0, "x,0.0,1.0,0.5,2.0|1,y")]
    two = [_task(0, "x"), _task(1, "y")]
    assert repr_digest(one) == repr_digest(two)
    assert workload_digest(one) != workload_digest(two)


def test_workload_digest_covers_values_not_types():
    assert workload_digest([_task(input_size=5)]) == workload_digest(
        [_task(input_size=5.0)]
    )


@pytest.mark.parametrize("redundancy_rate", [0.0, 0.8, 1.0])
def test_a_noise_that_overflows_fails_without_a_warning(redundancy_rate):
    # 1e308 times a draw past about 1.8 overflows; the feature column's check
    # reports it, and no numpy warning goes out with the error
    spec = WorkloadSpec(
        num_tasks=20, redundancy_rate=redundancy_rate, noise_sigma=1e308
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^feature vector values must be finite$"):
            generate(spec)
