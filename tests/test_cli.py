import gc
import hashlib
import math
import os
import subprocess
import sys
import warnings
import weakref
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional, get_type_hints

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reusesim import (
    CostParams,
    SimConfig,
    TaskRecord,
    WorkloadFileError,
    WorkloadSpec,
    cli,
    ingest,
    run,
    simulate,
)
from reusesim.cli import (
    CONFIG_SCHEMA,
    SUMMARY_HEADER,
    TASKS_HEADER,
    ConfigError,
    _fmt,
    apply_overrides,
    build_config,
    main,
    parse_config_file,
    write_tasks_csv,
)
from reusesim.sim import Mode

from conftest import make_task

MINIMAL = "mode = edge_with_reuse\nworkload.num_tasks = 40\n"


def write_config(tmp_path, text=MINIMAL, name="exp.conf"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def parse_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(r) == len(header) for r in rows)
    return header, rows


def test_config_defaults_and_parse(tmp_path):
    cfg = parse_config_file(
        write_config(
            tmp_path,
            "mode = cloud_only\n"
            "# comment line\n"
            "cost.edge_bandwidth = 50  # inline comment\n"
            "workload.input_size_range = 1, 2\n"
            "store.capacity = none\n",
        )
    )
    config = build_config(cfg)
    assert config.mode is Mode.CLOUD_ONLY
    assert config.cost.edge_bandwidth == 50.0
    assert config.workload.input_size_range == (1.0, 2.0)
    assert config.store.capacity is None
    assert config.edge_slots == 15  # default


def test_config_missing_mode(tmp_path):
    with pytest.raises(ConfigError, match="mode"):
        build_config(parse_config_file(write_config(tmp_path, "seed = 1\n")))


def test_config_unknown_field(tmp_path):
    with pytest.raises(ConfigError, match="unknown field"):
        parse_config_file(write_config(tmp_path, "mode = cloud_only\nnope = 1\n"))


def test_config_duplicate_field_names_its_line(tmp_path):
    text = "mode = cloud_only\nseed = 1\n\nseed = 2\n"
    with pytest.raises(ConfigError, match="^line 4: duplicate field 'seed'$"):
        parse_config_file(write_config(tmp_path, text))


@pytest.mark.parametrize(
    "assignment,problem",
    [
        ("nope = 1", "unknown field 'nope'"),
        ("= 1", "unknown field ''"),
        ("seed", "expected 'key = value'"),
        ("seed 1", "expected 'key = value'"),
    ],
)
def test_a_bad_assignment_reads_alike_in_a_file_and_in_set(tmp_path, assignment, problem):
    cfg = write_config(tmp_path, f"mode = cloud_only\n{assignment}\n")
    with pytest.raises(ConfigError) as in_file:
        parse_config_file(cfg)
    with pytest.raises(ConfigError) as in_set:
        apply_overrides({}, [assignment])
    assert str(in_file.value) == f"line 2: {problem}"
    assert str(in_set.value) == f"override {assignment!r}: {problem}"


def test_a_config_file_may_start_with_a_byte_order_mark(tmp_path):
    plain = parse_config_file(write_config(tmp_path, MINIMAL))
    marked = tmp_path / "marked.conf"
    marked.write_text("\ufeff" + MINIMAL, encoding="utf-8")
    assert parse_config_file(marked) == plain


def test_set_overrides_a_field_of_the_file(tmp_path):
    raw = parse_config_file(write_config(tmp_path, "mode = cloud_only\nseed = 1\n"))
    assert build_config(apply_overrides(raw, ["seed = 2"])).seed == 2


def test_config_bad_value(tmp_path):
    with pytest.raises(ConfigError, match="cost.edge_bandwidth"):
        build_config(
            parse_config_file(
                write_config(tmp_path, "mode = cloud_only\ncost.edge_bandwidth = x\n")
            )
        )


def _float_keys() -> list[str]:
    """Every config key whose field holds a float, an optional float or a pair."""
    top = get_type_hints(SimConfig)
    keys = []
    for key in CONFIG_SCHEMA:
        section, _, name = key.rpartition(".")
        hint = get_type_hints(top[section])[name] if section else top[name]
        if hint in (float, Optional[float], tuple[float, float]):
            keys.append(key)
    return keys


_FLOAT_KEYS = _float_keys()


def test_every_float_key_is_covered():
    # 12 floats, 2 optional floats (max_queue_delay, store.decay_interval), 3 pairs
    assert len(_FLOAT_KEYS) == 17


@pytest.mark.parametrize(
    "key,value",
    [
        (key, f"1,{bad}" if key.endswith("_range") else bad)
        for key in _FLOAT_KEYS
        for bad in ("nan", "inf")
    ],
)
def test_config_rejects_non_finite_numbers(tmp_path, capsys, key, value):
    # the config's dataclasses own the finiteness rule of every float key
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "-c", str(cfg), "--set", f"{key}={value}", "-d", str(out)])
    assert rc == 1
    section, _, name = key.rpartition(".")
    where = f"section {section!r}: " if section else ""
    bad = value.rpartition(",")[2]
    err = capsys.readouterr().err
    assert err == f"config error: {where}{name} must be finite, got {bad}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "key,value,field",
    [
        ("store.tau_full", "3", "tau_full"),
        ("store.capacity", "0", "capacity"),
        ("store.decay_interval", "-1", "decay_interval"),
        ("store.partial_fraction", "1.5", "partial_fraction"),
        ("lsh.num_tables", "0", "num_tables"),
        ("lsh.bits_per_table", "70", "bits_per_table"),
        ("cost.edge_bandwidth", "0", "bandwidths"),
        ("workload.dimension", "0", "dimension"),
        # an empty service would fail mid-run only where a store is built,
        # and a comma, a quote or a line end would break every tasks.csv row
        ("workload.service", "", "service"),
        ("workload.service", "a,b", "service"),
        ("workload.service", "a\rb", "service"),
        ("workload.service", "a\nb", "service"),
        ("workload.service", '"a', "service"),
    ],
)
@pytest.mark.parametrize("mode", ["edge_no_reuse", "edge_with_reuse"])
def test_config_rejects_out_of_range_store_settings(
    tmp_path, capsys, mode, key, value, field
):
    # checked at config time, also in a mode that never builds a store
    cfg = write_config(tmp_path, f"mode = {mode}\nworkload.num_tasks = 40\n")
    rc = main(["run", "-c", str(cfg), "--set", f"{key}={value}", "-d", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    section = key.split(".")[0]
    assert err.startswith(f"config error: section {section!r}: ") and field in err
    assert not (tmp_path / "tasks.csv").exists()


def test_config_invalid_mode_lists_choices(tmp_path):
    with pytest.raises(ConfigError, match="edge_with_reuse"):
        build_config(parse_config_file(write_config(tmp_path, "mode = turbo\n")))


def test_overrides():
    raw = apply_overrides({"mode": "cloud_only"}, ["seed=7", "edge_slots = 3"])
    config = build_config(raw)
    assert config.seed == 7 and config.edge_slots == 3
    with pytest.raises(ConfigError):
        apply_overrides({}, ["bad-override"])
    with pytest.raises(ConfigError):
        apply_overrides({}, ["unknown.key=1"])


def test_run_writes_expected_files(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "-c", str(cfg), "-d", str(out)]) == 0
    assert (out / "tasks.csv").exists() and (out / "summary.csv").exists()
    printed = capsys.readouterr().out
    assert "edge_with_reuse" in printed

    header, rows = parse_csv(out / "tasks.csv")
    assert ",".join(header) == TASKS_HEADER
    assert len(rows) == 40
    for row in rows:
        assert row[4] in ("edge", "cloud")
        assert row[11] in ("true", "false")
        for col in (5, 6, 7, 8, 9, 10):
            assert math.isfinite(float(row[col]))

    sheader, srows = parse_csv(out / "summary.csv")
    assert ",".join(sheader) == SUMMARY_HEADER
    assert len(srows) == 10  # trials defaults to 10
    assert {r[0] for r in srows} == {"edge_with_reuse"}
    assert [r[3] for r in srows] == [str(i) for i in range(10)]


def test_run_missing_mode_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, "seed = 1\n")
    assert main(["run", "-c", str(cfg), "-d", str(tmp_path / "o")]) == 1
    assert "mode" in capsys.readouterr().err


def test_run_missing_config_file(tmp_path, capsys):
    rc = main(["run", "-c", str(tmp_path / "absent.conf"), "-d", str(tmp_path)])
    assert rc == 1


def test_run_unwritable_outdir(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory", encoding="utf-8")
    cfg = write_config(tmp_path)
    rc = main(["run", "-c", str(cfg), "-d", str(blocker / "sub")])
    assert rc == 2


def _run_module(*args):
    """``python -m reusesim.cli ARGS`` in a fresh process, importing ``src/``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "reusesim.cli", *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )


def test_module_run_reports_config_error(tmp_path):
    cfg = write_config(tmp_path)
    proc = _run_module(
        "run", "-c", str(cfg), "--set", "store.capacity=0", "-d", str(tmp_path / "o")
    )
    assert proc.returncode == 1
    assert "config error: section 'store'" in proc.stderr


def test_module_run_writes_csvs(tmp_path):
    cfg = write_config(tmp_path, "mode = edge_no_reuse\nworkload.num_tasks = 20\n")
    out = tmp_path / "out"
    proc = _run_module("run", "-c", str(cfg), "-d", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "tasks.csv").exists() and (out / "summary.csv").exists()


def test_run_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, MINIMAL + "trials = 2\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "-c", str(cfg), "-d", str(out1)]) == 0
    assert main(["run", "-c", str(cfg), "-d", str(out2)]) == 0
    for name in ("tasks.csv", "summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_with_overrides_changes_output(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "-c", str(cfg), "-d", str(out1)]) == 0
    assert main(["run", "-c", str(cfg), "--set", "seed=7", "-d", str(out2)]) == 0
    assert (out1 / "tasks.csv").read_bytes() != (out2 / "tasks.csv").read_bytes()


def test_run_ingests_feature_dump(tmp_path):
    dump = tmp_path / "features.csv"
    dump.write_text("a,1.0,2.0\nb,3.0,4.0\na,1.0,2.1\n", encoding="utf-8")
    cfg = write_config(
        tmp_path,
        "mode = edge_with_reuse\n"
        f"features_file = {dump}\n"
        "workload.dimension = 2\n",
    )
    out = tmp_path / "out"
    assert main(["run", "-c", str(cfg), "-d", str(out)]) == 0
    header, rows = parse_csv(out / "tasks.csv")
    assert [r[2] for r in rows] == ["a", "b", "a"]


def test_a_feature_dump_may_start_with_a_byte_order_mark(tmp_path):
    # without the mark dropped, the first label is '\ufeffobj-1', another
    # object, so 29 of 30 results would be wrong
    outs = []
    for encoding in ("utf-8", "utf-8-sig"):
        dump = tmp_path / f"{encoding}.csv"
        dump.write_text("obj-1,1.0,2.0\n" * 30, encoding=encoding)
        cfg = write_config(
            tmp_path,
            "mode = edge_with_reuse\n"
            f"features_file = {dump}\n"
            "workload.dimension = 2\n"
            "workload.arrival_rate = 0.5\n"
            "trials = 1\n",
        )
        outs.append(tmp_path / encoding)
        assert main(["run", "-c", str(cfg), "-d", str(outs[-1])]) == 0
    header, rows = parse_csv(outs[1] / "summary.csv")
    assert rows[0][header.index("correctness")] == "1"
    for name in ("tasks.csv", "summary.csv"):
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes()


@pytest.mark.parametrize(
    "read,text,error",
    [
        (
            lambda path: ingest(path, WorkloadSpec(dimension=2)),
            "a,1.0,2.0\nb,x,2.0\nc,1.0,2.0\n",
            WorkloadFileError,
        ),
        (parse_config_file, "mode = cloud_only\nnope = 1\nseed = 2\n", ConfigError),
    ],
    ids=["feature dump", "config file"],
)
def test_a_reader_stopped_at_a_malformed_line_closes_its_file(
    tmp_path, monkeypatch, read, text, error
):
    # an unclosed file would warn only when collected, through sys.unraisablehook
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match="^line 2: "):
            read(path)
        gc.collect()
    assert unraisable == []


def test_sweep_row_counts(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "completion", "-d", str(out), "--trials", "2"]) == 0
    header, rows = parse_csv(out / "sweep_completion.csv")
    assert ",".join(header) == SUMMARY_HEADER
    trial_rows = [r for r in rows if r[3] != "p90"]
    p90_rows = [r for r in rows if r[3] == "p90"]
    assert len(trial_rows) == 3 * 10 * 2  # modes x n-grid x trials
    assert len(p90_rows) == 3 * 10
    reuse_rows = [r for r in trial_rows if r[0] == "edge_with_reuse"]
    assert all(r[12] != "" and r[13] != "" for r in reuse_rows)
    cloud_rows = [r for r in trial_rows if r[0] == "cloud_only"]
    assert all(r[12] == "" and r[13] == "" for r in cloud_rows)


def test_sweep_unknown_scenario(tmp_path, capsys):
    assert main(["sweep", "nonsense", "-d", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    for name in ("completion", "computation", "waiting", "utilization", "load", "gain"):
        assert name in err


def test_sweep_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sweep", "gain", "-d", str(out1), "--trials", "2"]) == 0
    assert main(["sweep", "gain", "-d", str(out2), "--trials", "2"]) == 0
    assert (out1 / "sweep_gain.csv").read_bytes() == (out2 / "sweep_gain.csv").read_bytes()


def test_calibrate_prints_thresholds(capsys):
    assert main(["calibrate", "--samples", "500"]) == 0
    out = capsys.readouterr().out
    assert "tau_full" in out and "tau_partial" in out


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--trials", "0"], "trials must be >= 1"),
        (["--seed", "-1"], "seed must be >= 0"),
    ],
)
def test_sweep_rejects_bad_flags_before_writing(tmp_path, capsys, flags, message):
    out = tmp_path / "sweep"
    assert main(["sweep", "completion", "-d", str(out), *flags]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,named",
    [
        (["--sigma", "nan"], "noise_sigma"),
        (["--samples", "0"], "--samples"),
        (["--samples", "1"], "--samples"),
        (["--dim", "0"], "dimension"),
        (["--seed", "-1"], "seed"),
        # no noise: every same-object distance is 0, so tau_full would be 0
        (["--sigma", "0"], "tau_full"),
    ],
)
def test_calibrate_rejects_what_has_no_valid_suggestion(flags, named, capsys):
    assert main(["calibrate", "--samples", "50", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and named in captured.err
    assert captured.out == ""


def test_schema_covers_all_fields():
    # every dotted section the README documents exists in the schema
    prefixes = {k.split(".")[0] for k in CONFIG_SCHEMA if "." in k}
    assert prefixes == {"cost", "store", "lsh", "workload"}


def _readme_config_rows():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    section = section.split("\n## ", 1)[0]
    for line in section.splitlines():
        if line.startswith("| `"):
            keys, default = (cell.strip() for cell in line.strip("|").split("|")[:2])
            yield from zip(keys.replace("`", "").split(" / "), default.split(" / "))


def test_readme_config_table_matches_schema():
    rows = dict(_readme_config_rows())
    assert set(rows) == set(CONFIG_SCHEMA) - {"mode"}
    defaults = build_config({"mode": "cloud_only"})
    for key, text in rows.items():
        expected = defaults
        for part in key.split("."):
            expected = getattr(expected, part)
        assert CONFIG_SCHEMA[key][0](text) == expected, key


GOLDEN_CONFIG = (
    "mode = edge_with_reuse\n"
    "seed = 5\n"
    "trials = 2\n"
    "max_queue_delay = 0.5\n"
    "workload.num_tasks = 80\n"
    "workload.arrival_rate = 60\n"
    "workload.noise_sigma = 0.12\n"
)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_run_csv_bytes_are_pinned(tmp_path):
    # overloaded edge with reneges and noisy repeats: every outcome kind occurs
    cfg, out = write_config(tmp_path, GOLDEN_CONFIG), tmp_path / "out"
    assert main(["run", "-c", str(cfg), "-d", str(out)]) == 0
    assert {row[3] for row in parse_csv(out / "tasks.csv")[1]} == {
        "full_reuse", "partial_reuse", "edge_compute", "cloud_offload"
    }
    assert _sha256(out / "summary.csv") == (
        "4c24ff40df3b566cf5e1bd6029761afb8d7260f6f140ae30211ec937d523266d"
    )
    assert _sha256(out / "tasks.csv") == (
        "16617a7ef7b74d9586d571748dd1fa643d201ceed013c99eb82d6ed352412522"
    )


def test_sweep_csv_bytes_are_pinned(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "completion", "-d", str(out), "--trials", "1"]) == 0
    assert _sha256(out / "sweep_completion.csv") == (
        "e93a1265a0dbd4e7b0b1c87924dd07acb8bab06c965537870313cde06ecfb92d"
    )


def _fmt_tasks_csv(records):
    """``tasks.csv`` as ``_fmt`` writes it, one cell at a time."""
    lines = [TASKS_HEADER]
    for r in records:
        lines.append(",".join(_fmt(getattr(r, f.name)) for f in fields(TaskRecord)))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _edge_case_records():
    # an int in a float field, from a task that arrives at 10**16 (an int):
    # _fmt writes it as 10000000000000000, where "%.10g" writes 1e+16
    cost = CostParams()
    (late,) = simulate([make_task(arrival=10**16)], Mode.CLOUD_ONLY, cost).records
    assert type(late.arrival_s) is int
    return [
        late,
        TaskRecord(
            1, "s", "a", "full_reuse", "edge", -0.0, 5e-324, 1e16, 0.0, 0.5, 1.5, True
        ),
        TaskRecord(
            2, "s", "b", "edge_compute", "edge", 1e16, 2.0, 3.0, 0.0, 1.0, 2.0, False
        ),
    ]


# each cell is mostly of its field's type, sometimes of another type a field
# could be given, so a column may hold one type or several
_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=4)
_OF_TYPE = {
    int: st.integers(),
    str: _TEXT,
    float: st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e16])),
    bool: st.booleans(),
}
_ANY_CELL = st.one_of(st.integers(), st.floats(), st.booleans(), _TEXT)


@st.composite
def _task_records(draw):
    hints = get_type_hints(TaskRecord)
    foreign = draw(st.sets(st.sampled_from([f.name for f in fields(TaskRecord)])))
    return [
        TaskRecord(
            *(
                draw(_ANY_CELL if f.name in foreign else _OF_TYPE[hints[f.name]])
                for f in fields(TaskRecord)
            )
        )
        for _ in range(draw(st.integers(0, 6)))
    ]


@settings(max_examples=300, deadline=None)
@given(records=_task_records())
@example(records=_edge_case_records())
def test_tasks_csv_rows_equal_fmt_of_every_cell(records, tmp_path_factory):
    report = simulate([make_task()], Mode.CLOUD_ONLY, CostParams())
    report = replace(report, records=tuple(records))
    path = tmp_path_factory.mktemp("tasks") / "tasks.csv"
    write_tasks_csv(path, report)
    assert path.read_bytes() == _fmt_tasks_csv(records)


def test_a_failed_trial_leaves_no_csv(tmp_path, monkeypatch):
    def run_failing_trial_1(config, trial=0):
        if trial == 1:
            raise ValueError("trial 1 failed")
        return run(config, trial)

    monkeypatch.setattr(cli, "run", run_failing_trial_1)
    cfg = write_config(tmp_path, MINIMAL + "trials = 2\n")
    out = tmp_path / "out"
    assert main(["run", "-c", str(cfg), "-d", str(out)]) == 2
    assert not out.exists()


def test_a_failed_sweep_run_leaves_no_csv(tmp_path, monkeypatch):
    calls = []

    def run_failing_call_25(config, trial=0):
        calls.append(trial)
        if len(calls) == 25:
            raise ValueError("run 25 failed")
        return run(config, trial)

    monkeypatch.setattr(cli, "run", run_failing_call_25)
    out = tmp_path / "sweep"
    assert main(["sweep", "completion", "-d", str(out), "--trials", "2"]) == 2
    assert len(calls) == 25
    assert not out.exists()


def test_run_holds_one_trial_report_at_a_time(tmp_path, monkeypatch):
    alive = []

    def tracking_run(config, trial=0):
        # by the time trial i starts, every earlier trial's report is gone
        assert [ref() for ref in alive] == [None] * trial
        report = run(config, trial)
        alive.append(weakref.ref(report))
        return report

    monkeypatch.setattr(cli, "run", tracking_run)
    cfg = write_config(tmp_path, MINIMAL + "trials = 3\n")
    out = tmp_path / "out"
    assert main(["run", "-c", str(cfg), "-d", str(out)]) == 0
    assert len(alive) == 3
    report = run(build_config(parse_config_file(cfg)), 0)
    assert (out / "tasks.csv").read_bytes() == _fmt_tasks_csv(report.records)


def test_a_malformed_dump_leaves_no_output_directory(tmp_path):
    dump = tmp_path / "features.csv"
    dump.write_text('"a,1.0,2.0\n', encoding="utf-8")
    cfg = write_config(
        tmp_path,
        "mode = edge_no_reuse\n"
        f"features_file = {dump}\n"
        "workload.dimension = 2\n",
    )
    out = tmp_path / "out"
    assert main(["run", "-c", str(cfg), "-d", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "mode,setting",
    [
        # an infinite transfer time, then inf - inf waiting
        ("edge_no_reuse", "cost.edge_bandwidth=1e-320"),
        # each service time finite, their sums not
        ("edge_no_reuse", "cost.edge_capacity_rate=1e-305"),
        # every task finite, only the mean overflows
        ("cloud_only", "cost.cloud_capacity_rate=1e-305"),
        # an infinite reception time, then an infinite finish time, each
        # rejected before the store sees it
        ("edge_with_reuse", "cost.edge_bandwidth=1e-320"),
        ("edge_with_reuse", "cost.edge_capacity_rate=1e-307"),
    ],
)
def test_a_run_whose_simulated_times_overflow_fails(tmp_path, capsys, mode, setting):
    cfg = write_config(tmp_path, "workload.num_tasks = 20\ntrials = 1\n")
    out = tmp_path / "out"
    argv = ["run", "-c", str(cfg), "--set", f"mode={mode}", "--set", setting]
    assert main([*argv, "-d", str(out)]) == 2
    assert "error: simulated times overflowed: " in capsys.readouterr().err
    assert not out.exists()
