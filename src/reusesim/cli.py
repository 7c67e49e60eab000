"""Experiment runner CLI.

Subcommands:
  run         one configuration -> tasks.csv + summary.csv
  sweep       preset grid (3 modes x task counts 10..100 x trials) -> sweep CSV
  calibrate   sample distance distributions to suggest store thresholds

Config files are flat ``key = value`` text with dotted section prefixes
(``cost.edge_bandwidth = 100``).  Every field except ``mode`` has a default;
``--set key=value`` overrides individual fields from the command line.  All
randomness flows from the configured seed, so repeated invocations write
byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import MISSING, fields, is_dataclass, replace
from pathlib import Path
from typing import Callable, Optional, Sequence, Union, get_args, get_origin, get_type_hints

from .reuse_store import StoreSettings
from .sim import (
    MetricsReport,
    Mode,
    ReuseGain,
    SimConfig,
    TaskRecord,
    _RECORD_FIELDS,
    p90,
    reuse_gain,
    run,
)
from .workload import WorkloadSpec, _text_lines, generate, redundancy_ramp

SCENARIOS = ("completion", "computation", "waiting", "utilization", "load", "gain")

# tasks.csv has one column per TaskRecord field, in declaration order
_TASK_TYPES = tuple(get_type_hints(TaskRecord)[name] for name in _RECORD_FIELDS)
TASKS_HEADER = ",".join(_RECORD_FIELDS)
# (column, value of one run) for every metric column of summary.csv and the
# sweep files; a gain is None, a blank cell, when the run has no baseline.
_RunValue = Callable[[MetricsReport, Optional[ReuseGain]], Optional[float]]
METRIC_COLUMNS: tuple[tuple[str, _RunValue], ...] = (
    ("mean_completion_s", lambda r, g: r.mean_completion_s),
    ("p90_completion_s", lambda r, g: r.p90_completion_s),
    ("mean_computation_s", lambda r, g: r.mean_computation_s),
    ("mean_waiting_s", lambda r, g: r.mean_waiting_s),
    ("utilization_pct", lambda r, g: r.utilization_pct),
    ("load_cloud", lambda r, g: r.load_cloud),
    ("load_edge", lambda r, g: r.load_edge),
    ("load_reuse", lambda r, g: r.load_reuse),
    ("reuse_gain_delay", lambda r, g: None if g is None else g.delay_gain),
    ("reuse_gain_resource", lambda r, g: None if g is None else g.resource_gain),
    ("correctness", lambda r, g: r.correctness_rate),
)
SUMMARY_HEADER = ",".join(
    ("mode", "n_tasks", "redundancy", "trial", *(name for name, _ in METRIC_COLUMNS))
)


class ConfigError(ValueError):
    """A config file or override failed validation; message names the field."""


def _parse_pair(s: str) -> tuple[float, float]:
    parts = [p.strip() for p in s.split(",")]
    if len(parts) != 2:
        raise ValueError("expected 'lo,hi'")
    return (float(parts[0]), float(parts[1]))


def _parse_mode(s: str) -> Mode:
    try:
        return Mode(s.strip())
    except ValueError:
        valid = ", ".join(m.value for m in Mode)
        raise ValueError(f"must be one of: {valid}") from None


# Dict lookup compares by equality, which ``tuple[float, float]`` needs: each
# evaluation of that annotation builds a new alias object.
_PARSERS: dict[object, Callable[[str], object]] = {
    int: int,
    str: str,
    float: float,
    tuple[float, float]: _parse_pair,
    Mode: _parse_mode,
}


def _parser_for(hint) -> Callable[[str], object]:
    if get_origin(hint) is Union:  # Optional[X]: "none" or empty means None
        (inner,) = (a for a in get_args(hint) if a is not type(None))
        parse = _parser_for(inner)
        return lambda s: None if s.strip() in ("", "none") else parse(s.strip())
    return _PARSERS[hint]


# SimConfig fields that are dataclasses become dotted sections
# (``cost.edge_bandwidth``); the others are top-level keys.
_SECTIONS: dict[str, type] = {
    name: hint for name, hint in get_type_hints(SimConfig).items() if is_dataclass(hint)
}


def _derive_schema() -> dict[str, tuple[Callable[[str], object], object]]:
    """Config key -> (parser, default); a default of MISSING marks a required key.

    A section field named like a top-level key (``workload.seed``) is not a
    key of its own: it takes the top-level value.
    """
    schema: dict[str, tuple[Callable[[str], object], object]] = {}
    for prefix, cls in (("", SimConfig), *((f"{n}.", c) for n, c in _SECTIONS.items())):
        hints = get_type_hints(cls)
        for f in fields(cls):
            if not is_dataclass(hints[f.name]) and f.name not in schema:
                schema[prefix + f.name] = (_parser_for(hints[f.name]), f.default)
    return schema


CONFIG_SCHEMA = _derive_schema()


def _assignment(text: str, where: str) -> tuple[str, str]:
    """The key and value of one ``key = value``; errors start with ``where``."""
    key, eq, value = text.partition("=")
    key = key.strip()
    if not eq:
        raise ConfigError(f"{where}: expected 'key = value'")
    if key not in CONFIG_SCHEMA:
        raise ConfigError(f"{where}: unknown field {key!r}")
    return key, value.strip()


def parse_config_file(path) -> dict[str, str]:
    raw: dict[str, str] = {}
    try:
        for lineno, line in _text_lines(path, ConfigError):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, value = _assignment(line, f"line {lineno}")
            if key in raw:
                raise ConfigError(f"line {lineno}: duplicate field {key!r}")
            raw[key] = value
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return raw


def build_config(raw: dict[str, str]) -> SimConfig:
    kwargs: dict[str, dict[str, object]] = {"": {}, **{n: {} for n in _SECTIONS}}
    for key, (parser, default) in CONFIG_SCHEMA.items():
        if key in raw:
            try:
                value = parser(raw[key])
            except ValueError as exc:
                raise ConfigError(f"field {key!r}: {exc}") from None
        elif default is MISSING:
            raise ConfigError(f"missing required field: {key}")
        else:
            value = default
        section, _, name = key.rpartition(".")
        kwargs[section][name] = value
    top = kwargs[""]
    for name, cls in _SECTIONS.items():
        # the top-level seed also seeds the workload
        shared = {f.name: top[f.name] for f in fields(cls) if f.name in top}
        try:
            top[name] = cls(**kwargs[name], **shared)
        except ValueError as exc:
            raise ConfigError(f"section {name!r}: {exc}") from None
    try:
        return SimConfig(**top)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def apply_overrides(raw: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """``raw`` with each ``key=value`` applied in order; a later one wins."""
    out = dict(raw)
    for item in overrides:
        key, value = _assignment(item, f"override {item!r}")
        out[key] = value
    return out


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


# the ``%`` conversion that writes a value of exactly this type as ``_fmt`` does
_CONVERSION_OF = {float: "%.10g", int: "%s", str: "%s"}


def _task_column(values: Sequence, kind: type) -> tuple[str, Sequence]:
    """The ``%`` conversion of one ``tasks.csv`` column, and the values it takes.

    A column of a float, int or str field that holds only values of exactly
    that type is converted as ``_fmt`` converts them; any other column (a
    bool field, or an int in a float field) gets ``_fmt`` cell by cell.
    """
    conversion = _CONVERSION_OF.get(kind)
    if conversion is not None and set(map(type, values)) <= {kind}:
        return conversion, values
    return "%s", list(map(_fmt, values))


def tasks_csv_text(report: MetricsReport) -> str:
    """The ``tasks.csv`` text of a report: ``_fmt`` of every cell.

    The cells come from the report's record rows, so no ``TaskRecord`` is
    built.  Each row is formatted by one ``%`` template, whose conversions
    ``_task_column`` picks once per column from ``TaskRecord``'s field types.
    """
    rows = report.records.rows
    # transposing no rows gives no columns, so a report without records
    # gets one empty column per field
    columns = tuple(zip(*rows)) or ((),) * len(_RECORD_FIELDS)
    conversions, columns = zip(*map(_task_column, columns, _TASK_TYPES))
    template = ",".join(conversions)
    return "\n".join((TASKS_HEADER, *map(template.__mod__, zip(*columns)), ""))


def write_tasks_csv(path, report: MetricsReport) -> None:
    Path(path).write_text(tasks_csv_text(report), encoding="utf-8")


def _metrics(report: MetricsReport, gain: Optional[ReuseGain]) -> list[Optional[float]]:
    return [value(report, gain) for _, value in METRIC_COLUMNS]


def _row(mode: Mode, n_tasks: int, redundancy: float, trial, metrics) -> str:
    return ",".join(
        (
            mode.value,
            str(n_tasks),
            _fmt(redundancy),
            str(trial),
            *("" if v is None else _fmt(v) for v in metrics),
        )
    )


def summary_row(
    report: MetricsReport,
    n_tasks: int,
    redundancy: float,
    trial,
    gain: Optional[ReuseGain] = None,
) -> str:
    return _row(report.mode, n_tasks, redundancy, trial, _metrics(report, gain))


def cmd_run(config_path, overrides, outdir) -> int:
    raw = apply_overrides(parse_config_file(config_path), overrides)
    config = build_config(raw)
    rows = [SUMMARY_HEADER]
    tasks_text = ""
    for trial in range(config.trials):
        report = run(config, trial)
        rows.append(
            summary_row(
                report,
                len(report.records),
                config.workload.redundancy_rate,
                trial,
            )
        )
        if trial == 0:  # tasks.csv holds trial 0's records
            tasks_text = tasks_csv_text(report)
        del report  # one trial's records at a time
    summary_text = "\n".join(rows) + "\n"
    _write_csvs(outdir, {"tasks.csv": tasks_text, "summary.csv": summary_text})
    print(rows[1])
    return 0


def _write_csvs(outdir, texts: dict[str, str]) -> None:
    """Create ``outdir`` and write each text into the file it is named by.

    A command calls this once all its runs have returned, so a failed run
    leaves no CSV and no directory.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (outdir / name).write_text(text, encoding="utf-8")


def _p90_row(
    mode: Mode, n: int, redundancy: float, runs: list[list[Optional[float]]]
) -> str:
    """The p90 over trials of each metric column; blank where a trial has none."""
    return _row(
        mode,
        n,
        redundancy,
        "p90",
        (None if None in col else p90(col) for col in zip(*runs)),
    )


def cmd_sweep(scenario: str, outdir, seed: int, trials: int) -> int:
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; valid scenarios: {', '.join(SCENARIOS)}"
        )
    modes = (Mode.CLOUD_ONLY, Mode.EDGE_NO_REUSE, Mode.EDGE_WITH_REUSE)
    try:
        specs = redundancy_ramp(range(10, 101, 10), WorkloadSpec(seed=seed))
        grid = [
            SimConfig(mode=mode, workload=spec, trials=trials, seed=seed)
            for mode in modes
            for spec in specs
        ]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # the no-reuse runs come before the reuse runs whose gains pair with them
    plain: dict[tuple[int, int], MetricsReport] = {}
    rows = [SUMMARY_HEADER]
    for config in grid:
        n, redundancy = config.workload.num_tasks, config.workload.redundancy_rate
        runs = []
        for trial in range(config.trials):
            report = run(config, trial)
            gain = None
            if config.mode is Mode.EDGE_NO_REUSE:
                # held without its records: reuse_gain reads only the metrics
                plain[n, trial] = replace(report, records=())
            elif config.mode is Mode.EDGE_WITH_REUSE:
                gain = reuse_gain(report, plain.pop((n, trial)))
            rows.append(summary_row(report, n, redundancy, trial, gain))
            runs.append(_metrics(report, gain))
        rows.append(_p90_row(config.mode, n, redundancy, runs))
    name = f"sweep_{scenario}.csv"
    _write_csvs(outdir, {name: "\n".join(rows) + "\n"})
    print(f"wrote {Path(outdir) / name}")
    return 0


def _consecutive_distances(spec: WorkloadSpec) -> list[float]:
    """The distance between the features of each pair of consecutive tasks."""
    rows = [task.features.values for task in generate(spec)]
    return list(map(math.dist, rows, rows[1:]))


def cmd_calibrate(dimension: int, sigma: float, samples: int, seed: int) -> int:
    """Measure same-object vs cross-object distances and suggest thresholds.

    Each distance is between consecutive tasks of the ``samples + 1`` that
    ``generate`` draws: at redundancy 1 all observe one object, at 0 each is new.
    """
    if samples < 2:
        raise ConfigError("--samples must be >= 2")
    try:
        spec = WorkloadSpec(
            num_tasks=samples + 1, dimension=dimension, noise_sigma=sigma, seed=seed
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    within = _consecutive_distances(replace(spec, redundancy_rate=1.0))
    cross = _consecutive_distances(replace(spec, redundancy_rate=0.0))
    within_hi, cross_lo = max(within), min(cross)
    within_mean, cross_mean = (math.fsum(d) / samples for d in (within, cross))
    tau_full = min(2.5 * within_hi, cross_lo / 4.0)
    try:
        suggested = StoreSettings(tau_full=tau_full, tau_partial=2.0 * tau_full)
    except ValueError as exc:
        raise ConfigError(f"no valid thresholds from these samples: {exc}") from None
    print(f"dimension={dimension} sigma={sigma} samples={samples}")
    print(f"same-object distance: mean={within_mean:.4f} max={within_hi:.4f}")
    print(f"cross-object distance: min={cross_lo:.4f} mean={cross_mean:.4f}")
    print(f"suggested store.tau_full = {suggested.tau_full:.4f}")
    print(f"suggested store.tau_partial = {suggested.tau_partial:.4f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="reusesim", description="edge computation-reuse experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configuration")
    p_run.add_argument("-c", "--config", required=True, help="config file path")
    p_run.add_argument(
        "-s", "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a config field",
    )
    p_run.add_argument("-d", "--outdir", default=".", help="output directory")

    p_sweep = sub.add_parser("sweep", help="run a preset scenario grid")
    p_sweep.add_argument("scenario", help=f"one of: {', '.join(SCENARIOS)}")
    p_sweep.add_argument("-d", "--outdir", default=".", help="output directory")
    p_sweep.add_argument("--seed", type=int, default=SimConfig.seed)
    p_sweep.add_argument("--trials", type=int, default=SimConfig.trials)

    p_cal = sub.add_parser("calibrate", help="suggest similarity thresholds")
    p_cal.add_argument("--dim", type=int, default=WorkloadSpec.dimension)
    p_cal.add_argument("--sigma", type=float, default=WorkloadSpec.noise_sigma)
    p_cal.add_argument("--samples", type=int, default=2000)
    p_cal.add_argument("--seed", type=int, default=SimConfig.seed)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.set, args.outdir)
        if args.command == "sweep":
            return cmd_sweep(args.scenario, args.outdir, args.seed, args.trials)
        if args.command == "calibrate":
            return cmd_calibrate(args.dim, args.sigma, args.samples, args.seed)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's allocation failure says what it asked for; a bare one is empty
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory in {_invocation(args)}{detail}", file=sys.stderr)
        return 2


def _invocation(args: argparse.Namespace) -> str:
    """The command ``main`` ran and the configuration it ran with."""
    if args.command == "run":
        overrides = "".join(f" --set {o!r}" for o in args.set)
        return f"run of config file {args.config!r}{overrides}"
    if args.command == "sweep":
        return f"sweep {args.scenario!r} (seed {args.seed}, {args.trials} trials)"
    return (
        f"calibrate (dimension {args.dim}, sigma {args.sigma}, "
        f"{args.samples} samples, seed {args.seed})"
    )


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
