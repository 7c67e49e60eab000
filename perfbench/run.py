"""Benchmark of the ``reusesim`` CLI: one workload, one seed, a fixed time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {churn,hot,sweep} --seed N \
        --seconds S --trace {0,1}

It runs the workload's CLI invocation in fresh processes, one after another,
until ``S`` seconds have passed (at least three times).  All repetitions use
the inputs made from seed ``N``, so they must behave identically.

``--trace 0`` reports the end-to-end metrics, as medians over repetitions.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus ``trace.overhead_pct``, the cost
of tracing in ``tasks_per_s``.  It also prints the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run artefacts (the
CSVs, the spans of the last traced repetition, the fingerprint) are kept in
``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import OTHER_LAYERS, TIMED_LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_REPEATS = 3
DEADLINE_S = 170.0  # every process has ended by then

END_TO_END_UNITS = {
    "tasks_per_s": "tasks/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_mean_completion_s": "sim_s",
    "sim_p90_completion_s": "sim_s",
    "sim_utilization_pct": "%",
    "sim_reuse_share": "ratio",
    "sim_correctness": "ratio",
}
COUNT_UNITS = {
    "reuse_store.full_hits": "count",
    "reuse_store.partial_hits": "count",
    "reuse_store.misses": "count",
    "reuse_store.evictions": "count",
    "reuse_store.hit_ratio": "ratio",
    "reuse_store.entries_peak": "count",
    "lsh.recall": "ratio",
    "lsh.candidates_per_query": "count",
    "sim.events": "count",
    "sim.bounced_share": "ratio",
    "sim.peak_concurrency": "count",
    "sim.mean_waiting_s": "sim_s",
}
SIM_COUNTS = ("sim.bounced_share", "sim.peak_concurrency", "sim.mean_waiting_s")
LAYER_FIELD_UNITS = {"calls": "count", "self_s": "s", "us_p50": "us", "us_p99": "us"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in TIMED_LAYERS + OTHER_LAYERS:
        fields = LAYER_FIELD_UNITS if layer in TIMED_LAYERS else ("calls", "self_s")
        units.update({f"{layer}.{f}": LAYER_FIELD_UNITS[f] for f in fields})
    units.update(COUNT_UNITS)
    units["trace.total_s"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


class Failure(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def check_checkout(root: Path, env: dict) -> None:
    """Fail unless ``reusesim`` imports from this checkout's ``src``."""
    if not (root / "src" / "reusesim" / "cli.py").is_file():
        raise Failure(f"no reusesim sources under {root / 'src'}")
    probe = subprocess.run(
        [sys.executable, "-c", "import reusesim.cli; print(reusesim.cli.__file__)"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    where = Path(probe.stdout.strip() or "/nonexistent").resolve()
    if probe.returncode != 0 or not where.is_relative_to((root / "src").resolve()):
        raise Failure(f"cannot import reusesim from {root / 'src'}: {probe.stderr}")


def spawn(workdir, argv, env, traced, deadline) -> dict:
    """Run one repetition in a fresh process and return its results."""
    name = "result-traced.json" if traced else "result.json"
    (workdir / name).unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workdir", str(workdir),
        "--spawned-at", repr(time.monotonic()),
    ]
    cmd += ["--trace"] if traced else []
    try:
        proc = subprocess.run(
            cmd + ["--"] + argv, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        error = proc.stderr.strip()[-2000:] if proc.returncode != 0 else ""
    except subprocess.TimeoutExpired:
        error = "repetition timed out"
    if error:
        return {"attempted": 1, "failed": 1, "messages": [error]}
    return json.loads((workdir / name).read_text(encoding="utf-8"))


def behaviour(result: dict) -> tuple:
    """What every repetition of one seed must reproduce exactly."""
    counts = result["counts"]
    traced = (
        counts, {k: v["calls"] for k, v in result["layers"].items()}
    ) if "layers" in result else ()
    sim_counts = {k: counts[k] for k in SIM_COUNTS}
    return (result["fingerprint"], result["sim"], sim_counts), traced


def tasks_per_s(results: list[dict]) -> float:
    """Median tasks per second, at the host speed ``hostspeed.py`` fixes."""
    return statistics.median(r["tasks"] / r["main_ref_s"] for r in results)


def end_to_end(untraced: list[dict]) -> dict[str, float]:
    values = {
        "tasks_per_s": tasks_per_s(untraced),
        "setup_s": statistics.median(r["setup_ref_s"] for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    values.update(untraced[0]["sim"])
    return values


def host_figures(untraced: list[dict]) -> dict[str, float]:
    """Unscaled host figures, printed for reference next to the metrics."""
    return {
        "host_tasks_per_s": statistics.median(r["tasks"] / r["main_s"] for r in untraced),
        "host_setup_s": statistics.median(r["setup_s"] for r in untraced),
        "probe_s": statistics.median(r["probe_s"] for r in untraced),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    values: dict[str, float] = {}
    for layer in TIMED_LAYERS + OTHER_LAYERS:
        fields = LAYER_FIELD_UNITS if layer in TIMED_LAYERS else ("calls", "self_s")
        for field in fields:
            values[f"{layer}.{field}"] = statistics.median(
                r["layers"].get(layer, {}).get(field, 0) for r in traced
            )
    values.update({k: traced[0]["counts"][k] for k in COUNT_UNITS})
    values["trace.total_s"] = statistics.median(
        sum(v["self_s"] for v in r["layers"].values()) for r in traced
    )
    values["trace.overhead_pct"] = 100.0 * (tasks_per_s(untraced) / tasks_per_s(traced) - 1.0)
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run the benchmark once; return its result and what ``print_table`` shows."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    check_checkout(root, env)
    workdir = root / ".perfbench_out" / workload
    workdir.mkdir(parents=True, exist_ok=True)
    argv = WORKLOADS[workload].argv(workdir, seed)

    kinds = (False, True) if trace else (False,)
    results: dict[bool, list[dict]] = {False: [], True: []}
    measure_start = time.monotonic()
    rounds = 0
    while True:
        t0 = time.monotonic()
        for traced in kinds:
            results[traced].append(spawn(workdir, argv, env, traced, deadline))
        rounds += 1
        elapsed = time.monotonic() - measure_start
        per_round = elapsed / rounds
        if rounds >= (1 if trace else MIN_REPEATS) and elapsed + per_round > seconds:
            break
        if time.monotonic() + 2 * (time.monotonic() - t0) > deadline:
            break

    everything = results[False] + results[True]
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    messages = [m for r in everything for m in r["messages"]]
    ok = [r for r in everything if "fingerprint" in r]
    reference = behaviour(ok[0])[0] if ok else None
    traced_reference = next((behaviour(r)[1] for r in ok if "layers" in r), ())
    for r in ok:
        common, traced = behaviour(r)
        if common != reference or traced not in ((), traced_reference):
            failed += r["attempted"] - r["failed"]
            messages.append("a repetition of the same seed behaved differently")
    complete = all("fingerprint" in r and "setup_s" in r for r in everything)

    e2e = end_to_end(results[False]) if complete else {}
    layered = per_layer(results[True], results[False]) if complete and trace else {}
    metrics, units = (layered, per_layer_units()) if trace else (e2e, END_TO_END_UNITS)
    fp = ok[0]["fingerprint"] if ok else None
    if fp is not None:
        (workdir / f"fingerprint-seed{seed}.json").write_text(
            json.dumps(fp, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    return {
        "correct": complete and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
        "end_to_end": e2e,
        "per_layer": layered,
        "host": host_figures(results[False]) if complete else {},
        "fingerprint": fp,
        "messages": messages,
        "repeats": {"untraced": len(results[False]), "traced": len(results[True])},
        "wall_s": time.monotonic() - started,
    }


def print_table(workload: str, outcome: dict) -> None:
    units = {**END_TO_END_UNITS, **per_layer_units()}
    for name, value in {**outcome["end_to_end"], **outcome["per_layer"]}.items():
        print(f"{workload:6s} {name:34s} {value:>16.6g} {units[name]}")
    for name, value in outcome["host"].items():
        print(f"{workload:6s} {name:34s} {value:>16.6g} (unscaled, for reference)")
    print(f"{workload:6s} repeats {outcome['repeats']} in {outcome['wall_s']:.1f} s")
    print(f"{workload:6s} fingerprint {json.dumps(outcome['fingerprint'], sort_keys=True)}")
    for message in outcome["messages"]:
        print(f"{workload:6s} FAILED: {message}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must lie in (0, 60]")
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_table(args.workload, outcome)
    print(json.dumps({k: outcome[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
