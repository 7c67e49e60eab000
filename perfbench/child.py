"""One measured invocation of the ``reusesim`` CLI, in a fresh process.

``run.py`` starts this script once per repetition:

    python3 perfbench/child.py --workdir DIR --spawned-at T [--trace] \
        -- <reusesim argv>

It calls ``reusesim.cli.main`` with every ``run`` call checked (see
``checks.py``), and with each layer wrapped when ``--trace`` is given.
Set-up is the time from ``--spawned-at`` (just before the parent started
this process) until the program first calls ``generate``.  The host-speed
probe (``hostspeed.py``) runs before and after the CLI call and between its
runs, with its time left out of every figure.
Results go to ``DIR/result.json`` (``DIR/result-traced.json`` when traced).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
from checks import check_run, fingerprint, sim_counts, sim_metrics
from hostspeed import REFERENCE_S, SpeedLog
from tracing import Clock, Patches, Tracer, layer_summary, write_spans

MAX_MESSAGES = 5


class CheckedRuns:
    """Checks every ``reusesim.sim.run`` call the CLI makes, off the clock.

    ``run`` is wrapped where ``reusesim.cli`` looks it up; ``generate`` and
    ``build_store`` where ``reusesim.sim`` does, to keep that call's task list
    and store for the checks.  Each wrapper runs once per ``run`` call.  The
    first ``generate`` call also marks when the program is ready to generate
    (``ready_at``, in ``time.monotonic`` seconds less the excluded time).
    """

    def __init__(self, clock: Clock, speed: SpeedLog) -> None:
        self.clock = clock
        self.speed = speed
        self.ready_at = None
        self.summaries: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._tasks = self._store = None

    def install(self, patches: Patches) -> None:
        import reusesim.cli as cli
        import reusesim.sim as sim

        patches.replace(sim, "generate", self._generating)
        patches.replace(sim, "build_store", lambda fn: self._keep("_store", fn))
        patches.replace(cli, "run", self._checked)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)

    def _keep(self, attr, fn):
        def keep(*args, **kwargs):
            result = fn(*args, **kwargs)
            setattr(self, attr, result)
            return result

        return keep

    def _generating(self, fn):
        keep = self._keep("_tasks", fn)

        def generate(*args, **kwargs):
            if self.ready_at is None:
                self.ready_at = time.monotonic() - self.clock.excluded_s
            return keep(*args, **kwargs)

        return generate

    def _checked(self, fn):
        def run(config, trial=0):
            self._tasks = self._store = None
            self.attempted += 1
            op = f"run #{self.attempted} ({config.mode.value}, trial {trial})"
            try:
                report = fn(config, trial)
            except Exception as exc:
                self.fail(f"{op} raised {exc!r}")
                raise
            with self.clock.excluded():
                summary, failures = check_run(config, self._tasks, self._store, report)
                self.summaries.append(summary)
                if failures:
                    self.fail(f"{op}: " + "; ".join(failures))
                self._tasks = self._store = None
            self.speed.sample_if_due()
            return report

        return run


def invoke(argv: list[str], workdir: Path, trace: bool) -> dict:
    """Run ``reusesim.cli.main(argv)`` once, checked and optionally traced.

    Every wrapper is removed before this returns.
    """
    import reusesim.cli as cli

    for stale in (workdir / "csv").glob("*.csv"):
        stale.unlink()
    clock = Clock()
    patches = Patches()
    counters = layers.LayerCounters() if trace else None
    tracer = Tracer(clock) if trace else None
    speed = SpeedLog(clock)
    runs = CheckedRuns(clock, speed)
    try:
        runs.install(patches)
        if trace:
            layers.install(patches, tracer, counters)
        speed.sample()
        start = clock.now()
        error = None
        try:
            code = cli.main(argv)
        except Exception:
            code, error = None, traceback.format_exc(limit=3)
        main_s = clock.now() - start
        speed.sample()
    finally:
        patches.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if code != 0 and runs.failed == 0:
        runs.fail(error or f"reusesim exited with code {code}")
    if runs.ready_at is None and runs.failed == 0:
        runs.fail("reusesim never generated a workload")

    fp = fingerprint(runs.summaries, (workdir / "csv").glob("*.csv"))
    result = {
        "main_s": main_s,
        "main_ref_s": speed.at_reference_speed(),
        "probe_s": statistics.median(p for _, p in speed.marks),
        "first_probe_s": speed.marks[0][1],
        "ready_at": runs.ready_at,
        "tasks": sum(s["tasks"] for s in runs.summaries),
        "peak_rss_mb": peak_rss_mb,
        "fingerprint": fp,
        "sim": sim_metrics(runs.summaries),
        "counts": sim_counts(runs.summaries),
    }
    if trace:
        spans = tracer.spans
        write_spans(workdir / "spans.tsv", spans)
        result["layers"] = layer_summary(spans)
        result["counts"].update(counters.metrics())
        result["counts"]["reuse_store.evictions"] = fp["evictions"]
        counts = result["counts"]
        seen = (
            counts["reuse_store.full_hits"],
            counts["reuse_store.partial_hits"],
            counts["reuse_store.misses"],
            result["layers"].get("reuse_store.evict_lfu", {}).get("calls", 0),
        )
        want = (fp["full_hits"], fp["partial_hits"], fp["misses"], fp["evictions"])
        if seen != want:
            runs.fail(f"traced store counts {seen} differ from the reports' {want}")
    result["attempted"] = max(runs.attempted, runs.failed)
    result["failed"] = runs.failed
    result["messages"] = runs.messages
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    result = invoke(argv, args.workdir, args.trace)
    if result["ready_at"] is not None:
        setup_s = result["ready_at"] - args.spawned_at
        result["setup_s"] = setup_s
        result["setup_ref_s"] = setup_s * REFERENCE_S / result["first_probe_s"]
    name = "result-traced.json" if args.trace else "result.json"
    (args.workdir / name).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
