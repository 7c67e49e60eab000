"""The benchmark's workloads: what each one feeds the ``reusesim`` CLI.

Every workload is a batch job run through ``reusesim.cli.main`` in a fresh
process; there are no clients and no arrival loop on the host.  A workload
turns the benchmark seed into the program's inputs (a config file or sweep
arguments) and nothing else, so the same seed always gives the same inputs.

* ``churn`` is write-heavy on the store: far more distinct inputs than store
  slots, so most tasks miss, get computed, get placed and evict an LFU entry.
  The edge is overloaded (17 tasks/s against 15 slots at about 1 s each), so
  tasks renege to the cloud after ``max_queue_delay``.
* ``hot`` is read-heavy: an unbounded store holds the whole working set, so
  most tasks are full hits over an index of thousands of entries.  A noise
  sigma of 0.12 puts same-object distances on both sides of ``tau_full``, so
  the partial-reuse path runs too.
* ``sweep`` is the paper's grid (3 modes x n = 10..100 x trials): many small
  runs whose stores stay small and never evict, so generation, the event
  loop and per-run construction weigh more than store and index work.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "sweep"
    settings: tuple[tuple[str, str], ...] = ()  # config fields for "run"
    trials: int = 1

    def argv(self, workdir: Path, seed: int) -> list[str]:
        """Write this workload's inputs under ``workdir``; return the CLI argv."""
        outdir = str(workdir / "csv")
        if self.command == "sweep":
            return [
                "sweep", "completion", "-d", outdir,
                "--seed", str(seed), "--trials", str(self.trials),
            ]
        lines = [f"seed = {seed}", f"trials = {self.trials}"]
        lines += [f"{key} = {value}" for key, value in self.settings]
        conf = workdir / "exp.conf"
        conf.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return ["run", "-c", str(conf), "-d", outdir]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "churn",
            "run",
            (
                ("mode", "edge_with_reuse"),
                ("workload.num_tasks", "3000"),
                ("workload.redundancy_rate", "0.2"),
                ("workload.arrival_rate", "17"),
                ("max_queue_delay", "2"),
            ),
            trials=4,
        ),
        Workload(
            "hot",
            "run",
            (
                ("mode", "edge_with_reuse"),
                ("workload.num_tasks", "8000"),
                ("workload.redundancy_rate", "0.9"),
                ("workload.noise_sigma", "0.12"),
                ("store.capacity", "none"),
            ),
            trials=2,
        ),
        Workload("sweep", "sweep", trials=10),
    )
}
