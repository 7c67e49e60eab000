"""Print every metric of every workload, by name and unit, with the tracing cost.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs each workload once with ``--trace 1`` semantics: the untraced
repetitions give the end-to-end metrics, the traced ones the per-layer
metrics and ``trace.overhead_pct``.  Takes about three times ``S`` seconds.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from run import Failure, measure, print_table
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    failed = 0
    for workload in WORKLOADS:
        try:
            outcome = measure(workload, args.seed, args.seconds, True, Path.cwd())
        except Failure as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        print_table(workload, outcome)
        failed += outcome["failed"] + (not outcome["correct"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
