"""Output checks for one ``reusesim.sim.run`` call, and the behaviour fingerprint.

Each call of ``run`` is one operation of the benchmark.  It fails if it
raises or if any check below fails:

* outcome counts sum to the number of tasks, and load shares sum to 1;
* every task that never waited completes in exactly the time the cost model
  gives for its outcome, recomputed here from the task and the parameters;
* the store holds at most ``capacity`` entries per service, and
  evictions = places - final entries.
"""

from __future__ import annotations

import hashlib
import math

EDGE_WITH_REUSE = "edge_with_reuse"


def expected_completion(task, outcome: str, cost, partial_fraction: float) -> float:
    """Completion time of a task that never waited, from the cost model's terms."""
    size = task.input_size + task.output_size
    if outcome == "cloud_offload":
        return (
            size / cost.cloud_bandwidth
            + cost.cloud_hops * cost.per_hop_latency
            + task.complexity / cost.cloud_capacity_rate
        )
    transfer = size / cost.edge_bandwidth + cost.edge_hops * cost.per_hop_latency
    compute = task.complexity / cost.edge_capacity_rate
    if outcome == "edge_compute":
        return transfer + compute
    if outcome == "full_reuse":
        return transfer + cost.lookup_cost
    if outcome == "partial_reuse":
        return transfer + cost.lookup_cost + (1.0 - partial_fraction) * compute
    raise ValueError(f"unknown outcome {outcome!r}")


def check_run(config, tasks, store, report) -> tuple[dict, list[str]]:
    """Check one run's outputs; return its summary and the failed checks."""
    failures = []
    n = len(tasks)
    counts = (
        report.n_full_reuse, report.n_partial_reuse,
        report.n_edge_compute, report.n_cloud,
    )
    if len(report.records) != n or sum(counts) != n:
        failures.append(f"outcome counts {counts} do not sum to {n} tasks")
    shares = report.load_cloud + report.load_edge + report.load_reuse
    if not math.isclose(shares, 1.0, rel_tol=0.0, abs_tol=1e-9):
        failures.append(f"load shares sum to {shares!r}")

    by_id = {t.id: t for t in tasks}
    fraction = config.store.partial_fraction
    for r in report.records:
        if r.waiting_s != 0.0:
            continue
        want = expected_completion(by_id[r.task_id], r.outcome, config.cost, fraction)
        if not math.isclose(r.completion_s, want, rel_tol=1e-9, abs_tol=1e-12):
            failures.append(
                f"task {r.task_id} ({r.outcome}) completed in {r.completion_s!r} s, "
                f"cost model gives {want!r} s"
            )
            break

    places = sum(
        r.location == "edge" and r.outcome in ("edge_compute", "partial_reuse")
        for r in report.records
    )
    evictions = entries = 0
    if store is not None:
        capacity = store.capacity
        for service, stats in store.stats().items():
            if capacity is not None and stats.entries > capacity:
                failures.append(
                    f"service {service!r} holds {stats.entries} > {capacity} entries"
                )
            entries += stats.entries
        evictions = len(store.eviction_log)
        if evictions != places - entries:
            failures.append(
                f"{evictions} evictions != {places} places - {entries} entries"
            )

    edge = report.mode.value != "cloud_only"
    summary = {
        "mode": report.mode.value,
        "tasks": n,
        "digest": report.workload_digest,
        "full": report.n_full_reuse,
        "partial": report.n_partial_reuse,
        "edge_compute": report.n_edge_compute,
        "evictions": evictions,
        "mean_completion_s": report.mean_completion_s,
        "p90_completion_s": report.p90_completion_s,
        "utilization_pct": report.utilization_pct,
        "reuse_share": report.load_reuse,
        "correctness": report.correctness_rate,
        "edge_tasks": n if edge else 0,
        "bounced": report.n_cloud if edge else 0,
        "waiting_s": sum(r.waiting_s for r in report.records) if edge else 0.0,
        "peak_concurrency": report.peak_concurrency,
    }
    return summary, failures


def fingerprint(summaries: list[dict], csv_files) -> dict:
    """Behaviour of one CLI invocation: inputs, store outcomes and output bytes.

    Two commits behave identically on a workload when their fingerprints for
    the same seed are equal.
    """
    digests = "".join(s["digest"] for s in summaries)
    reuse = [s for s in summaries if s["mode"] == EDGE_WITH_REUSE]
    return {
        "workload_digest": hashlib.sha256(digests.encode()).hexdigest(),
        "full_hits": sum(s["full"] for s in reuse),
        "partial_hits": sum(s["partial"] for s in reuse),
        "misses": sum(s["edge_compute"] for s in reuse),
        "evictions": sum(s["evictions"] for s in reuse),
        "csv_sha256": {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(csv_files)
        },
    }


def sim_metrics(summaries: list[dict]) -> dict[str, float]:
    """The paper's metrics, averaged over the ``edge_with_reuse`` runs."""
    reuse = [s for s in summaries if s["mode"] == EDGE_WITH_REUSE]
    if not reuse:
        return {}

    def mean(key):
        return sum(s[key] for s in reuse) / len(reuse)

    return {
        "sim_mean_completion_s": mean("mean_completion_s"),
        "sim_p90_completion_s": mean("p90_completion_s"),
        "sim_utilization_pct": mean("utilization_pct"),
        "sim_reuse_share": mean("reuse_share"),
        "sim_correctness": mean("correctness"),
    }


def sim_counts(summaries: list[dict]) -> dict[str, float]:
    """Queue counts over the edge-mode runs; a pure speed-up leaves them exact."""
    edge_tasks = sum(s["edge_tasks"] for s in summaries)
    return {
        "sim.bounced_share": sum(s["bounced"] for s in summaries) / edge_tasks
        if edge_tasks else 0.0,
        "sim.peak_concurrency": max((s["peak_concurrency"] for s in summaries), default=0),
        "sim.mean_waiting_s": sum(s["waiting_s"] for s in summaries) / edge_tasks
        if edge_tasks else 0.0,
    }
