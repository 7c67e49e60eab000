"""The benchmark's checks, fingerprint and wrappers on small inputs."""

import dataclasses
import json
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
from checks import check_run
from child import invoke
from layers import exact_nearest
from workloads import Workload

# Small versions of the workloads: ``churn`` keeps evictions and reneges.
SMALL_CHURN = Workload(
    "small-churn",
    "run",
    (
        ("mode", "edge_with_reuse"),
        ("workload.num_tasks", "600"),
        ("workload.redundancy_rate", "0.3"),
        ("workload.arrival_rate", "17"),
        ("max_queue_delay", "2"),
        ("store.capacity", "40"),
    ),
)
SMALL_SWEEP = Workload("small-sweep", "sweep", trials=1)


def _invoke(workload, seed, tmp_path, trace, name):
    workdir = tmp_path / name
    workdir.mkdir()
    return invoke(workload.argv(workdir, seed), workdir, trace)


def _owners():
    import reusesim.cli as cli
    import reusesim.sim as sim
    from reusesim.core import FeatureVector
    from reusesim.forwarding import EdgeNode
    from reusesim.lsh import LshIndex
    from reusesim.reuse_store import ReuseStore

    return (cli, sim, FeatureVector, EdgeNode, LshIndex, ReuseStore)


@pytest.mark.parametrize("workload", [SMALL_CHURN, SMALL_SWEEP], ids=lambda w: w.name)
def test_fingerprint_repeats_with_tracing_on_and_off(workload, tmp_path):
    plain = _invoke(workload, 3, tmp_path, False, "plain")
    again = _invoke(workload, 3, tmp_path, False, "again")
    traced = _invoke(workload, 3, tmp_path, True, "traced")
    other = _invoke(workload, 4, tmp_path, False, "other")
    for result in (plain, again, traced, other):
        assert result["failed"] == 0, result["messages"]
        assert result["attempted"] >= 1
    assert plain["fingerprint"] == again["fingerprint"] == traced["fingerprint"]
    assert plain["sim"] == traced["sim"]
    assert plain["fingerprint"]["csv_sha256"]
    assert other["fingerprint"]["workload_digest"] != plain["fingerprint"]["workload_digest"]


def test_traced_run_counts_evictions_and_reneges(tmp_path):
    traced = _invoke(SMALL_CHURN, 5, tmp_path, True, "traced")
    assert traced["failed"] == 0, traced["messages"]
    layers = traced["layers"]
    assert layers["reuse_store.evict_lfu"]["calls"] == traced["fingerprint"]["evictions"] > 0
    assert traced["counts"]["sim.bounced_share"] > 0
    assert 0.0 < traced["counts"]["lsh.recall"] <= 1.0
    assert (tmp_path / "traced" / "spans.tsv").stat().st_size > 0


def test_setup_ends_at_the_programs_first_generate(tmp_path):
    before = time.monotonic()
    result = _invoke(SMALL_SWEEP, 1, tmp_path, False, "plain")
    after = time.monotonic()
    assert result["failed"] == 0, result["messages"]
    assert before < result["ready_at"] < after


def test_exact_nearest_breaks_ties_by_smallest_id():
    def entry(entry_id, values):
        return SimpleNamespace(id=entry_id, features=SimpleNamespace(values=values))

    entries = [entry(7, [1.0, 0.0]), entry(3, [0.0, 1.0]), entry(5, [1.0, 0.0])]
    assert exact_nearest(entries, [0.9, 0.0]) == 5
    assert exact_nearest(entries, [0.0, 2.0]) == 3


def test_wrappers_are_removed_after_the_traced_run(tmp_path):
    before = [dict(vars(owner)) for owner in _owners()]
    traced = _invoke(SMALL_SWEEP, 1, tmp_path, True, "traced")
    assert traced["layers"]["sim.simulate"]["calls"] > 0
    for owner, saved in zip(_owners(), before):
        now = vars(owner)
        assert now.keys() == saved.keys()
        changed = [k for k in saved if now[k] is not saved[k]]
        assert not changed, f"{owner.__name__}: {changed} still wrapped"


def test_checks_catch_a_wrong_completion_time_and_a_lost_eviction():
    from reusesim.sim import Mode, SimConfig, StoreSettings, build_store, simulate
    from reusesim.workload import WorkloadSpec, generate

    config = SimConfig(
        mode=Mode.EDGE_WITH_REUSE,
        workload=WorkloadSpec(num_tasks=300, redundancy_rate=0.3, seed=2),
        store=StoreSettings(capacity=20),
    )
    tasks = generate(config.workload)
    store = build_store(config, 2)
    report = simulate(tasks, config.mode, config.cost, store=store)
    assert check_run(config, tasks, store, report)[1] == []

    unwaited = next(i for i, r in enumerate(report.records) if r.waiting_s == 0.0)
    records = list(report.records)
    records[unwaited] = dataclasses.replace(
        records[unwaited], completion_s=records[unwaited].completion_s + 1e-6
    )
    skewed = dataclasses.replace(report, records=tuple(records))
    assert any("cost model" in f for f in check_run(config, tasks, store, skewed)[1])

    store.eviction_log.pop()
    assert any("evictions" in f for f in check_run(config, tasks, store, report)[1])


def test_benchmark_json_declares_exactly_the_reported_metrics():
    spec = json.loads((Path(run.__file__).parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_predictions_name_declared_metrics_and_workloads():
    root = Path(run.__file__).parent
    predictions = json.loads((root / "predictions.json").read_text())["predictions"]
    names = set(run.END_TO_END_UNITS) | set(run.per_layer_units())
    for p in predictions:
        for layer in p["layer_metrics"]:
            assert any(n == layer or n.startswith(layer + ".") for n in names), layer
        assert set(p["moves"]) <= set(run.END_TO_END_UNITS)
        assert set(p["main_workloads"]) | set(p["no_change_on"]) <= set(run.WORKLOADS)
