"""Full-precision pins: a SHA-256 over the ``repr`` of every result float.

The golden CSV pins in ``test_cli.py`` write floats to 10 significant
digits, so a change in the last bit of a float passes them.  These pins hash
the ``repr`` of every ``TaskRecord`` field and of every scalar field of
``MetricsReport``, in record order, so any such change fails here.
"""

import hashlib
from dataclasses import fields

import reusesim.cli as cli
import reusesim.sim as sim
from reusesim.reuse_store import StoreSettings
from reusesim.sim import MetricsReport, Mode, SimConfig, TaskRecord, run
from reusesim.workload import WorkloadSpec

_RECORD_FIELDS = [f.name for f in fields(TaskRecord)]
_REPORT_FIELDS = [f.name for f in fields(MetricsReport) if f.name != "records"]


def _update(h, report: MetricsReport) -> None:
    for record in report.records:
        h.update(repr([getattr(record, name) for name in _RECORD_FIELDS]).encode())
    h.update(repr([getattr(report, name) for name in _REPORT_FIELDS]).encode())


def _run_pinned(monkeypatch, config: SimConfig):
    """The report of trial 0 of ``config``, its hash and the store it used."""
    stores = []
    build_store = sim.build_store

    def capturing(config, seed):
        stores.append(build_store(config, seed))
        return stores[-1]

    monkeypatch.setattr(sim, "build_store", capturing)
    report = run(config)
    h = hashlib.sha256()
    _update(h, report)
    return report, h.hexdigest(), stores[0]


def test_churn_shaped_run_is_pinned(monkeypatch):
    # perfbench's churn workload at seed 301, first trial
    config = SimConfig(
        mode=Mode.EDGE_WITH_REUSE,
        workload=WorkloadSpec(num_tasks=3000, redundancy_rate=0.2, arrival_rate=17.0),
        max_queue_delay=2.0,
        seed=301,
    )
    report, digest, store = _run_pinned(monkeypatch, config)
    assert store.eviction_log  # LFU evictions happened
    assert report.n_cloud > 0  # and tasks reneged to the cloud
    assert digest == (
        "477192a83469c7884d8021f42b681152a4ef26fd4840c4bf72ff519b55cc3b2e"
    )


def test_hot_shaped_run_is_pinned(monkeypatch):
    config = SimConfig(
        mode=Mode.EDGE_WITH_REUSE,
        workload=WorkloadSpec(
            num_tasks=2000, redundancy_rate=0.9, noise_sigma=0.12
        ),
        store=StoreSettings(capacity=None),
        seed=301,
    )
    report, digest, store = _run_pinned(monkeypatch, config)
    assert not store.eviction_log
    assert report.n_full_reuse > 0 and report.n_partial_reuse > 0
    assert digest == (
        "bc2d3e5ae181f600e9338f51486c192baf221573e1dbbaa1414a2573c0da121c"
    )


def test_sweep_is_pinned(monkeypatch, tmp_path):
    """Every report of ``sweep completion --trials 2``, and its CSV in full precision.

    The CSV is written with ``repr`` in place of the 10-digit format, so its
    p90 rows are pinned to the last bit too.
    """
    h = hashlib.sha256()

    def hashing_run(config, trial=0):
        report = run(config, trial)
        _update(h, report)
        return report

    monkeypatch.setattr(cli, "run", hashing_run)
    monkeypatch.setattr(cli, "_fmt", repr)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "completion", "-d", str(out), "--trials", "2"]) == 0
    csv = (out / "sweep_completion.csv").read_text(encoding="utf-8")
    assert csv.count(",p90,") == 30
    assert h.hexdigest() == (
        "47464e1d18e64929343279982b1a44099e3e15ec8b1493ffbc3af66a37acdfed"
    )
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "7f67cc2c2ea324c2d6d04ef5c5154d6c5dd46ec10373e89aee10f6307c551050"
    )
