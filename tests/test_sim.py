import copy
import math
import pickle
from dataclasses import FrozenInstanceError, replace

import pytest

from reusesim import (
    CostParams,
    Mode,
    OutcomeKind,
    ReuseStore,
    SimConfig,
    StoreSettings,
    WorkloadFileError,
    WorkloadSpec,
    completion_cost,
    reuse_gain,
    run,
    simulate,
)
from reusesim import cli, sim
from reusesim.core import FeatureVector, Outcome
from reusesim.cost import received_at
from reusesim.reuse_store import ReuseEntry
from reusesim.sim import RecordView, TaskRecord
from reusesim.workload import generate

from conftest import make_task


def test_single_task_edge_no_reuse_hand_trace(flat_cost):
    # uplink 0.8, execute 2.0, downlink 0.2
    rep = simulate([make_task()], Mode.EDGE_NO_REUSE, flat_cost, edge_slots=1)
    r = rep.records[0]
    assert r.waiting_s == 0.0
    assert r.computation_s == pytest.approx(2.0, abs=1e-9)
    assert r.completion_s == pytest.approx(3.0, abs=1e-9)
    assert r.location == "edge" and r.outcome == "edge_compute"


@pytest.mark.parametrize("mode", list(Mode))
def test_simulate_rejects_repeated_task_ids(flat_cost, mode):
    tasks = [make_task(task_id=0, label="a"), make_task(task_id=0, label="b", arrival=1.0)]
    store = ReuseStore(dimension=2, seed=0)
    with pytest.raises(ValueError, match="task id 0"):
        simulate(tasks, mode, flat_cost, store=store)


def test_repeat_task_full_reuse_hand_trace(flat_cost):
    t0 = make_task(task_id=0, arrival=0.0)
    t1 = make_task(task_id=1, arrival=10.0)
    store = ReuseStore(dimension=2, seed=0)
    rep = simulate([t0, t1], Mode.EDGE_WITH_REUSE, flat_cost, edge_slots=1, store=store)
    second = rep.records[1]
    assert second.outcome == "full_reuse"
    assert second.computation_s == flat_cost.lookup_cost


def test_fifo_waiting_hand_trace(flat_cost):
    t0 = make_task(task_id=0, values=(1.0, 0.0), input_size=0.0, output_size=0.0)
    t1 = make_task(task_id=1, values=(0.0, 1.0), input_size=0.0, output_size=0.0)
    rep = simulate([t0, t1], Mode.EDGE_NO_REUSE, flat_cost, edge_slots=1)
    waits = {r.task_id: r.waiting_s for r in rep.records}
    assert waits[0] == 0.0
    assert waits[1] == pytest.approx(2.0, abs=1e-9)


def test_cloud_only_matches_cost_model(flat_cost):
    t = make_task()
    rep = simulate([t], Mode.CLOUD_ONLY, flat_cost)
    r = rep.records[0]
    expect = completion_cost(t, Outcome(OutcomeKind.CLOUD_OFFLOAD), flat_cost).total
    assert r.completion_s == pytest.approx(expect, abs=1e-12)
    assert r.waiting_s == 0.0
    assert rep.utilization_pct == 0.0


def test_unqueued_records_match_cost_model():
    # with hop latency on, a lone task's completion equals the cost model
    p = CostParams()
    t = make_task(input_size=6.0, output_size=0.3, complexity=100.0)
    plain = simulate([t], Mode.EDGE_NO_REUSE, p, edge_slots=2).records[0]
    expect = completion_cost(t, Outcome(OutcomeKind.EDGE_COMPUTE), p).total
    assert plain.completion_s == pytest.approx(expect, abs=1e-12)

    # so does every task of a reuse run that never waited, whatever its
    # outcome; a partial fraction other than 0.5 tells it from its complement
    spec = WorkloadSpec(
        num_tasks=300, redundancy_rate=0.7, arrival_rate=20.0, noise_sigma=0.12, seed=7
    )
    config = SimConfig(
        mode=Mode.EDGE_WITH_REUSE,
        workload=spec,
        store=StoreSettings(partial_fraction=0.3),
        seed=7,
    )
    tasks = {t.id: t for t in generate(spec)}
    records = run(config).records
    unqueued = [r for r in records if r.waiting_s == 0.0]
    assert len(unqueued) < len(records)
    assert {r.outcome for r in unqueued} == {
        "full_reuse", "partial_reuse", "edge_compute"
    }
    entry = ReuseEntry(id=0, features=FeatureVector((0.0,)), output="x")
    outcomes = {
        "full_reuse": Outcome(OutcomeKind.FULL_REUSE, 1.0, entry),
        "partial_reuse": Outcome(OutcomeKind.PARTIAL_REUSE, 0.3, entry),
        "edge_compute": Outcome(OutcomeKind.EDGE_COMPUTE),
    }
    for r in unqueued:
        expect = completion_cost(tasks[r.task_id], outcomes[r.outcome], config.cost)
        assert r.completion_s == pytest.approx(expect.total, rel=1e-9, abs=1e-12)


def test_determinism_identical_reports():
    config = SimConfig(
        mode=Mode.EDGE_WITH_REUSE,
        workload=WorkloadSpec(num_tasks=120, redundancy_rate=0.6, seed=17),
        seed=17,
    )
    a, b = run(config), run(config)
    assert a.records == b.records
    assert a == b


def test_conservation_and_load_split():
    config = SimConfig(
        mode=Mode.EDGE_WITH_REUSE,
        workload=WorkloadSpec(num_tasks=150, redundancy_rate=0.7, seed=21),
        seed=21,
    )
    rep = run(config)
    assert len(rep.records) == 150
    assert sorted(r.task_id for r in rep.records) == list(range(150))
    assert rep.load_cloud + rep.load_edge + rep.load_reuse == pytest.approx(1.0, abs=1e-9)
    assert 0.0 <= rep.correctness_rate <= 1.0
    assert 0.0 <= rep.utilization_pct <= 100.0


def test_record_time_identities():
    config = SimConfig(
        mode=Mode.EDGE_NO_REUSE,
        workload=WorkloadSpec(num_tasks=100, redundancy_rate=0.5, seed=23),
        seed=23,
    )
    cost = config.cost
    tasks = {t.id: t for t in generate(config.workload)}
    rep = run(config)
    for r in rep.records:
        t = tasks[r.task_id]
        assert r.completion_s == pytest.approx(r.finish_s - r.arrival_s, abs=1e-12)
        uplink = t.input_size / cost.edge_bandwidth + cost.edge_hops * cost.per_hop_latency
        assert r.waiting_s == pytest.approx(r.start_s - (r.arrival_s + uplink), abs=1e-9)
        assert r.waiting_s >= 0 and r.computation_s > 0


def test_utilization_definition():
    config = SimConfig(
        mode=Mode.EDGE_NO_REUSE,
        workload=WorkloadSpec(num_tasks=200, redundancy_rate=0.0, seed=29),
        edge_slots=10,
        seed=29,
    )
    rep = run(config)
    assert rep.utilization_pct == pytest.approx(
        100.0 * rep.busy_slot_time / (rep.edge_slots * rep.makespan), abs=1e-9
    )


def test_mode_ordering_small_grid():
    for n, redundancy in ((20, 0.2), (60, 0.5), (100, 0.8)):
        spec = WorkloadSpec(num_tasks=n, redundancy_rate=redundancy, seed=31)
        rr = run(SimConfig(mode=Mode.EDGE_WITH_REUSE, workload=spec, seed=31))
        rp = run(SimConfig(mode=Mode.EDGE_NO_REUSE, workload=spec, seed=31))
        rc = run(SimConfig(mode=Mode.CLOUD_ONLY, workload=spec, seed=31))
        assert rr.mean_completion_s <= rp.mean_completion_s <= rc.mean_completion_s


def test_reuse_collision_marks_incorrect(flat_cost):
    # two different objects with near-identical features: the second task
    # full-reuses the first object's result, which is the wrong label
    t0 = make_task(task_id=0, label="cat", values=(5.0, 0.0), arrival=0.0)
    t1 = make_task(task_id=1, label="dog", values=(5.0, 1e-6), arrival=10.0)
    store = ReuseStore(
        dimension=2, settings=StoreSettings(tau_full=1.0, tau_partial=2.0), seed=0
    )
    rep = simulate([t0, t1], Mode.EDGE_WITH_REUSE, flat_cost, edge_slots=1, store=store)
    by_id = {r.task_id: r for r in rep.records}
    assert by_id[1].outcome == "full_reuse"
    assert by_id[0].correct is True
    assert by_id[1].correct is False
    assert rep.correctness_rate == pytest.approx(0.5)


def test_partial_reuse_timing(flat_cost):
    # partial hit: slot held for lookup + half the execution
    t0 = make_task(task_id=0, values=(10.0, 0.0), arrival=0.0)
    t1 = make_task(task_id=1, values=(13.0, 0.0), arrival=10.0, complexity=100.0)
    store = ReuseStore(
        dimension=2,
        settings=StoreSettings(tau_full=1.0, tau_partial=5.0, partial_fraction=0.5),
        seed=0,
    )
    rep = simulate([t0, t1], Mode.EDGE_WITH_REUSE, flat_cost, edge_slots=1, store=store)
    second = [r for r in rep.records if r.task_id == 1][0]
    assert second.outcome == "partial_reuse"
    assert second.computation_s == pytest.approx(0.001 + 1.0, abs=1e-9)


def test_queue_delay_bound_bounces_to_cloud(flat_cost):
    # one slot, three simultaneous 2 s tasks, 1 s patience: the third task
    # would wait 4 s, so it abandons the queue and runs on the cloud path
    tasks = [
        make_task(task_id=i, values=(float(i + 1), 0.0), input_size=0.0, output_size=0.0)
        for i in range(3)
    ]
    rep = simulate(
        tasks, Mode.EDGE_NO_REUSE, flat_cost, edge_slots=1, max_queue_delay=1.0
    )
    by_id = {r.task_id: r for r in rep.records}
    assert by_id[0].location == "edge"
    assert by_id[2].location == "cloud"
    assert by_id[2].outcome == "cloud_offload"
    assert by_id[2].waiting_s == pytest.approx(1.0, abs=1e-9)
    assert by_id[2].computation_s == pytest.approx(0.2, abs=1e-9)
    assert rep.load_cloud > 0


def test_tie_rule_at_one_instant(flat_cost):
    # one slot, 2 s tasks, 2 s patience, no transfer time.  Task 0 and task 1
    # arrive at 0 (listed in reverse: receptions go in (arrival, id) order),
    # so 0 starts and its finish at 2 is scheduled before 1's expiry at 2:
    # 1 starts at 2, having waited exactly the patience.  Task 2 arrives at
    # 2; its reception fires before the finish at 2, so its expiry at 4 is
    # scheduled before the finish of task 1 at 4: task 2 bounces.
    tasks = [
        make_task(
            task_id=i,
            values=(float(i + 1), 0.0),
            input_size=0.0,
            output_size=0.0,
            arrival=arrival,
        )
        for i, arrival in reversed(list(enumerate((0.0, 0.0, 2.0))))
    ]
    rep = simulate(
        tasks, Mode.EDGE_NO_REUSE, flat_cost, edge_slots=1, max_queue_delay=2.0
    )
    by_id = {r.task_id: (r.location, r.start_s, r.waiting_s) for r in rep.records}
    assert by_id[0] == ("edge", 0.0, 0.0)
    assert by_id[1] == ("edge", 2.0, 2.0)
    assert by_id[2] == ("cloud", 4.0, 2.0)


@pytest.mark.parametrize("mode", [Mode.EDGE_NO_REUSE, Mode.EDGE_WITH_REUSE])
@pytest.mark.parametrize("max_queue_delay", [None, 1.0, 2.0, 1000.0])
def test_sample_path_littles_law(mode, max_queue_delay):
    # on any finite horizon, the area under the number in system equals the
    # sum of the times in system (Stidham, 1974); a bounced task is in
    # system from its reception until it leaves the queue.  30 tasks/s
    # overloads the slots in both modes, so tasks bounce there
    bounced = 0
    for seed in (3, 4, 5):
        for rate in (6.0, 17.0, 30.0):
            spec = WorkloadSpec(
                num_tasks=300, redundancy_rate=0.5, arrival_rate=rate, seed=seed
            )
            cfg = SimConfig(
                mode=mode, workload=spec, seed=seed, max_queue_delay=max_queue_delay
            )
            tasks = generate(spec)
            recv = {t.id: received_at(t.arrival_time, t, True, cfg.cost) for t in tasks}
            rep = run(cfg)
            last = max(
                r.start_s + r.computation_s
                if r.location == "edge"
                else recv[r.task_id] + r.waiting_s
                for r in rep.records
            )
            span = last - min(recv.values())
            assert math.isclose(
                rep.time_avg_in_system * span,
                len(tasks) * rep.mean_time_in_system,
                rel_tol=1e-9,
            ), (seed, rate)
            bounced += rep.n_cloud
    if max_queue_delay in (1.0, 2.0):
        assert bounced > 0


@pytest.mark.parametrize("mode", [Mode.EDGE_NO_REUSE, Mode.EDGE_WITH_REUSE])
def test_patience_never_reached_changes_nothing(mode):
    spec = WorkloadSpec(num_tasks=300, redundancy_rate=0.5, arrival_rate=30.0, seed=7)
    plain = run(SimConfig(mode=mode, workload=spec, seed=7))
    patient = run(SimConfig(mode=mode, workload=spec, seed=7, max_queue_delay=1000.0))
    assert patient.n_cloud == 0
    assert max(r.waiting_s for r in plain.records) > 0
    assert patient == plain


def test_reuse_gain_zero_redundancy_and_mismatch_errors():
    spec = WorkloadSpec(num_tasks=150, redundancy_rate=0.0, seed=37)
    rr = run(SimConfig(mode=Mode.EDGE_WITH_REUSE, workload=spec, seed=37))
    rp = run(SimConfig(mode=Mode.EDGE_NO_REUSE, workload=spec, seed=37))
    g = reuse_gain(rr, rp)
    assert abs(g.delay_gain) <= 0.05
    assert abs(g.resource_gain) <= 0.05
    # manual arithmetic of the definition
    assert g.delay_gain == pytest.approx(
        1 - rr.mean_completion_s / rp.mean_completion_s
    )
    with pytest.raises(ValueError):
        reuse_gain(rp, rr)  # swapped modes
    with pytest.raises(ValueError, match="^second report must be an EDGE_NO_REUSE run$"):
        reuse_gain(rr, rr)
    for field in ("mean_completion_s", "utilization_pct"):
        with pytest.raises(ValueError, match="^baseline report has degenerate metrics$"):
            reuse_gain(rr, replace(rp, **{field: 0.0}))
    other = run(
        SimConfig(
            mode=Mode.EDGE_NO_REUSE,
            workload=WorkloadSpec(num_tasks=150, redundancy_rate=0.0, seed=38),
            seed=38,
        )
    )
    with pytest.raises(ValueError):
        reuse_gain(rr, other)  # different workload


def test_reuse_gain_halved_mean():
    spec = WorkloadSpec(num_tasks=200, redundancy_rate=0.9, seed=41)
    rr = run(SimConfig(mode=Mode.EDGE_WITH_REUSE, workload=spec, seed=41))
    rp = run(SimConfig(mode=Mode.EDGE_NO_REUSE, workload=spec, seed=41))
    g = reuse_gain(rr, rp)
    if rr.mean_completion_s * 2 == rp.mean_completion_s:
        assert g.delay_gain == pytest.approx(0.5)
    assert g.delay_gain > 0.5  # high redundancy comfortably halves the mean


@pytest.mark.parametrize("mode", list(Mode))
def test_simulate_rejects_zero_edge_slots(flat_cost, mode):
    store = ReuseStore(dimension=2, seed=0)
    with pytest.raises(ValueError, match="^edge_slots must be >= 1") as from_simulate:
        simulate([make_task()], mode, flat_cost, edge_slots=0, store=store)
    # the same rule, with the same message, as the config's
    with pytest.raises(ValueError) as from_config:
        SimConfig(mode=mode, edge_slots=0)
    assert str(from_simulate.value) == str(from_config.value)


@pytest.mark.parametrize("mode", ["cloud_only", None])
def test_a_mode_that_is_not_a_mode_is_rejected_before_any_work(
    flat_cost, mode, monkeypatch
):
    import reusesim.sim as sim

    def no_work(tasks):
        raise AssertionError("simulate started work before checking its arguments")

    monkeypatch.setattr(sim, "workload_digest", no_work)
    store = ReuseStore(dimension=2, seed=0)
    with pytest.raises(ValueError, match="^mode must be a Mode") as from_simulate:
        simulate([make_task()], mode, flat_cost, store=store)
    assert store.stats() == {}
    with pytest.raises(ValueError) as from_config:
        SimConfig(mode=mode)
    assert str(from_simulate.value) == str(from_config.value)


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
def test_simulate_rejects_a_bad_max_queue_delay_before_any_work(
    flat_cost, mode, value, monkeypatch
):
    import reusesim.sim as sim

    def no_work(tasks):
        raise AssertionError("simulate started work before checking its arguments")

    monkeypatch.setattr(sim, "workload_digest", no_work)
    store = ReuseStore(dimension=2, seed=0)
    with pytest.raises(ValueError, match="^max_queue_delay must be") as from_simulate:
        simulate([make_task()], mode, flat_cost, store=store, max_queue_delay=value)
    assert store.stats() == {}
    # the same rule, with the same message, as the config's
    with pytest.raises(ValueError) as from_config:
        SimConfig(mode=mode, max_queue_delay=value)
    assert str(from_simulate.value) == str(from_config.value)


def test_simulate_defaults_to_the_config_edge_slots(flat_cost):
    report = simulate([make_task()], Mode.EDGE_NO_REUSE, flat_cost)
    assert report.edge_slots == SimConfig(mode=Mode.EDGE_NO_REUSE).edge_slots


def test_simulate_rejects_missing_store(flat_cost):
    with pytest.raises(ValueError):
        simulate([make_task()], Mode.EDGE_WITH_REUSE, flat_cost, store=None)


def test_simulate_rejects_empty_run(flat_cost):
    with pytest.raises(ValueError):
        simulate([], Mode.EDGE_NO_REUSE, flat_cost)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(mode=Mode.CLOUD_ONLY, trials=0)
    with pytest.raises(ValueError):
        SimConfig(mode=Mode.CLOUD_ONLY, edge_slots=0)
    with pytest.raises(ValueError):
        SimConfig(mode=Mode.CLOUD_ONLY, max_queue_delay=0.0)
    # a fractional slot count would run with silently wrong results
    for field in ("edge_slots", "trials", "seed"):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got 2.5$"):
            SimConfig(mode=Mode.EDGE_NO_REUSE, **{field: 2.5})


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite(value):
    with pytest.raises(ValueError, match="^max_queue_delay must be finite"):
        SimConfig(mode=Mode.EDGE_WITH_REUSE, max_queue_delay=value)
    # a non-finite workload field fails before any run starts
    with pytest.raises(ValueError, match="^arrival_rate must be finite"):
        run(
            SimConfig(
                mode=Mode.EDGE_NO_REUSE,
                workload=WorkloadSpec(num_tasks=5, arrival_rate=value),
            )
        )


def test_a_generated_run_needs_at_least_one_task(tmp_path):
    with pytest.raises(ValueError, match="^workload.num_tasks must be >= 1 "):
        SimConfig(mode=Mode.EDGE_NO_REUSE, workload=WorkloadSpec(num_tasks=0))
    # a dump sets the task count, so the spec's count is not read
    dump = tmp_path / "features.csv"
    dump.write_text("a,1.0,2.0\n", encoding="utf-8")
    config = SimConfig(
        mode=Mode.EDGE_NO_REUSE,
        workload=WorkloadSpec(num_tasks=0, dimension=2),
        features_file=str(dump),
    )
    assert [r.label for r in run(config).records] == ["a"]


@pytest.mark.parametrize("lines", [[], ["label,f1,f2"]], ids=["empty", "header only"])
def test_a_dump_without_records_is_rejected_naming_the_file(tmp_path, lines):
    dump, config = _dump_config(tmp_path, lines)
    with pytest.raises(WorkloadFileError, match=f"^features_file {str(dump)!r} holds no"):
        run(config)


def test_negative_seed_is_rejected():
    # numpy would reject it only at the first draw, with no field named
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SimConfig(mode=Mode.EDGE_NO_REUSE, seed=-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        WorkloadSpec(seed=-1)


def test_store_settings_flow_through_run():
    spec = WorkloadSpec(num_tasks=60, redundancy_rate=0.9, seed=43)
    rep = run(
        SimConfig(
            mode=Mode.EDGE_WITH_REUSE,
            workload=spec,
            store=StoreSettings(capacity=1),
            seed=43,
        )
    )
    # capacity 1 still reuses the one hot entry sometimes, but misses more
    rep_big = run(
        SimConfig(
            mode=Mode.EDGE_WITH_REUSE,
            workload=spec,
            store=StoreSettings(capacity=500),
            seed=43,
        )
    )
    assert rep.n_edge_compute >= rep_big.n_edge_compute


def _dump_config(tmp_path, lines):
    dump = tmp_path / "features.csv"
    dump.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return dump, SimConfig(
        mode=Mode.EDGE_NO_REUSE,
        workload=WorkloadSpec(dimension=2),
        trials=3,
        features_file=str(dump),
    )


def test_run_reads_the_feature_dump_once_per_config(tmp_path, monkeypatch):
    import reusesim.workload as workload

    dump, config = _dump_config(tmp_path, ["a,1.0,2.0", "b,3.0,4.0"])
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(workload, "open", counting_open, raising=False)
    reports = [run(config, trial) for trial in range(config.trials)]
    assert opened == [str(dump)]
    # each trial still draws its own sizes and arrivals
    assert len({r.workload_digest for r in reports}) == 3


def test_a_dump_rewritten_after_the_first_trial_changes_no_later_trial(tmp_path):
    dump, config = _dump_config(tmp_path, ["a,1.0,2.0", "b,3.0,4.0"])
    labels = [[r.label for r in run(config, 0).records]]
    dump.write_text("x,1.0,2.0\ny,3.0,4.0\nz,5.0,6.0\n", encoding="utf-8")
    labels += [[r.label for r in run(config, trial).records] for trial in (1, 2)]
    assert labels == [["a", "b"]] * 3


def test_a_config_is_frozen(tmp_path):
    dump, config = _dump_config(tmp_path, ["a,1.0,2.0", "b,3.0,4.0"])
    with pytest.raises(FrozenInstanceError):
        config.features_file = str(dump)
    with pytest.raises(FrozenInstanceError):
        config.workload = replace(config.workload, dimension=3)


def test_a_replaced_config_reads_the_dump_again(tmp_path):
    dump, config = _dump_config(tmp_path, ["a,1.0,2.0", "b,3.0,4.0"])
    assert [r.label for r in run(config, 0).records] == ["a", "b"]
    other = tmp_path / "other.csv"
    other.write_text("x,1.0,2.0\n", encoding="utf-8")
    moved = replace(config, features_file=str(other))
    assert [r.label for r in run(moved, 0).records] == ["x"]
    wider = replace(config, workload=replace(config.workload, dimension=3))
    with pytest.raises(WorkloadFileError, match="expected 3 feature values"):
        run(wider, 0)
    # the original keeps its own parse
    assert [r.label for r in run(config, 1).records] == ["a", "b"]


@pytest.mark.parametrize("mode", [Mode.CLOUD_ONLY, Mode.EDGE_NO_REUSE])
def test_simulate_rejects_simulated_times_that_overflow(mode):
    # an input sent over a subnormal bandwidth takes an infinite time
    cost = CostParams(edge_bandwidth=1e-320, cloud_bandwidth=1e-320)
    with pytest.raises(
        ValueError, match="^simulated times overflowed: mean_completion_s is inf$"
    ):
        simulate([make_task()], mode, cost)


def _records_run():
    # one slot and a short patience: edge and cloud records both turn up
    return run(
        SimConfig(
            Mode.EDGE_WITH_REUSE,
            WorkloadSpec(num_tasks=60, arrival_rate=2.0, noise_sigma=0.12, seed=3),
            edge_slots=1,
            max_queue_delay=1.0,
        )
    )


def test_run_and_tasks_csv_build_no_record(monkeypatch):
    built = []

    def counting_build(*values):
        built.append(values[0])
        return TaskRecord(*values)

    monkeypatch.setattr(sim, "_build_record", counting_build)
    report = _records_run()
    cli.tasks_csv_text(report)
    assert built == []
    records = list(report.records)
    assert built == [r.task_id for r in records] == list(range(60))


def test_the_record_view_acts_as_the_tuple_of_its_records():
    report = _records_run()
    view = report.records
    assert type(view) is RecordView
    as_tuple = tuple(view)
    assert len(view) == len(as_tuple) == 60
    assert {r.location for r in as_tuple} == {"edge", "cloud"}
    assert all(type(r) is TaskRecord for r in view)
    assert view[-1] == as_tuple[-1] and view[0] == as_tuple[0]
    assert view[5:9] == as_tuple[5:9] and type(view[5:9]) is tuple
    assert view[::-7] == as_tuple[::-7]
    with pytest.raises(IndexError):
        view[60]
    assert view == as_tuple and as_tuple == view
    assert not view != as_tuple and not as_tuple != view
    assert view != as_tuple[:-1] and as_tuple[:-1] != view
    assert view != list(as_tuple)
    assert view == RecordView(view.rows)
    assert hash(view) == hash(as_tuple)
    assert repr(view) == repr(as_tuple)
    for copied in (pickle.loads(pickle.dumps(view)), copy.deepcopy(view), copy.copy(view)):
        assert type(copied) is RecordView
        assert copied == view and copied.rows == view.rows
    assert pickle.loads(pickle.dumps(report)) == report
    assert copy.deepcopy(report) == report
    assert hash(report) == hash(copy.deepcopy(report))


def test_a_report_given_records_holds_them_as_a_view():
    report = _records_run()
    rebuilt = replace(report, records=tuple(report.records))
    assert type(rebuilt.records) is RecordView
    assert rebuilt == report and rebuilt.records.rows == report.records.rows
    assert replace(report, records=list(report.records[:3])).records == report.records[:3]
    assert replace(report, records=()).records == ()
