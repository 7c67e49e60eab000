"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The criteria: the cost model against hand-computed values and the
reassembly identity, the collision law at four angles over 10^5 trials, LFU
eviction against a brute-force model over 10^4 operation sequences, the
forwarding policy against an independent reference interpreter, the
completion-time, utilization, load-split, correctness and reuse-gain
trends, byte-identical CLI reruns, and Little's law on a long
low-utilization run (``tests/test_sim.py`` checks its sample-path form,
area under the number in system = sum of times in system, exactly).

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Tolerances and runtime budgets are pinned here; nothing is
deferred to later calibration.
"""

import math
import random
import time

import numpy as np
import pytest

from reusesim import (
    CostParams,
    FeatureVector,
    LshSettings,
    Mode,
    Outcome,
    OutcomeKind,
    ReuseStore,
    SimConfig,
    StoreSettings,
    WorkloadSpec,
    completion_cost,
    generate,
    ramp_rate,
    reuse_cost,
    reuse_gain,
    run,
    simulate,
)
from reusesim.cli import main as cli_main
from reusesim.reuse_store import ReuseEntry

from conftest import make_task
from test_forwarding import trace_pair
from test_lsh import collision_rate


def _report(num, name, ok, detail=""):
    print(f"[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _entry():
    return ReuseEntry(id=0, features=FeatureVector((0.0,)), output="x")


def test_criterion_01_cost_model_exactness(flat_cost):
    t0 = time.perf_counter()
    t = make_task()
    checks = [
        # (actual, expected) pairs from hand evaluation
        ((t.input_size + t.output_size) / flat_cost.edge_bandwidth, 1.0),
        ((t.input_size + t.output_size) / flat_cost.cloud_bandwidth, 5.0),
        (t.complexity / flat_cost.edge_capacity_rate, 2.0),
        (t.complexity / flat_cost.cloud_capacity_rate, 0.2),
        (reuse_cost(t, 1.0, flat_cost), 0.001),
        (reuse_cost(t, 0.5, flat_cost), 1.001),
        (
            completion_cost(t, Outcome(OutcomeKind.CLOUD_OFFLOAD), flat_cost).total,
            5.2,
        ),
        (
            completion_cost(
                t,
                Outcome(OutcomeKind.FULL_REUSE, 1.0, _entry()),
                flat_cost,
            ).total,
            1.001,
        ),
        (
            completion_cost(t, Outcome(OutcomeKind.EDGE_COMPUTE), flat_cost).total,
            3.0,
        ),
    ]
    exact = all(abs(a - b) <= 1e-9 for a, b in checks)

    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(10_000):
        task = make_task(
            input_size=float(rng.uniform(0, 20)),
            output_size=float(rng.uniform(0, 5)),
            complexity=float(rng.uniform(1, 500)),
        )
        params = CostParams(
            edge_bandwidth=float(rng.uniform(1, 200)),
            cloud_bandwidth=float(rng.uniform(1, 200)),
            edge_capacity_rate=float(rng.uniform(1, 500)),
            cloud_capacity_rate=float(rng.uniform(1, 5000)),
            lookup_cost=float(rng.uniform(0, 0.1)),
            edge_hops=int(rng.integers(1, 4)),
            cloud_hops=int(rng.integers(4, 9)),
            per_hop_latency=float(rng.uniform(0, 0.02)),
        )
        k = int(rng.integers(0, 4))
        outcome = (
            Outcome(OutcomeKind.FULL_REUSE, 1.0, _entry()),
            Outcome(OutcomeKind.PARTIAL_REUSE, float(rng.uniform(0.05, 0.95)), _entry()),
            Outcome(OutcomeKind.EDGE_COMPUTE),
            Outcome(OutcomeKind.CLOUD_OFFLOAD),
        )[k]
        b = completion_cost(task, outcome, params)
        gamma = 1.0 if outcome.is_reuse else 0.0
        worst = max(
            worst,
            abs(b.communication + (1 - gamma) * b.execution + gamma * b.reuse - b.total),
        )
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "cost-model exactness",
        exact and worst <= 1e-12 and elapsed < 1.0,
        f"(worked examples to 1e-9; identity residual {worst:.2e} on 1e4 inputs; "
        f"{elapsed:.2f}s)",
    )


def test_criterion_02_lsh_collision_law():
    t0 = time.perf_counter()
    k = 8
    diffs = {}
    for theta in (0.05, 0.1, 0.3, 0.6):
        rate = collision_rate(theta, bits=k, builds=100, tables=1000, seed0=9000)
        diffs[theta] = abs(rate - (1 - theta / math.pi) ** k)
    elapsed = time.perf_counter() - t0
    ok = all(d <= 0.02 for d in diffs.values()) and elapsed < 30.0
    _report(
        2,
        "LSH collision law",
        ok,
        "("
        + ", ".join(f"theta={a}: |diff|={d:.4f}" for a, d in diffs.items())
        + f"; 1e5 trials each; {elapsed:.1f}s)",
    )


def test_criterion_03_lfu_oracle_equivalence():
    # protocol with guaranteed index recall: stored vectors are far apart on
    # one axis, lookups use exact copies, so the model below (including its
    # own full-scan LFU eviction) is fully independent of the real store.
    t0 = time.perf_counter()

    def one_sequence(seq_seed):
        rng = random.Random(seq_seed)
        capacity = rng.randint(2, 5)
        store = ReuseStore(
            dimension=4,
            settings=StoreSettings(capacity=capacity),
            lsh=LshSettings(num_tables=2, bits_per_table=4),
            seed=seq_seed,
        )
        model = {}
        model_evictions = []
        vectors = {}
        next_id = 0
        placed = []
        now = 0.0
        for _ in range(rng.randint(10, 24)):
            now += 1.0
            if placed and rng.random() < 0.55:
                i = rng.choice(placed)
                store.lookup("svc", vectors[i], now)
                if i in model:  # live entry: guaranteed FULL hit at distance 0
                    model[i][0] += 1
                    model[i][1] = now
            else:
                i = next_id
                next_id += 1
                v = FeatureVector((10.0 * (i + 1), 0.0, 0.0, 0.0))
                vectors[i] = v
                if len(model) >= capacity:
                    victim = min(model.values(), key=lambda e: (e[0], e[1], e[2]))
                    del model[victim[2]]
                    model_evictions.append(victim[2])
                store.place("svc", v, "x", now)
                model[i] = [0, now, i]
                placed.append(i)
        return [eid for _, eid in store.eviction_log] == model_evictions

    mismatches = sum(not one_sequence(s) for s in range(10_000))
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "LFU oracle equivalence",
        mismatches == 0 and elapsed < 10.0,
        f"(1e4 randomized sequences, {mismatches} mismatches; {elapsed:.1f}s)",
    )


def test_criterion_04_forwarding_trace_oracle():
    t0 = time.perf_counter()
    mismatches = 0
    for seed in range(100):
        real, model = trace_pair(seed, n=random.Random(seed).randint(10, 50))
        if real != model:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _report(
        4,
        "forwarding trace oracle",
        mismatches == 0,
        f"(100 sequences vs reference interpreter, {mismatches} mismatches; "
        f"{elapsed:.1f}s)",
    )


def test_criterion_05_completion_time_trend():
    t0 = time.perf_counter()
    passing = 0
    reductions = []
    for trial in range(10):
        trial_ok = True
        for n in range(10, 101, 10):
            spec = WorkloadSpec(num_tasks=n, redundancy_rate=ramp_rate(n), seed=42)
            rr = run(SimConfig(mode=Mode.EDGE_WITH_REUSE, workload=spec, seed=42), trial)
            rp = run(SimConfig(mode=Mode.EDGE_NO_REUSE, workload=spec, seed=42), trial)
            rc = run(SimConfig(mode=Mode.CLOUD_ONLY, workload=spec, seed=42), trial)
            if not (
                rr.mean_completion_s <= rp.mean_completion_s <= rc.mean_completion_s
            ):
                trial_ok = False
            if n == 100:
                reduction = 1 - rr.mean_completion_s / rp.mean_completion_s
                reductions.append(reduction)
                if reduction < 0.5:
                    trial_ok = False
        passing += trial_ok
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "completion-time trend",
        passing >= 9 and elapsed < 120.0,
        f"({passing}/10 trials ordered with >=50% reduction at n=100; "
        f"reductions {min(reductions):.2f}..{max(reductions):.2f}; {elapsed:.1f}s)",
    )


def test_criterion_06_utilization_trend():
    t0 = time.perf_counter()
    spec = WorkloadSpec(num_tasks=1000, redundancy_rate=0.8, seed=42)
    rr = run(SimConfig(mode=Mode.EDGE_WITH_REUSE, workload=spec, seed=42))
    rp = run(SimConfig(mode=Mode.EDGE_NO_REUSE, workload=spec, seed=42))
    ratio = rr.utilization_pct / rp.utilization_pct
    elapsed = time.perf_counter() - t0
    _report(
        6,
        "utilization trend",
        ratio <= 0.4 and elapsed < 120.0,
        f"(reuse {rr.utilization_pct:.1f}% vs plain {rp.utilization_pct:.1f}%, "
        f"ratio {ratio:.2f} <= 0.4; {elapsed:.1f}s)",
    )


def test_criterion_07_load_split_trend():
    t0 = time.perf_counter()
    spec = WorkloadSpec(num_tasks=1000, redundancy_rate=0.8, seed=42)
    tasks = generate(spec)
    cost = CostParams()
    probe = simulate(tasks, Mode.EDGE_NO_REUSE, cost, edge_slots=100_000)
    requirement = probe.peak_concurrency
    slots = max(1, round(0.1 * requirement))
    bound = 10.0
    rp = simulate(
        tasks, Mode.EDGE_NO_REUSE, cost, edge_slots=slots, max_queue_delay=bound
    )
    store = ReuseStore(dimension=spec.dimension, seed=42)
    rr = simulate(
        tasks,
        Mode.EDGE_WITH_REUSE,
        cost,
        edge_slots=slots,
        store=store,
        max_queue_delay=bound,
    )
    plain_edge = 1.0 - rp.load_cloud
    reuse_edge = 1.0 - rr.load_cloud
    elapsed = time.perf_counter() - t0
    _report(
        7,
        "load-split trend",
        plain_edge < 0.5 and reuse_edge >= 0.95,
        f"(requirement {requirement} slots -> {slots}; plain edge share "
        f"{plain_edge:.2f} < 0.5, reuse edge share {reuse_edge:.2f} >= 0.95; "
        f"{elapsed:.1f}s)",
    )


def test_criterion_08_correctness():
    spec = WorkloadSpec(num_tasks=1000, redundancy_rate=0.8, noise_sigma=0.05, seed=42)
    capped = run(
        SimConfig(
            mode=Mode.EDGE_WITH_REUSE,
            workload=spec,
            store=StoreSettings(capacity=500),
            seed=42,
        )
    )
    spec0 = WorkloadSpec(num_tasks=1000, redundancy_rate=0.8, noise_sigma=0.0, seed=42)
    exact = run(
        SimConfig(
            mode=Mode.EDGE_WITH_REUSE,
            workload=spec0,
            store=StoreSettings(capacity=None),
            seed=42,
        )
    )
    ok = capped.correctness_rate >= 0.85 and exact.correctness_rate == 1.0
    _report(
        8,
        "computation correctness",
        ok,
        f"(sigma=0.05/cap=500: {capped.correctness_rate:.3f} >= 0.85; "
        f"sigma=0/unlimited: {exact.correctness_rate} == 1.0)",
    )


def test_criterion_09_reuse_gain_sanity():
    t0 = time.perf_counter()
    spec = WorkloadSpec(num_tasks=400, redundancy_rate=0.0, seed=42)
    rr = run(SimConfig(mode=Mode.EDGE_WITH_REUSE, workload=spec, seed=42))
    rp = run(SimConfig(mode=Mode.EDGE_NO_REUSE, workload=spec, seed=42))
    g0 = reuse_gain(rr, rp)
    zero_ok = abs(g0.delay_gain) <= 0.05 and abs(g0.resource_gain) <= 0.05

    monotone_trials = 0
    for trial in range(10):
        dg, rg = [], []
        for r in [round(0.1 * i, 1) for i in range(1, 9)]:
            s = WorkloadSpec(num_tasks=400, redundancy_rate=r, seed=42)
            g = reuse_gain(
                run(SimConfig(mode=Mode.EDGE_WITH_REUSE, workload=s, seed=42), trial),
                run(SimConfig(mode=Mode.EDGE_NO_REUSE, workload=s, seed=42), trial),
            )
            dg.append(g.delay_gain)
            rg.append(g.resource_gain)
        if all(a <= b for a, b in zip(dg, dg[1:])) and all(
            a <= b for a, b in zip(rg, rg[1:])
        ):
            monotone_trials += 1
    elapsed = time.perf_counter() - t0
    _report(
        9,
        "reuse-gain sanity",
        zero_ok and monotone_trials >= 9,
        f"(zero-redundancy gains {g0.delay_gain:+.4f}/{g0.resource_gain:+.4f} within "
        f"±0.05; monotone in {monotone_trials}/10 trials; {elapsed:.1f}s)",
    )


def test_criterion_10_cli_determinism(tmp_path):
    cfg = tmp_path / "exp.conf"
    cfg.write_text(
        "mode = edge_with_reuse\nworkload.num_tasks = 60\ntrials = 3\n",
        encoding="utf-8",
    )
    pairs = []
    for i in (1, 2):
        out = tmp_path / f"run{i}"
        assert cli_main(["run", "-c", str(cfg), "-d", str(out)]) == 0
        pairs.append(
            (out / "tasks.csv").read_bytes() + (out / "summary.csv").read_bytes()
        )
    run_ok = pairs[0] == pairs[1]

    sweeps = []
    for i in (1, 2):
        out = tmp_path / f"sweep{i}"
        assert cli_main(["sweep", "completion", "-d", str(out)]) == 0
        sweeps.append((out / "sweep_completion.csv").read_bytes())
    sweep_ok = sweeps[0] == sweeps[1]
    _report(
        10,
        "CLI determinism",
        run_ok and sweep_ok,
        "(repeated run and sweep invocations byte-identical)",
    )


def test_criterion_11_littles_law():
    spec = WorkloadSpec(num_tasks=5000, redundancy_rate=0.0, seed=5)
    rep = run(SimConfig(mode=Mode.EDGE_NO_REUSE, workload=spec, seed=5))
    lhs = rep.time_avg_in_system
    rhs = spec.arrival_rate * rep.mean_time_in_system
    rel_err = abs(lhs - rhs) / rhs
    ok = rel_err <= 0.10 and rep.utilization_pct < 80.0
    _report(
        11,
        "Little's law identity",
        ok,
        f"(time-avg N={lhs:.3f} vs rate*W={rhs:.3f}, rel err {rel_err:.3f} <= 0.10 "
        f"at {rep.utilization_pct:.0f}% utilization)",
    )
