"""Deterministic discrete-event simulation of users -> edge -> cloud.

Task timeline (edge modes)::

    arrival --uplink--> received at edge --queue--> slot service --downlink--> done

* every transfer time comes from ``cost.received_at`` (the uplink: the
  input plus the whole path's hop latency) and ``cost.delivered_at`` (the
  downlink: the output), so transfer time plus service time reproduces the
  completion-cost model exactly when a task never waits.
* the edge has ``edge_slots`` identical slots served FIFO from one queue;
  a slot is held for the full execution time on a miss, for the lookup cost
  on a full reuse hit, and for lookup plus residual execution on a partial
  hit.  Lookup cost is charged only on hits, mirroring the cost model, where
  a from-scratch task's completion carries no lookup term.
* results are stored (placement) the moment execution finishes, before the
  downlink transfer.

``CloudOnly`` bypasses the edge: tasks travel the user<->cloud path and run
immediately (unbounded cloud parallelism).

With ``max_queue_delay`` set, a task that has waited that long abandons the
edge queue and is offloaded: it repeats its transfer on the user<->cloud
path and executes there, keeping the time already spent waiting.

The event loop is single-threaded, so runs are exactly reproducible.  Ties
at one instant: receptions fire first, in (arrival, id) order.  Every task
has the same patience, so only the queue's head can renege next; when a
slot frees at the instant the head's ``max_queue_delay`` runs out, the one
scheduled first wins: the head's deadline is scheduled at its reception, a
slot's freeing at the dispatch that filled it.  Independent trials may run in
parallel and merge afterwards.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from collections import Counter, deque
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (
    CostParams,
    Outcome,
    OutcomeKind,
    Task,
    _slot_builder,
    frozen_slots,
    require_finite,
)
from .cost import delivered_at, execution_cost, received_at, reuse_cost
from .forwarding import EdgeNode
from .lsh import LshSettings
from .reuse_store import ReuseStore, StoreSettings
from .workload import WorkloadSpec, _dump_tasks, _read_dump, generate


class Mode(Enum):
    CLOUD_ONLY = "cloud_only"
    EDGE_NO_REUSE = "edge_no_reuse"
    EDGE_WITH_REUSE = "edge_with_reuse"


def _check_run(mode: Mode, edge_slots: int, max_queue_delay: Optional[float]) -> None:
    """Run rules shared by ``SimConfig`` and ``simulate``; each error names its field."""
    if not isinstance(mode, Mode):
        raise ValueError(f"mode must be a Mode, got {mode!r}")
    if edge_slots < 1:
        raise ValueError("edge_slots must be >= 1")
    require_finite("max_queue_delay", max_queue_delay)
    if max_queue_delay is not None and max_queue_delay <= 0:
        raise ValueError("max_queue_delay must be > 0 when set")


@dataclass(frozen=True)
class SimConfig:
    """One experiment: mode, workload, costs, edge and store, trials and seed.

    ``run`` seeds trial *i*'s workload and store from ``seed + i``, whatever
    ``workload.seed`` holds.  ``features_file`` is read once per config, at
    the first trial that needs it.  A config is frozen: ``dataclasses.replace``
    makes a new one, which reads its own dump.
    """

    mode: Mode
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    cost: CostParams = field(default_factory=CostParams)
    edge_slots: int = 15
    store: StoreSettings = field(default_factory=StoreSettings)
    lsh: LshSettings = field(default_factory=LshSettings)
    trials: int = 10
    seed: int = 42
    max_queue_delay: Optional[float] = None
    features_file: Optional[str] = None

    def __post_init__(self) -> None:
        _check_run(self.mode, self.edge_slots, self.max_queue_delay)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @cached_property
    def _dump(self) -> tuple[list[str], np.ndarray]:
        """The labels and feature matrix of ``features_file``."""
        return _read_dump(self.features_file, self.workload.dimension)


@frozen_slots
class TaskRecord:
    task_id: int
    service: str
    label: str
    outcome: str
    location: str
    arrival_s: float
    start_s: float
    finish_s: float
    waiting_s: float
    computation_s: float
    completion_s: float
    correct: bool


@dataclass(frozen=True)
class MetricsReport:
    mode: Mode
    records: tuple[TaskRecord, ...]
    mean_completion_s: float
    p90_completion_s: float
    mean_computation_s: float
    mean_waiting_s: float
    utilization_pct: float
    load_cloud: float
    load_edge: float
    load_reuse: float
    correctness_rate: float
    busy_slot_time: float
    makespan: float
    edge_slots: int
    peak_concurrency: int
    time_avg_in_system: float
    mean_time_in_system: float
    n_full_reuse: int
    n_partial_reuse: int
    n_edge_compute: int
    n_cloud: int
    workload_digest: str


def task_correct(outcome: Outcome, task: Task) -> bool:
    """Whether the task's final output matches from-scratch computation.

    From-scratch execution (edge or cloud) is ground truth by definition; a
    reuse hit is correct iff the matched entry was produced from the same
    object.  For a partial hit the residual is computed from scratch, but the
    reused fraction still has to match.
    """
    return not outcome.is_reuse or outcome.matched_entry.output == task.object_label


_task_id = attrgetter("id")
_task_label = attrgetter("object_label")
# the float fields in the order the digest packs them
_DIGEST_FLOATS = tuple(
    map(attrgetter, ("input_size", "output_size", "complexity", "arrival_time"))
)


def workload_digest(tasks: Sequence[Task]) -> str:
    """A 128-bit BLAKE2b hex digest of the tasks' ids, labels and float fields.

    It hashes the task list as columns, in this order:

    1. the ids as decimal text: ``str`` of the list of ids and a newline;
    2. each label's length in code points, as little-endian int64s;
    3. the labels, concatenated, in UTF-8 (lone surrogates pass through);
    4. the input sizes, output sizes, complexities and arrival times, each
       column as ``n`` little-endian float64s.

    The id list gives ``n``, hence the widths of parts 2 and 4, and the
    lengths split the decoded labels, so two different task lists never feed
    the same bytes.  The digest covers values, not Python types: an ``int``
    size digests as its float, and ``0.0`` and ``-0.0`` differ.  Services
    and feature vectors are not covered.
    """
    n = len(tasks)
    labels = list(map(_task_label, tasks))
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{list(map(_task_id, tasks))}\n".encode())
    h.update(np.fromiter(map(len, labels), "<i8", n).tobytes())
    h.update("".join(labels).encode("utf-8", "surrogatepass"))
    for field_of in _DIGEST_FLOATS:
        h.update(np.fromiter(map(field_of, tasks), "<f8", n).tobytes())
    return h.hexdigest()


def p90(values: Iterable[float]) -> float:
    """The 90th percentile of ``values``, bit for bit ``np.percentile(values, 90)``.

    numpy's default linear method, type 7 of Hyndman & Fan (1996), computed
    in Python: the virtual index ``(n - 1) * 0.9`` splits into its floor
    ``i`` and ``gamma``, and sorted elements ``i`` and ``i + 1`` are
    interpolated as numpy's ``_lerp`` does, from the upper one when
    ``gamma >= 0.5``.  An index at ``n - 1`` (only when ``n == 1``) takes the
    last element.  Where ``0.0`` and ``-0.0`` tie, numpy's result may take
    either sign, depending on how its partition orders them.
    """
    xs = sorted(values)
    n = len(xs)
    if not n:
        raise ValueError("p90 needs at least one value")
    at = (n - 1) * 0.9
    i = math.floor(at)
    if i >= n - 1:
        return xs[-1]
    a, b = xs[i], xs[i + 1]
    gamma = at - i
    if gamma >= 0.5:
        return b - (b - a) * (1 - gamma)
    return a + (b - a) * gamma


# each outcome kind's ``outcome`` and ``location`` cells in a record
_OUTCOME_CELLS = {
    kind: (kind.value, "cloud" if kind is OutcomeKind.CLOUD_OFFLOAD else "edge")
    for kind in OutcomeKind
}
_CLOUD_CELLS = _OUTCOME_CELLS[OutcomeKind.CLOUD_OFFLOAD]
_build_record = _slot_builder(TaskRecord)


def _record(
    task: Task,
    cells: tuple[str, str],
    start: float,
    finish: float,
    waiting: float,
    computation: float,
    correct: bool,
) -> TaskRecord:
    """Record of a task, given its ``outcome`` and ``location`` cells."""
    at = task.arrival_time
    return _build_record(
        task.id, task.service, task.object_label, cells[0], cells[1], at,
        start, finish, waiting, computation, finish - at, correct,
    )


def _cloud_record(
    task: Task, depart: float, waiting: float, cost: CostParams
) -> TaskRecord:
    """Record for a task served on the cloud path starting at ``depart``."""
    start = received_at(depart, task, False, cost)
    computation = execution_cost(task, False, cost)
    finish = delivered_at(start + computation, task, False, cost)
    # computed from scratch, so correct by definition
    return _record(task, _CLOUD_CELLS, start, finish, waiting, computation, True)


_RECV, _FINISH = 0, 1


def simulate(
    tasks: Sequence[Task],
    mode: Mode,
    cost: CostParams,
    edge_slots: int = SimConfig.edge_slots,
    store: Optional[ReuseStore] = None,
    max_queue_delay: Optional[float] = None,
) -> MetricsReport:
    """Run one trial over a fixed task list and return its metrics."""
    _check_run(mode, edge_slots, max_queue_delay)
    if mode is Mode.EDGE_WITH_REUSE and store is None:
        raise ValueError("EDGE_WITH_REUSE needs a reuse store")
    if not tasks:
        raise ValueError("cannot simulate an empty run")
    if len({t.id for t in tasks}) != len(tasks):
        repeated = next(i for i, c in Counter(t.id for t in tasks).items() if c > 1)
        raise ValueError(f"task id {repeated} is repeated")
    digest = workload_digest(tasks)
    if mode is Mode.CLOUD_ONLY:
        records = [_cloud_record(t, t.arrival_time, 0.0, cost) for t in tasks]
        return _aggregate(mode, records, 0.0, edge_slots, 0, 0.0, 0.0, digest)

    if mode is not Mode.EDGE_WITH_REUSE:
        store = None
    node = EdgeNode(offloaded_services=frozenset(t.service for t in tasks), store=store)
    decide = node.decide
    # bound here, not at import, so that a stand-in for ``heapq`` set on this
    # module (the traced benchmark counts pops through one) sees every call
    heappush, heappop = heapq.heappush, heapq.heappop
    patience = math.inf if max_queue_delay is None else max_queue_delay
    # (when, seq, kind, payload): receptions and finishes.  The seqs of the
    # receptions follow (arrival, id), and every (when, seq) is unique, so
    # heapifying them pops them in the order pushing them one by one would.
    heap: list[tuple[float, int, int, object]] = [
        (received_at(t.arrival_time, t, True, cost), seq, _RECV, t)
        for seq, t in enumerate(sorted(tasks, key=attrgetter("arrival_time", "id")))
    ]
    heapq.heapify(heap)
    seq = len(heap)
    # (deadline, seq at reception, task, receive time) in reception order:
    # every task has the same patience, so the keys grow along the queue and
    # only the head can renege next
    queue: deque[tuple[float, int, Task, float]] = deque()
    running = 0
    peak = 0
    busy = 0.0
    records: list[TaskRecord] = []
    area = 0.0
    first_event = last_event = heap[0][0]
    sum_time_in_system = 0.0

    while heap:
        if queue and queue[0][:2] < heap[0][:2]:
            # the head's patience ran out: it leaves for the cloud
            now, _, task, recv = queue[0]
            # the interval up to ``now`` counts whoever leaves at ``now``
            area += (len(queue) + running) * (now - last_event)
            last_event = now
            queue.popleft()
            records.append(_cloud_record(task, now, now - recv, cost))
            sum_time_in_system += now - recv
            continue
        now, _, kind, payload = heappop(heap)
        if not now < math.inf and store is not None:
            # the store would refuse this clock without naming the task; with
            # no store nothing reads it, and _aggregate names what overflowed
            task = payload if kind == _RECV else payload[0]
            raise ValueError(
                f"simulated times overflowed: task {task.id} has an event at {now!r}"
            )
        area += (len(queue) + running) * (now - last_event)
        last_event = now
        if kind == _RECV:
            queue.append((now + patience, seq, payload, now))
            seq += 1
        else:
            task, recv, outcome, start, duration = payload
            running -= 1
            busy += duration
            if store is not None:
                node.complete(task, outcome, task.object_label, now)
            finish = delivered_at(now, task, True, cost)
            records.append(
                _record(
                    task,
                    _OUTCOME_CELLS[outcome.kind],
                    start,
                    finish,
                    start - recv,
                    duration,
                    task_correct(outcome, task),
                )
            )
            sum_time_in_system += now - recv
        # dispatch: fill the free slots from the head of the queue
        while running < edge_slots and queue:
            _, _, task, recv = queue.popleft()
            outcome = decide(task, now)
            if outcome.is_reuse:
                duration = reuse_cost(task, outcome.reused_fraction, cost)
            else:
                duration = execution_cost(task, True, cost)
            running += 1
            if running > peak:
                peak = running
            heappush(
                heap, (now + duration, seq, _FINISH, (task, recv, outcome, now, duration))
            )
            seq += 1

    span = last_event - first_event
    time_avg = area / span if span > 0 else 0.0
    mean_tis = sum_time_in_system / len(tasks)
    return _aggregate(mode, records, busy, edge_slots, peak, time_avg, mean_tis, digest)


_record_id = attrgetter("task_id")
_record_completion = attrgetter("completion_s")
_record_computation = attrgetter("computation_s")
_record_waiting = attrgetter("waiting_s")
_record_finish = attrgetter("finish_s")
_record_outcome = attrgetter("outcome")
_record_correct = attrgetter("correct")
# the report's float metrics, in declaration order
_REPORT_FLOATS = tuple(f.name for f in fields(MetricsReport) if f.type == "float")


def _aggregate(
    mode: Mode,
    records: list[TaskRecord],
    busy: float,
    edge_slots: int,
    peak: int,
    time_avg: float,
    mean_tis: float,
    digest: str,
) -> MetricsReport:
    records = sorted(records, key=_record_id)
    n = len(records)
    completion_s = list(map(_record_completion, records))
    completion = np.array(completion_s)
    computation = np.fromiter(map(_record_computation, records), np.float64, n)
    waiting = np.fromiter(map(_record_waiting, records), np.float64, n)
    with np.errstate(all="ignore"):  # an overflowed mean is rejected below
        means = [float(column.mean()) for column in (completion, computation, waiting)]
    makespan = float(max(map(_record_finish, records)))
    counts = Counter(map(_record_outcome, records))
    n_full = counts[OutcomeKind.FULL_REUSE.value]
    n_partial = counts[OutcomeKind.PARTIAL_REUSE.value]
    n_edge = counts[OutcomeKind.EDGE_COMPUTE.value]
    n_cloud = counts[OutcomeKind.CLOUD_OFFLOAD.value]
    utilization = 100.0 * busy / (edge_slots * makespan) if makespan > 0 else 0.0
    report = MetricsReport(
        mode=mode,
        records=tuple(records),
        mean_completion_s=means[0],
        p90_completion_s=p90(completion_s),
        mean_computation_s=means[1],
        mean_waiting_s=means[2],
        utilization_pct=utilization,
        load_cloud=n_cloud / n,
        load_edge=n_edge / n,
        load_reuse=(n_full + n_partial) / n,
        correctness_rate=sum(map(_record_correct, records)) / n,
        busy_slot_time=busy,
        makespan=makespan,
        edge_slots=edge_slots,
        peak_concurrency=peak,
        time_avg_in_system=time_avg,
        mean_time_in_system=mean_tis,
        n_full_reuse=n_full,
        n_partial_reuse=n_partial,
        n_edge_compute=n_edge,
        n_cloud=n_cloud,
        workload_digest=digest,
    )
    # a record's non-finite time makes its column's mean non-finite, so every
    # overflow, in a record or in a sum, shows in the report's float metrics
    for name in _REPORT_FLOATS:
        value = getattr(report, name)
        if not math.isfinite(value):
            raise ValueError(f"simulated times overflowed: {name} is {value!r}")
    return report


def build_store(config: SimConfig, seed: int) -> ReuseStore:
    return ReuseStore(config.workload.dimension, config.store, config.lsh, seed)


def run(config: SimConfig, trial: int = 0) -> MetricsReport:
    """Generate (or ingest) the workload for one trial and simulate it.

    Trial ``i`` uses seed ``config.seed + i`` for both the workload and the
    store's hash functions.
    """
    seed = config.seed + trial
    spec = replace(config.workload, seed=seed)
    if config.features_file is not None:
        tasks = _dump_tasks(*config._dump, spec)
    else:
        tasks = generate(spec)
    store = build_store(config, seed) if config.mode is Mode.EDGE_WITH_REUSE else None
    return simulate(
        tasks,
        config.mode,
        config.cost,
        edge_slots=config.edge_slots,
        store=store,
        max_queue_delay=config.max_queue_delay,
    )


@dataclass(frozen=True)
class ReuseGain:
    delay_gain: float
    resource_gain: float


def reuse_gain(report_reuse: MetricsReport, report_plain: MetricsReport) -> ReuseGain:
    """Relative delay/resource savings of reuse versus from-scratch at the edge.

    Both reports must come from the same workload (same seed and spec) with
    modes EDGE_WITH_REUSE and EDGE_NO_REUSE respectively.  The pairing check
    compares the reports' workload digests, which cover the tasks' ids,
    labels, sizes, complexities and arrival times only: workloads that differ
    only in their services or feature vectors (say, in ``noise_sigma``) pass
    it.
    """
    if report_reuse.mode is not Mode.EDGE_WITH_REUSE:
        raise ValueError("first report must be an EDGE_WITH_REUSE run")
    if report_plain.mode is not Mode.EDGE_NO_REUSE:
        raise ValueError("second report must be an EDGE_NO_REUSE run")
    if report_reuse.workload_digest != report_plain.workload_digest:
        raise ValueError("reports come from different workloads")
    if report_plain.mean_completion_s <= 0 or report_plain.utilization_pct <= 0:
        raise ValueError("baseline report has degenerate metrics")
    return ReuseGain(
        delay_gain=1.0 - report_reuse.mean_completion_s / report_plain.mean_completion_s,
        resource_gain=1.0 - report_reuse.utilization_pct / report_plain.utilization_pct,
    )
