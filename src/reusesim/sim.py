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
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import cached_property
from itertools import starmap
from operator import attrgetter, itemgetter
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (
    CostParams,
    Outcome,
    OutcomeKind,
    Task,
    _TASK_FLOATS,
    _slot_builder,
    frozen_slots,
    require_finite,
    require_int,
)
from .cost import delivered_at, execution_cost, received_at, reuse_cost
from .forwarding import EdgeNode
from .lsh import LshSettings
from .reuse_store import ReuseStore, StoreSettings
from .workload import WorkloadFileError, WorkloadSpec, _dump_tasks, _read_dump, generate


class Mode(Enum):
    CLOUD_ONLY = "cloud_only"
    EDGE_NO_REUSE = "edge_no_reuse"
    EDGE_WITH_REUSE = "edge_with_reuse"


def _check_run(mode: Mode, edge_slots: int, max_queue_delay: Optional[float]) -> None:
    """Run rules shared by ``SimConfig`` and ``simulate``; each error names its field."""
    if not isinstance(mode, Mode):
        raise ValueError(f"mode must be a Mode, got {mode!r}")
    require_int("edge_slots", edge_slots, 1)
    if max_queue_delay is not None:
        require_finite({"max_queue_delay": max_queue_delay})
        if max_queue_delay <= 0:
            raise ValueError("max_queue_delay must be > 0 when set")


# the most float64 elements numpy can shape into one array
_MAX_FLOATS = np.iinfo(np.intp).max // 8


def _check_shapes(config: SimConfig) -> None:
    """Reject a size whose array numpy cannot shape; the error names its fields.

    A run shapes its feature matrix, ``num_tasks x dimension``, and its size
    columns, ``num_tasks x 3`` (a dump sets the row count, and its rows are
    as wide as ``dimension``); a reuse run also shapes its hyperplanes,
    ``num_tables x bits_per_table x dimension``.
    """
    w, lsh = config.workload, config.lsh
    rows = {} if config.features_file is not None else {"workload.num_tasks": w.num_tasks}
    arrays = [{**rows, "workload.dimension": w.dimension}]
    if rows:
        arrays.append({**rows, "size columns": 3})
    if config.mode is Mode.EDGE_WITH_REUSE:
        arrays.append(
            {
                "lsh.num_tables": lsh.num_tables,
                "lsh.bits_per_table": lsh.bits_per_table,
                "workload.dimension": w.dimension,
            }
        )
    for sizes in arrays:
        if math.prod(sizes.values()) > _MAX_FLOATS:
            raise ValueError(
                f"{' x '.join(sizes)} = {' x '.join(map(str, sizes.values()))} "
                "floats: more than numpy can shape into one array"
            )


@dataclass(frozen=True)
class SimConfig:
    """One experiment: mode, workload, costs, edge and store, trials and seed.

    ``run`` seeds trial *i*'s workload and store from ``seed + i``, whatever
    ``workload.seed`` holds.  ``features_file`` is read once per config, at
    the first trial that needs it, and its record count replaces
    ``workload.num_tasks``; without one, ``workload.num_tasks`` must be at
    least 1.  A config is frozen: ``dataclasses.replace`` makes a new one,
    which reads its own dump.
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
        require_int("trials", self.trials, 1)
        require_int("seed", self.seed, 0)
        if self.features_file is None and self.workload.num_tasks < 1:
            raise ValueError("workload.num_tasks must be >= 1 when no features_file is set")
        _check_shapes(self)

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


# a record's field values in declaration order: its row
_RECORD_FIELDS = tuple(f.name for f in fields(TaskRecord))
_record_row = attrgetter(*_RECORD_FIELDS)


class RecordView(SequenceABC):
    """A read-only sequence of ``TaskRecord``s kept as rows of field values.

    Each row is a tuple of one record's field values in declaration order,
    made once, when its task finishes or reneges.  A ``TaskRecord`` is built
    from its row, by a slot builder, only when it is indexed or iterated, so
    a run whose records are never read (a sweep's) builds none; a slice is
    a tuple of records.  The view equals a tuple of equal records, compared
    from either side, and a view of equal rows; it hashes, reprs, pickles and
    copies as that tuple does.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: tuple[tuple, ...]) -> None:
        self._rows = rows

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The rows, one per record, in the view's order."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(starmap(_build_record, self._rows[index]))
        return _build_record(*self._rows[index])

    def __iter__(self):
        return starmap(_build_record, self._rows)

    def __eq__(self, other):
        if isinstance(other, RecordView):
            return self._rows == other._rows
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class MetricsReport:
    """One trial's metrics and its records, sorted by task id.

    ``records`` is always a ``RecordView``: any other sequence of records
    given to the constructor (or to ``dataclasses.replace``) is converted to
    one, so a report holds its records as rows of field values.
    """

    mode: Mode
    records: Sequence[TaskRecord]
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

    def __post_init__(self) -> None:
        if type(self.records) is not RecordView:
            rows = tuple(map(_record_row, self.records))
            object.__setattr__(self, "records", RecordView(rows))


def task_correct(outcome: Outcome, task: Task) -> bool:
    """Whether the task's final output matches from-scratch computation.

    From-scratch execution (edge or cloud) is ground truth by definition; a
    reuse hit is correct iff the matched entry was produced from the same
    object.  For a partial hit the residual is computed from scratch, but the
    reused fraction still has to match.
    """
    entry = outcome.matched_entry  # set exactly when the outcome is a reuse
    return entry is None or entry.output == task.object_label


_task_id = attrgetter("id")
_task_label = attrgetter("object_label")
# the float fields in the order the digest packs them
_DIGEST_FLOATS = tuple(map(attrgetter, _TASK_FLOATS))


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


_build_record = _slot_builder(TaskRecord)
_CLOUD_OUTCOME = OutcomeKind.CLOUD_OFFLOAD.value


def _cloud_row(task: Task, depart: float, waiting: float, cost: CostParams) -> tuple:
    """The record row of a task served on the cloud path starting at ``depart``."""
    start = received_at(depart, task, False, cost)
    computation = execution_cost(task, False, cost)
    finish = delivered_at(start + computation, task, False, cost)
    at = task.arrival_time
    # computed from scratch, so correct by definition
    return (
        task.id, task.service, task.object_label, _CLOUD_OUTCOME, "cloud", at,
        start, finish, waiting, computation, finish - at, True,
    )


_RECV, _FINISH = 0, 1


def simulate(
    tasks: Sequence[Task],
    mode: Mode,
    cost: CostParams,
    edge_slots: int = SimConfig.edge_slots,
    store: Optional[ReuseStore] = None,
    max_queue_delay: Optional[float] = None,
) -> MetricsReport:
    """Run one trial over a fixed task list and return its metrics.

    The event loop keeps each finished task as a row of ``TaskRecord``'s
    field values, and the report's ``records`` is a ``RecordView`` over
    those rows, so no ``TaskRecord`` is built unless a caller reads one.
    """
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
        rows = [_cloud_row(t, t.arrival_time, 0.0, cost) for t in tasks]
        return _aggregate(mode, rows, 0.0, edge_slots, 0, 0.0, 0.0, digest)

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
    rows: list[tuple] = []  # one record row per finished task
    area = 0.0
    first_event = last_event = heap[0][0]
    sum_time_in_system = 0.0

    while heap:
        # every seq is unique across the queue and the heap, so (time, seq)
        # decides this comparison and it never reaches a third element
        if queue and queue[0] < heap[0]:
            # the head's patience ran out: it leaves for the cloud
            now, _, task, recv = queue[0]
            # the interval up to ``now`` counts whoever leaves at ``now``
            area += (len(queue) + running) * (now - last_event)
            last_event = now
            queue.popleft()
            rows.append(_cloud_row(task, now, now - recv, cost))
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
            at = task.arrival_time
            # every service is offloaded, so the task finished at the edge;
            # ``_value_`` is the kind's value, read without a descriptor call
            rows.append(
                (
                    task.id, task.service, task.object_label, outcome.kind._value_,
                    "edge", at, start, finish, start - recv, duration, finish - at,
                    task_correct(outcome, task),
                )
            )
            sum_time_in_system += now - recv
        # dispatch: fill the free slots from the head of the queue
        while running < edge_slots and queue:
            _, _, task, recv = queue.popleft()
            outcome = decide(task, now)
            if outcome.matched_entry is not None:  # a reuse outcome
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
    return _aggregate(mode, rows, busy, edge_slots, peak, time_avg, mean_tis, digest)


def _row_getter(name: str) -> itemgetter:
    """A getter of ``TaskRecord`` field ``name`` from a record row."""
    return itemgetter(_RECORD_FIELDS.index(name))


# _aggregate reads one column at a time, so it holds at most one column's
# worth of new references beside the rows
_row_id = _row_getter("task_id")
_row_completion = _row_getter("completion_s")
_row_computation = _row_getter("computation_s")
_row_waiting = _row_getter("waiting_s")
_row_finish = _row_getter("finish_s")
_row_outcome = _row_getter("outcome")
_row_correct = _row_getter("correct")
# the report's float metrics, in declaration order
_REPORT_FLOATS = tuple(f.name for f in fields(MetricsReport) if f.type == "float")


def _aggregate(
    mode: Mode,
    rows: list[tuple],
    busy: float,
    edge_slots: int,
    peak: int,
    time_avg: float,
    mean_tis: float,
    digest: str,
) -> MetricsReport:
    """The report of a run's record rows (see ``RecordView``), in any order."""
    rows = tuple(sorted(rows, key=_row_id))
    n = len(rows)
    completion_s = list(map(_row_completion, rows))
    completion = np.array(completion_s)
    computation = np.fromiter(map(_row_computation, rows), np.float64, n)
    waiting = np.fromiter(map(_row_waiting, rows), np.float64, n)
    with np.errstate(all="ignore"):  # an overflowed mean is rejected below
        means = [float(column.mean()) for column in (completion, computation, waiting)]
    makespan = float(max(map(_row_finish, rows)))
    counts = Counter(map(_row_outcome, rows))
    n_full = counts[OutcomeKind.FULL_REUSE.value]
    n_partial = counts[OutcomeKind.PARTIAL_REUSE.value]
    n_edge = counts[OutcomeKind.EDGE_COMPUTE.value]
    n_cloud = counts[OutcomeKind.CLOUD_OFFLOAD.value]
    utilization = 100.0 * busy / (edge_slots * makespan) if makespan > 0 else 0.0
    report = MetricsReport(
        mode=mode,
        records=RecordView(rows),
        mean_completion_s=means[0],
        p90_completion_s=p90(completion_s),
        mean_computation_s=means[1],
        mean_waiting_s=means[2],
        utilization_pct=utilization,
        load_cloud=n_cloud / n,
        load_edge=n_edge / n,
        load_reuse=(n_full + n_partial) / n,
        correctness_rate=sum(map(_row_correct, rows)) / n,
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
    store's hash functions.  A ``features_file`` that holds no records is a
    ``WorkloadFileError`` naming the file.
    """
    seed = config.seed + trial
    spec = replace(config.workload, seed=seed)
    if config.features_file is not None:
        labels, features = config._dump
        if not labels:
            raise WorkloadFileError(
                f"features_file {config.features_file!r} holds no records"
            )
        tasks = _dump_tasks(labels, features, spec)
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
