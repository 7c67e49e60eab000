"""Completion-cost model: pure functions over tasks and outcomes.

A task's completion cost splits into communication (transfer of input and
output over the chosen path), execution (complexity over the executing
server's capacity rate), and reuse (table lookup plus any residual
computation).  Hop latency is an additive term on the communication cost so
that hop counts have an observable effect; setting ``per_hop_latency`` to 0
recovers the pure transfer-time model.  ``received_at`` and ``delivered_at``
give the absolute times of the two transfers; the simulator takes every
transfer time from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from .core import CostParams, Outcome, Task


def received_at(depart: float, task: Task, at_edge: bool, params: CostParams) -> float:
    """When an input sent at ``depart`` has crossed the edge or cloud path.

    The uplink carries the input plus the whole path's hop latency.
    """
    if at_edge:
        return depart + task.input_size / params.edge_bandwidth + (
            params.edge_hops * params.per_hop_latency
        )
    return depart + task.input_size / params.cloud_bandwidth + (
        params.cloud_hops * params.per_hop_latency
    )


def delivered_at(done: float, task: Task, at_edge: bool, params: CostParams) -> float:
    """When an output ready at ``done`` has crossed the path back to the user."""
    bandwidth = params.edge_bandwidth if at_edge else params.cloud_bandwidth
    return done + task.output_size / bandwidth


def communication_cost(task: Task, at_edge: bool, params: CostParams) -> float:
    """Transfer time of input+output on the edge or cloud path, plus hop latency."""
    return delivered_at(received_at(0.0, task, at_edge, params), task, at_edge, params)


def execution_cost(task: Task, at_edge: bool, params: CostParams) -> float:
    """From-scratch execution time at the edge or the cloud."""
    rate = params.edge_capacity_rate if at_edge else params.cloud_capacity_rate
    return task.complexity / rate


def reuse_cost(task: Task, reused_fraction: float, params: CostParams) -> float:
    """Lookup cost, plus edge execution of the share of the task not reused.

    ``reused_fraction`` is the share of the task's complexity the matched
    entry covers: 1 for a full hit (the lookup alone), less for a partial
    hit, whose remainder always runs at the edge.
    """
    if not 0.0 <= reused_fraction <= 1.0:
        raise ValueError("reused_fraction must lie in [0, 1]")
    residual = (1.0 - reused_fraction) * task.complexity / params.edge_capacity_rate
    return params.lookup_cost + residual


@dataclass(frozen=True)
class CostBreakdown:
    """Component costs of one task under one outcome, all in seconds.

    ``total`` is communication + reuse for a reuse outcome and communication
    + execution otherwise; ``execution`` is always the would-be from-scratch
    cost at the chosen location, even when reuse avoided it.
    """

    communication: float
    execution: float
    reuse: float
    total: float


def completion_cost(task: Task, outcome: Outcome, params: CostParams) -> CostBreakdown:
    """Assemble the completion cost of a task from its outcome."""
    at_edge = outcome.at_edge
    comm = communication_cost(task, at_edge, params)
    execution = execution_cost(task, at_edge, params)
    if outcome.is_reuse:
        reuse = reuse_cost(task, outcome.reused_fraction, params)
        return CostBreakdown(comm, execution, reuse, comm + reuse)
    return CostBreakdown(comm, execution, 0.0, comm + execution)
