"""Per-task forwarding policy at an edge node.

``decide`` picks one of four outcomes: tasks for services not offloaded to
this node go to the cloud; otherwise the reuse store classifies the input as
a full hit, a partial hit, or a miss (miss -> compute from scratch at the
edge).  ``complete`` stores freshly computed results: after a from-scratch
edge computation and after the residual of a partial hit, never after a full
hit, and never for cloud results (the cloud path is a pure fallback and its
outputs are not cached at the edge).

A hit's ``Outcome`` is built by a slot builder, in under half the time of
the constructor, because it skips the checks of ``Outcome.__post_init__``:
the store vouches for what they check, a matched entry and a fraction of
1.0 for a full hit or ``partial_fraction``, in (0, 1), for a partial one.

The decision never reads a task's ground-truth label.  Each node is a
single-writer sequence of decide/complete calls; nodes with independent
stores may run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import CLOUD_OFFLOAD, EDGE_COMPUTE, Outcome, OutcomeKind, Task, _slot_builder
from .reuse_store import LookupKind, ReuseStore

_build_outcome = _slot_builder(Outcome)
# the kinds read per task, as module globals: ``Kind.MEMBER`` goes through
# the Enum metaclass's attribute hook, several times slower than a global
_MISS, _FULL = LookupKind.MISS, LookupKind.FULL
_FULL_REUSE, _PARTIAL_REUSE = OutcomeKind.FULL_REUSE, OutcomeKind.PARTIAL_REUSE
_EDGE_COMPUTE = OutcomeKind.EDGE_COMPUTE


@dataclass
class EdgeNode:
    """An edge server: its offloaded services and reuse store.

    ``store`` may be None to model an edge without reuse; every lookup then
    degrades to a from-scratch computation.

    ``simulate`` offloads every service of its task list, so only direct
    callers reach the cloud branch of ``decide``; acceptance criterion 04
    covers it, with a service the node does not offload.
    """

    offloaded_services: frozenset[str]
    store: Optional[ReuseStore] = None

    def __post_init__(self) -> None:
        self.offloaded_services = frozenset(self.offloaded_services)

    def decide(self, task: Task, now: float) -> Outcome:
        if task.service not in self.offloaded_services:
            return CLOUD_OFFLOAD
        if self.store is None:
            return EDGE_COMPUTE
        result = self.store.lookup(task.service, task.features, now)
        kind = result.kind
        if kind is _MISS:
            return EDGE_COMPUTE
        reuse = _FULL_REUSE if kind is _FULL else _PARTIAL_REUSE
        return _build_outcome(reuse, result.reused_fraction, result.entry)

    def complete(self, task: Task, outcome: Outcome, label: str, now: float) -> None:
        """Record a finished task; stores its label when it was computed here."""
        kind = outcome.kind
        if kind is _EDGE_COMPUTE or kind is _PARTIAL_REUSE:
            if self.store is not None:
                self.store.place(task.service, task.features, label, now)
