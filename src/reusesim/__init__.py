"""Edge computation-reuse simulator.

A similarity-indexed reuse store at the network edge satisfies repeated
service invocations from previously computed results instead of recomputing
them, alongside a completion-cost model, a per-task forwarding policy, a
synthetic workload generator, and a deterministic discrete-event simulator.
"""

from .core import (
    CostParams,
    DimensionMismatch,
    FeatureVector,
    Outcome,
    OutcomeKind,
    Task,
)
from .cost import (
    CostBreakdown,
    communication_cost,
    completion_cost,
    execution_cost,
    reuse_cost,
)
from .forwarding import EdgeNode
from .lsh import LshIndex, LshSettings
from .reuse_store import (
    LookupKind,
    LookupResult,
    ReuseEntry,
    ReuseStore,
    StoreSettings,
)
from .sim import (
    MetricsReport,
    Mode,
    ReuseGain,
    SimConfig,
    TaskRecord,
    reuse_gain,
    run,
    simulate,
)
from .workload import (
    WorkloadFileError,
    WorkloadSpec,
    generate,
    ingest,
    ramp_rate,
    redundancy_ramp,
)

__version__ = "0.1.0"

__all__ = [
    "CostBreakdown",
    "CostParams",
    "DimensionMismatch",
    "EdgeNode",
    "FeatureVector",
    "LookupKind",
    "LookupResult",
    "LshIndex",
    "LshSettings",
    "MetricsReport",
    "Mode",
    "Outcome",
    "OutcomeKind",
    "ReuseEntry",
    "ReuseGain",
    "ReuseStore",
    "SimConfig",
    "StoreSettings",
    "Task",
    "TaskRecord",
    "WorkloadFileError",
    "WorkloadSpec",
    "communication_cost",
    "completion_cost",
    "execution_cost",
    "generate",
    "ingest",
    "ramp_rate",
    "redundancy_ramp",
    "reuse_cost",
    "reuse_gain",
    "run",
    "simulate",
]
