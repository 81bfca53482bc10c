"""Concurrent multi-query serving over one shared simulated cluster.

The driver/executor split of the Modularis reproduction: a
:class:`Server` admits many concurrent queries — deployed once via the
``session → deploy → run`` lifecycle, then advanced one driver step at a
time by a worker pool sharing one run queue, with stride fair-share
across tenants and a hard admission bound.  See ``docs/serving.md``.
"""

from repro.serving.lifecycle import BreakerConfig, CircuitBreaker
from repro.serving.registry import (
    HandleStats,
    PlanRegistry,
    PreparedPlan,
    SchemaContract,
    handle_stats,
)
from repro.serving.scheduler import (
    FairShare,
    QueryTask,
    Scheduler,
    SchedulerEvent,
)
from repro.serving.server import (
    QueryFuture,
    QueryOutcome,
    QuerySession,
    Server,
    TenantAccount,
)
from repro.serving.soak import (
    SoakConfig,
    SoakReport,
    export_soak_artifacts,
    run_soak,
)

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "FairShare",
    "HandleStats",
    "PlanRegistry",
    "PreparedPlan",
    "QueryFuture",
    "QueryOutcome",
    "QuerySession",
    "QueryTask",
    "Scheduler",
    "SchedulerEvent",
    "SchemaContract",
    "Server",
    "SoakConfig",
    "SoakReport",
    "TenantAccount",
    "export_soak_artifacts",
    "handle_stats",
    "run_soak",
]
