"""Concurrent multi-query serving over one shared simulated cluster.

The driver/executor split of the Modularis reproduction: a
:class:`Server` admits many concurrent queries — deployed once via the
``session → deploy → run`` lifecycle, then advanced one driver step at a
time on one run queue by the threads that wait for them, with stride
fair-share across tenants and a hard admission bound.  See ``docs/serving.md``.
"""

from repro.serving.lifecycle import BreakerConfig, CircuitBreaker
from repro.serving.registry import (
    PlanRegistry,
    PreparedPlan,
    SchemaContract,
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
    "run_soak",
]
