"""The shared event model of the observability layer.

Everything time-stamped that the system records — substrate trace events
(collectives, one-sided puts, window registrations) and operator spans —
derives from one base, :class:`SimEvent`: a ``(rank, kind, label, start,
end)`` interval on the simulated-time axis.  The Chrome-trace exporter
consumes any mix of them uniformly.

Event payloads are *typed*: each event kind carries a small frozen
dataclass (:class:`PutDetail`, :class:`CollectiveDetail`,
:class:`WindowDetail`, ...) instead of an ad-hoc dict.

Events are born with their causal ids: every recorder is created with the
execution's trace context and builds its events with :func:`span_ids`.

This module has no dependencies inside the package, so both the MPI
substrate (:mod:`repro.mpi.trace`) and the execution layer can build on it
without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

__all__ = [
    "SimEvent",
    "TraceEvent",
    "span_ids",
    "EventDetail",
    "PutDetail",
    "CollectiveDetail",
    "WindowDetail",
    "FaultDetail",
    "RetryDetail",
    "RecoveryDetail",
    "LifecycleDetail",
    "OperatorSpan",
    "DRIVER_RANK",
]

#: Rank id used for events recorded on the driver (outside any MPI job).
DRIVER_RANK = -1


@dataclass(frozen=True)
class SimEvent:
    """One time-stamped interval on a rank's simulated clock.

    Attributes:
        rank: The rank the event happened on (:data:`DRIVER_RANK` for the
            driver; for puts, the sender).
        kind: Event family — ``collective`` | ``put`` | ``win_create`` for
            substrate events, ``operator`` for operator spans.
        label: Human-readable identity within the kind (collective tag,
            ``put->k``, operator label).
        start: Simulated time the rank entered the event.
        end: Simulated time the event completed for this rank.
        trace_id: Causal trace the event belongs to: the serving query's
            :class:`~repro.observability.tracing.TraceContext`, set at
            construction (empty for direct runs, which have no context).
        span_id: The event's own span within the trace.
        parent_span_id: The causal parent span (attempt or rank span).
    """

    rank: int
    kind: str
    label: str
    start: float
    end: float
    trace_id: str = ""
    span_id: str = ""
    parent_span_id: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    def chrome_args(self) -> dict[str, Any]:
        """Kind-specific numbers for the Chrome-trace ``args`` field."""
        return {}


def span_ids(context) -> tuple[str, str, str]:
    """``(trace_id, span_id, parent_span_id)`` for an event recorded under
    ``context`` (a ``TraceContext``, or ``None`` outside any trace)."""
    if context is None:
        return ("", "", "")
    return (context.trace_id, context.span_id, context.parent_span_id)


@dataclass(frozen=True)
class EventDetail:
    """Base of the typed per-kind payloads (itself the empty payload)."""

    def as_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class TraceEvent(SimEvent):
    """One recorded substrate event on one rank.

    Attributes:
        rank: The rank the event happened on (for puts: the sender).
        kind: ``collective`` | ``put`` | ``win_create``.
        label: Collective tag, or ``put->k`` / window element type.
        start: Simulated time the rank entered the event.
        end: Simulated time the event completed for this rank.
        detail: Typed kind-specific payload — :class:`PutDetail`,
            :class:`CollectiveDetail`, or :class:`WindowDetail`.
    """

    detail: EventDetail = EventDetail()

    def chrome_args(self) -> dict[str, Any]:
        return self.detail.as_dict()


@dataclass(frozen=True)
class PutDetail(EventDetail):
    """One-sided RMA write: who received how much."""

    target: int
    rows: int
    bytes: int
    #: The transfer cost charged, exactly (``end - start`` rounds); what
    #: ``comm_put_seconds`` is folded from.  Not a Chrome ``args`` key.
    seconds: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {"target": self.target, "rows": self.rows, "bytes": self.bytes}


@dataclass(frozen=True)
class CollectiveDetail(EventDetail):
    """A collective epoch: how long this rank stalled for its peers."""

    stall: float


@dataclass(frozen=True)
class WindowDetail(EventDetail):
    """An RMA window registration: pinned capacity."""

    bytes: int
    rows: int


@dataclass(frozen=True)
class FaultDetail(EventDetail):
    """An injected fault fired: what kind, on which attempt, against whom.

    ``fault`` is one of ``put_drop`` | ``collective_drop`` | ``crash`` |
    ``straggler``.  Memory pressure fires no fault event: the planner
    answers it before anything runs, and it shows only as the
    ``broadcast_fallback`` action of a :class:`RecoveryDetail`.
    """

    fault: str
    attempt: int = 0
    target: int = -1


@dataclass(frozen=True)
class RetryDetail(EventDetail):
    """A transient comm fault being retried: the backoff wait interval."""

    op: str
    attempt: int
    backoff: float


@dataclass(frozen=True)
class RecoveryDetail(EventDetail):
    """A driver-side recovery action at a pipeline stage.

    ``action`` is one of ``stage_retry`` | ``degrade_cluster`` |
    ``checkpoint_hit`` | ``broadcast_fallback``.
    """

    action: str
    stage: str = ""
    attempt: int = 0
    lost_rank: int = -1


@dataclass(frozen=True)
class LifecycleDetail(EventDetail):
    """One serving-layer query-lifecycle transition.

    ``transition`` is one of ``deadline_missed`` | ``cancelled`` |
    ``retry`` | ``shed`` | ``failed`` | ``breaker_open`` |
    ``breaker_half_open`` | ``breaker_closed`` | ``breaker_rejected``.
    Times on the carrying event are the query's simulated clock (retry
    events span the backoff interval); breaker/shed events happen at the
    submission boundary and carry a zero-length interval.
    """

    transition: str
    query_id: int = -1
    tenant: str = ""
    handle: str = ""
    attempt: int = 0
    reason: str = ""


@dataclass(frozen=True)
class OperatorSpan(SimEvent):
    """One operator activation: a generator's life from first pull to close.

    Recorded by the :class:`~repro.observability.profile.Profiler` on the
    rank's simulated clock, so spans land on the same time axis as the
    substrate's :class:`TraceEvent` records.
    """

    op_type: str = ""
    #: Identity of the plan node (stable for one plan object); the Chrome
    #: exporter uses it to give every operator its own track.
    node_id: int = 0
    rows: int = 0
    batches: int = 0
    mode: str = "fused"

    def chrome_args(self) -> dict[str, Any]:
        return {"rows": self.rows, "batches": self.batches, "mode": self.mode}
