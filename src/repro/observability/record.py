"""The one append-only record of an execution, and the metrics folded from it.

A driver :class:`~repro.core.context.ExecutionContext` is created with an
:class:`ExecutionRecord`, and the record with the execution's trace
context when there is one.  Each fact about the run is written once,
where it happens, already carrying its trace ids — never onto a plan
node — and everything else (the ``ExecutionReport`` views, the Chrome
exporters, :func:`record_metrics`) is a fold computed on read.  The table
of who writes what is in ``docs/observability.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.observability.events import (
    DRIVER_RANK,
    RecoveryDetail,
    TraceEvent,
    span_ids,
)
from repro.observability.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.cluster import ClusterResult
    from repro.observability.profile import Profiler
    from repro.observability.tracing import TraceContext

__all__ = ["ExecutionRecord", "record_metrics"]


class ExecutionRecord:
    """What one execution appended, in the order it happened."""

    __slots__ = ("trace", "cluster_results", "recovery_events")

    def __init__(self, trace: "TraceContext | None" = None) -> None:
        #: Span of the serving attempt being executed; ``None`` for direct runs.
        self.trace = trace
        #: One entry per *completed* ``MpiExecutor`` wave, in completion order.
        self.cluster_results: list["ClusterResult"] = []
        #: Driver-side ``recovery`` actions plus the fault/retry events of
        #: aborted attempts, whose own traces died with them.
        self.recovery_events: list[TraceEvent] = []

    def recovery(
        self, action: str, start: float, end: float, span: str = "", **detail
    ) -> None:
        """Append one driver-side recovery action, under the child span
        ``span`` of the execution's trace context when one is named."""
        context = self.trace
        if context is not None and span:
            context = context.for_stage(span)
        self.recovery_events.append(
            TraceEvent(
                DRIVER_RANK, "recovery", action, start, end, *span_ids(context),
                RecoveryDetail(action=action, **detail),
            )
        )


def _fold_event(registry: MetricsRegistry, event: TraceEvent) -> None:
    kind, detail = event.kind, event.detail
    if kind == "put":
        scope = "local" if detail.target == event.rank else "network"
        registry.counter("comm_puts", scope=scope).inc()
        registry.counter("comm_put_bytes", scope=scope).add(detail.bytes)
        registry.counter("comm_put_rows", scope=scope).add(detail.rows)
        registry.histogram("comm_put_seconds").observe(detail.seconds)
    elif kind == "collective":
        registry.counter("comm_collectives", tag=event.label).inc()
    elif kind == "win_create":
        registry.counter("comm_windows").inc()
        registry.gauge("comm_window_bytes_hwm").set_max(detail.bytes)
    elif kind == "fault" and detail.attempt:
        # A dropped operation on its way to a retry; crash and straggler
        # faults carry no attempt number.
        registry.counter("fault_retries", fault=event.label).inc()
    elif kind == "recovery":
        registry.counter("checkpoint_hits").inc()


def _fold_activations(
    registry: MetricsRegistry, profiler: "Profiler", mode: str
) -> None:
    for node_id, stats in profiler.stats.items():
        op = type(profiler.ops[node_id]).__name__
        registry.counter("operator_rows_out", op=op, mode=mode).add(stats.rows_out)
        if stats.batches_out:
            registry.counter("operator_batches_out", op=op, mode=mode).add(
                stats.batches_out
            )
        registry.counter("operator_calls", op=op).add(stats.calls)


def record_metrics(
    record: ExecutionRecord, profiler: "Profiler", mode: str
) -> MetricsRegistry:
    """Fold an execution's record into the instruments derived from it.

    Each rank of each completed wave is folded into its own child
    registry, in event order, and the children are absorbed in completion
    order: that keeps the per-rank breakdown and makes the float sum of
    ``comm_put_seconds`` reproducible to the last bit.  The ``operator_*``
    counts carry the run's execution ``mode`` as a label.
    """
    fold = MetricsRegistry()
    for result in record.cluster_results:
        trace = result.trace
        for rank in range(trace.n_ranks if trace is not None else 0):
            child = fold.child(rank)
            for event in trace.events(rank):
                _fold_event(child, event)
            fold.absorb(child)
    for event in record.recovery_events:
        if event.kind == "recovery":
            fold.counter("recovery_actions", action=event.label).inc()
    _fold_activations(fold, profiler, mode)
    for rank_profiler in profiler.ranks:
        child = fold.child(rank_profiler.rank)
        _fold_activations(child, rank_profiler, mode)
        fold.absorb(child)
    return fold
