"""Causal trace contexts and per-query journals for the serving layer.

Every query admitted by :class:`~repro.serving.server.Server` gets a
:class:`TraceContext` minted at ``submit()`` and propagated through the
scheduler (:class:`~repro.serving.scheduler.SchedulerEvent.trace_id`),
each server-level retry attempt (one child span per attempt) and the
attempt's :class:`~repro.observability.record.ExecutionRecord`.  Whatever
records under it — the profiler, each job's
:class:`~repro.mpi.trace.ClusterTrace` (one child span per rank), stage
recovery — builds its events with the ids of their span, so every
:class:`~repro.observability.events.SimEvent` a soak run produces is born
resolving to exactly one submitted query::

    serve-000007                       query root (one per submission)
    └── serve-000007/a1                attempt span (one per retry attempt)
        ├── serve-000007/a1/r0         rank span (one per executor rank)
        ├── serve-000007/a1/r1
        └── serve-000007/a1/stage:...  recovery spans at stage boundaries

Span ids are deterministic path strings derived from the submission
index — no randomness, no wall clock — so the journal replay test can
assert bit-identical traces across reruns of the same seed.

The :class:`QueryJournal` is the append-only audit record of one
submission's lifecycle (submit → admit → attempt(s) → recovery →
settle) with causal span links and a timing decomposition (backoff,
execution, total on the simulated axis; queue wait on the informational
wall axis).  It is the serving layer's *only* per-submission record:
the tenant ledger, the ``serving_*`` metrics, the lifecycle instants,
the per-handle statistics and the SLO report are all folds over the
server's journals, computed when somebody reads them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterable

from repro.observability.metrics import MetricsRegistry
from repro.observability.slo import CONSIDERED, SERVING_LATENCY_BOUNDS, SLOConfig

__all__ = [
    "TraceContext",
    "JournalEvent",
    "QueryJournal",
    "journal_metrics",
]


@dataclass(frozen=True)
class TraceContext:
    """One node of a query's causal span tree.

    Attributes:
        trace_id: Identity of the whole query trace (one per submission).
        span_id: This node's span — a deterministic path string, e.g.
            ``serve-000003/a2/r1`` (submission 3, attempt 2, rank 1).
        parent_span_id: The parent node's span (empty at the root).
        attempt: Server-level attempt this span belongs to (0 = root,
            before any attempt exists).
        stage: What kind of node this is — ``""`` (root) | ``attempt`` |
            ``rank`` | a recovery stage label.
    """

    trace_id: str
    span_id: str
    parent_span_id: str = ""
    attempt: int = 0
    stage: str = ""

    @classmethod
    def for_query(cls, submission: int, component: str = "serve") -> "TraceContext":
        """Mint the root context for one submission.

        ``submission`` is the server's monotone submission counter (not
        the query id: shed and rejected submissions never get a query id
        but still get a trace), so ids are deterministic in submission
        order.
        """
        trace_id = f"{component}-{submission:06d}"
        return cls(trace_id=trace_id, span_id=trace_id)

    def for_attempt(self, attempt: int) -> "TraceContext":
        """The child span of server-level retry attempt ``attempt``."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=f"{self.span_id}/a{attempt}",
            parent_span_id=self.span_id,
            attempt=attempt,
            stage="attempt",
        )

    def for_rank(self, rank: int) -> "TraceContext":
        """The child span of one executor rank within this attempt."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=f"{self.span_id}/r{rank}",
            parent_span_id=self.span_id,
            attempt=self.attempt,
            stage="rank",
        )

    def for_stage(self, stage: str) -> "TraceContext":
        """A named child span (recovery stages, driver phases)."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=f"{self.span_id}/{stage}",
            parent_span_id=self.span_id,
            attempt=self.attempt,
            stage=stage,
        )


# -- per-query journals ------------------------------------------------------


@dataclass(frozen=True)
class JournalEvent:
    """One audit entry in a query's journal.

    ``detail`` is a sorted ``(key, value)`` tuple — JSON-clean and
    hashable, so journals compare bit-identical across replays.
    """

    kind: str
    span_id: str
    attempt: int
    #: The query's simulated clock when the entry was filed (0.0 for
    #: admission-time entries, which precede any execution).
    sim_time: float
    detail: tuple[tuple[str, Any], ...] = ()

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "span_id": self.span_id,
            "attempt": self.attempt,
            "sim_time": self.sim_time,
            "detail": dict(self.detail),
        }


class QueryJournal:
    """Append-only audit record of one submission's lifecycle.

    Every ``submit()`` call creates exactly one journal — including
    submissions that never reach the scheduler (shed, rejected,
    breaker-rejected) — and every journal settles into exactly one
    terminal state, the conservation invariant every view folded from
    the journals inherits.  All canonical content (:meth:`as_dict`
    default) is derived from counts and simulated clocks only, so two
    runs of the same config produce byte-identical journals.  Wall-clock
    queue wait and scheduler sequence numbers are kept as *informational*
    fields, excluded from the canonical form.
    """

    TERMINAL_STATES = (
        "completed",
        "cancelled",
        "deadline_missed",
        "failed",
        "shed",
        "rejected",
    )

    def __init__(
        self, trace_id: str, submission: int, tenant: str, handle: str
    ) -> None:
        self.trace_id = trace_id
        self.submission = submission
        self.tenant = tenant
        self.handle = handle
        #: Query id once admitted; -1 for shed/rejected submissions.
        self.query_id = -1
        self.events: list[JournalEvent] = []
        self.terminal = ""
        self.reason = ""
        self.attempts = 0
        self.steps = 0
        self.result_rows = -1
        #: Timing decomposition on the simulated axis (seconds).
        self.total_seconds = 0.0
        self.backoff_seconds = 0.0
        self.execution_seconds = 0.0
        #: Informational only (excluded from the canonical form):
        #: wall-clock submit → settle, submit → first scheduled morsel
        #: (queue wait), and the scheduler step-seq span.
        self.wall_seconds = 0.0
        self.queue_wall_seconds = 0.0
        self.first_seq = -1
        self.last_seq = -1
        #: Why admission shed this submission (the load numbers behind
        #: the ``overload_shed`` reason); in no export.
        self.admission_note = ""
        #: Wall clock at submit (set by the server; informational).
        self._wall_start = 0.0
        self._lock = threading.Lock()

    def note(
        self,
        kind: str,
        span_id: str = "",
        attempt: int = 0,
        sim_time: float = 0.0,
        **detail: Any,
    ) -> JournalEvent:
        """File one audit entry (thread-safe; entries stay append-only)."""
        event = JournalEvent(
            kind=kind,
            span_id=span_id or self.trace_id,
            attempt=attempt,
            sim_time=sim_time,
            detail=tuple(sorted(detail.items())),
        )
        with self._lock:
            self.events.append(event)
        return event

    def record_backoff(self, seconds: float) -> None:
        with self._lock:
            self.backoff_seconds += seconds

    def settle(
        self,
        terminal: str,
        span_id: str = "",
        attempt: int = 0,
        sim_time: float = 0.0,
        steps: int = 0,
        reason: str = "",
        result_rows: int = -1,
        **detail: Any,
    ) -> None:
        """File the terminal entry and freeze the timing decomposition."""
        if terminal not in self.TERMINAL_STATES:
            raise ValueError(f"unknown terminal state {terminal!r}")
        if self.terminal:
            raise RuntimeError(
                f"journal {self.trace_id} already settled as {self.terminal!r}"
            )
        self.note(
            "settled",
            span_id=span_id,
            attempt=attempt,
            sim_time=sim_time,
            terminal=terminal,
            reason=reason,
            **detail,
        )
        with self._lock:
            self.reason = reason
            self.attempts = max(self.attempts, attempt)
            self.steps = steps
            self.result_rows = result_rows
            self.total_seconds = sim_time
            self.execution_seconds = max(0.0, sim_time - self.backoff_seconds)
            # Published last: a fold that sees the terminal state sees
            # the whole settlement.
            self.terminal = terminal

    @property
    def settled(self) -> bool:
        return bool(self.terminal)

    @property
    def retries(self) -> int:
        """Server-level retry attempts this query needed so far."""
        with self._lock:
            return sum(1 for e in self.events if e.kind == "retry_scheduled")

    def span_links(self) -> list[str]:
        """Every span the journal's entries reference, in filing order."""
        seen: dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.span_id)
        return list(seen)

    def as_dict(self, canonical: bool = True) -> dict[str, Any]:
        """JSON-clean form; the default (canonical) form is derived from
        counts and simulated clocks only and replays bit-identically.
        Pass ``canonical=False`` to include the informational wall-clock
        and scheduler-sequence fields (artifact exports do)."""
        out: dict[str, Any] = {
            "trace_id": self.trace_id,
            "submission": self.submission,
            "tenant": self.tenant,
            "handle": self.handle,
            "query_id": self.query_id,
            "terminal": self.terminal,
            "reason": self.reason,
            "attempts": self.attempts,
            "steps": self.steps,
            "result_rows": self.result_rows,
            "total_seconds": self.total_seconds,
            "backoff_seconds": self.backoff_seconds,
            "execution_seconds": self.execution_seconds,
            "events": [event.as_dict() for event in self.events],
        }
        if not canonical:
            out["wall_seconds"] = self.wall_seconds
            out["queue_wall_seconds"] = self.queue_wall_seconds
            out["first_seq"] = self.first_seq
            out["last_seq"] = self.last_seq
        return out

    def render(self) -> str:
        lines = [
            f"journal {self.trace_id}: {self.handle} [{self.tenant}] "
            f"-> {self.terminal or 'in flight'}"
            + (f" ({self.reason})" if self.reason else ""),
            f"  attempts={self.attempts} steps={self.steps} "
            f"total={self.total_seconds:.6f}s "
            f"(execution {self.execution_seconds:.6f}s + "
            f"backoff {self.backoff_seconds:.6f}s)",
        ]
        for event in self.events:
            extras = "".join(
                f" {k}={v}" for k, v in event.detail if v not in ("", -1)
            )
            lines.append(
                f"  [{event.sim_time:.6f}s] {event.kind} "
                f"span={event.span_id}{extras}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryJournal({self.trace_id}, {self.handle!r}, "
            f"terminal={self.terminal!r}, events={len(self.events)})"
        )


def journal_metrics(
    journals: Iterable[QueryJournal], slo: SLOConfig | None = None
) -> MetricsRegistry:
    """Fold journals into the server-side ``serving_*`` instruments.

    Per tenant: the non-completed terminal counters (``serving_cancelled``
    … ``serving_rejected``), ``serving_retries``, ``serving_in_flight``,
    ``serving_simulated_millis`` and the completed-latency histogram; per
    handle: latency, ``serving_breaker_rejected`` and the SLO denominator
    ``serving_handle_settled``; and, with ``slo`` armed, the
    ``serving_slo_miss`` burn counters under both labels.
    """
    fold = MetricsRegistry()
    for journal in journals:
        tenant, handle = journal.tenant, journal.handle
        terminal, retries = journal.terminal, journal.retries
        if retries:
            fold.counter("serving_retries", tenant=tenant).add(retries)
        if journal.query_id >= 0:
            fold.gauge("serving_in_flight", tenant=tenant).add(0 if terminal else 1)
        if terminal == "completed":
            latency = journal.total_seconds
            fold.counter("serving_simulated_millis", tenant=tenant).add(
                int(latency * 1000)
            )
            fold.histogram(
                "serving_latency_seconds", SERVING_LATENCY_BOUNDS, tenant=tenant
            ).observe(latency)
            fold.histogram(
                "serving_handle_latency_seconds", SERVING_LATENCY_BOUNDS, handle=handle
            ).observe(latency)
        elif terminal:
            fold.counter(f"serving_{terminal}", tenant=tenant).inc()
            if terminal == "rejected" and journal.reason.startswith("breaker_"):
                fold.counter("serving_breaker_rejected", handle=handle).inc()
        if terminal in CONSIDERED:
            fold.counter("serving_handle_settled", handle=handle).inc()
            if slo is not None and slo.burns(journal):
                fold.counter("serving_slo_miss", tenant=tenant).inc()
                fold.counter("serving_slo_miss", handle=handle).inc()
    return fold
