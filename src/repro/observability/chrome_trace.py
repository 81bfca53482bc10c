"""Export operator spans and substrate trace events as a Chrome trace.

The JSON produced here loads in ``chrome://tracing`` or
https://ui.perfetto.dev and shows one *process* per participant — the
driver plus every simulated rank — with the substrate events (collectives,
one-sided puts, window registrations) on track 0 and one track per
operator, all on the shared simulated-time axis (microseconds).

Both inputs share the :class:`~repro.observability.events.SimEvent` base,
so the exporter is a single loop over heterogeneous events::

    report = execute(plan, options=RunOptions(profile=True))
    write_chrome_trace("trace.json", profile=report.profile,
                       traces=report.traces)
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.observability.events import DRIVER_RANK, SimEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executor import ExecutionReport
    from repro.mpi.trace import ClusterTrace
    from repro.observability.profile import PlanProfile
    from repro.observability.tracing import QueryJournal
    from repro.serving.scheduler import SchedulerEvent

__all__ = [
    "chrome_trace_events",
    "write_chrome_trace",
    "serving_trace_events",
    "write_serving_chrome_trace",
    "write_trace_events",
]

#: Track id of the substrate (communication) events within each process.
_SUBSTRATE_TID = 0


def _pid(rank: int) -> int:
    """Chrome process id for a rank (driver first, then rank order)."""
    return 1 if rank == DRIVER_RANK else rank + 2


def _process_name(rank: int) -> str:
    return "driver" if rank == DRIVER_RANK else f"rank {rank}"


def _chrome_event(
    event: SimEvent,
    pid: int,
    tid: int,
    time_scale: float,
    metadata: list[dict],
    named: set[tuple[int, int]],
    track: str | None = None,
    instant: bool = False,
) -> dict:
    """One event as a Chrome dict on track ``(pid, tid)``.

    Names the track ``track`` in ``metadata`` the first time it is used
    and merges the event's causal ids into its kind-specific ``args``.
    Operator spans and substrate events are ``X`` boxes; ``instant``
    makes a process-scoped lifecycle instant instead.
    """
    if track is not None and (pid, tid) not in named:
        named.add((pid, tid))
        metadata.append({"ph": "M", "name": "thread_name", "pid": pid,
                         "tid": tid, "args": {"name": track}})
    args = event.chrome_args()
    if event.trace_id:
        args = {**args, "trace_id": event.trace_id, "span_id": event.span_id,
                "parent_span_id": event.parent_span_id}
    operator = event.kind == "operator"
    ts = event.start * time_scale
    shape = (
        {"ph": "i", "s": "p", "ts": ts}
        if instant
        else {"ph": "X", "ts": ts, "dur": max(0.0, event.duration) * time_scale}
    )
    return {
        "name": event.label if operator else f"{event.kind}:{event.label}",
        "cat": "lifecycle" if instant else "operator" if operator else "substrate",
        **shape,
        "pid": pid,
        "tid": tid,
        "args": args,
    }


def write_trace_events(path: str, events: list[dict]) -> int:
    """Write a ``traceEvents`` list as a Chrome trace JSON file; returns
    the event count."""
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        handle.write("\n")
    return len(events)


def chrome_trace_events(
    profile: "PlanProfile | None" = None,
    traces: Sequence["ClusterTrace"] = (),
    time_scale: float = 1e6,
    extra_events: Iterable[SimEvent] = (),
) -> list[dict]:
    """Build the ``traceEvents`` list from a profile and/or cluster traces.

    Args:
        profile: Operator spans from a profiled execution (optional).
        traces: Any number of :class:`ClusterTrace` instances whose
            collective/put/window events join the same timeline.
        time_scale: Simulated seconds → trace timestamp units (µs).
        extra_events: Loose events joining the same timeline — e.g. an
            ``ExecutionReport``'s driver-side ``recovery_events``, which
            carry the fault/retry story of aborted (hence untraced) stage
            attempts.
    """
    events: list[SimEvent] = []
    if profile is not None:
        events.extend(profile.spans)
    for trace in traces:
        events.extend(trace.events())
    events.extend(extra_events)

    metadata: list[dict] = []
    if profile is not None and getattr(profile, "dropped_spans", 0):
        # The profiler hit its span cap: make the truncation visible in
        # the trace itself, not just in EXPLAIN ANALYZE.
        metadata.append(
            {"ph": "M", "name": "dropped_spans", "pid": 0,
             "args": {"dropped_spans": profile.dropped_spans}}
        )
    #: Processes already described with process_name/substrate metadata.
    known_pids: set[int] = set()
    #: Operator node id -> track id (1.. in first-seen order, shared
    #: across processes so the same operator aligns on every rank).
    op_tids: dict[int, int] = {}
    #: (pid, tid) operator tracks already named.
    named_tracks: set[tuple[int, int]] = set()

    def describe_process(rank: int) -> int:
        pid = _pid(rank)
        if pid not in known_pids:
            known_pids.add(pid)
            metadata.append({"ph": "M", "name": "process_name", "pid": pid,
                             "args": {"name": _process_name(rank)}})
            metadata.append({"ph": "M", "name": "process_sort_index", "pid": pid,
                             "args": {"sort_index": pid}})
            metadata.append({"ph": "M", "name": "thread_name", "pid": pid,
                             "tid": _SUBSTRATE_TID, "args": {"name": "substrate"}})
        return pid

    spans: list[dict] = []
    for event in events:
        pid = describe_process(event.rank)
        if event.kind == "operator":
            tid = op_tids.setdefault(getattr(event, "node_id", 0), len(op_tids) + 1)
            track = getattr(event, "op_type", event.label)
        else:
            # Named with its process in describe_process.
            tid, track = _SUBSTRATE_TID, None
        spans.append(
            _chrome_event(event, pid, tid, time_scale, metadata, named_tracks, track)
        )
    return metadata + spans


def write_chrome_trace(
    path: str,
    profile: "PlanProfile | None" = None,
    traces: Iterable["ClusterTrace"] = (),
    extra_events: Iterable[SimEvent] = (),
) -> int:
    """Write the merged trace JSON to ``path``; returns the event count."""
    events = chrome_trace_events(
        profile=profile, traces=list(traces), extra_events=extra_events
    )
    return write_trace_events(path, events)


# -- multi-query serving export ----------------------------------------------

#: Per-query process track layout (see :func:`serving_trace_events`).
_LIFECYCLE_TID = 0
_QUERY_SUBSTRATE_TID_BASE = 10
_QUERY_OPERATOR_TID_BASE = 100


def serving_trace_events(
    queries: Sequence[tuple["QueryJournal", "ExecutionReport | None"]],
    scheduler_events: Sequence["SchedulerEvent"] = (),
    lifecycle_events: Sequence[SimEvent] = (),
    time_scale: float = 1e6,
    pid_base: int = 0,
    label_prefix: str = "",
) -> list[dict]:
    """One merged Chrome trace for a whole serving run.

    Lanes (Chrome *processes*), offset by ``pid_base`` so several runs
    (e.g. the profiles of a chaos matrix) can merge into one file:

    * ``pid_base + 1`` — the scheduler: one lane, one box per pick on
      the *global step-sequence* axis.  Boxes of different queries
      alternating are the interleaving proof, visually.
    * ``pid_base + 2`` — tenants: one thread per tenant, one box per
      admitted query spanning ``[first_seq, last_seq]`` (instants for
      shed/rejected submissions that never ran).
    * ``pid_base + 3`` — server transitions that belong to no single
      query (circuit-breaker state changes).
    * ``pid_base + 10 + i`` — one process per submission ``i``, on the
      *simulated-time* axis (µs): journal lifecycle instants on thread
      0, per-rank substrate events on threads 10+, operator spans on
      threads 100+.

    Every event's ``args`` carry its causal ``trace_id``/``span_id``, so
    clicking any box answers "which query was this?".

    Args:
        queries: ``(journal, report-or-None)`` per submission, in
            submission order; failed/shed submissions pass ``None``.
        scheduler_events: The scheduler's trace, one event per pick.
        lifecycle_events: The server's lifecycle transitions; entries
            without a trace id land in the server lane.
        time_scale: Simulated seconds → µs for the per-query processes.
        pid_base: Offset for every process id this call emits.
        label_prefix: Prefix for process names (e.g. a matrix profile).
    """
    prefix = f"{label_prefix}: " if label_prefix else ""
    metadata: list[dict] = []
    spans: list[dict] = []
    #: (pid, tid) tracks of the per-query processes already named.
    named: set[tuple[int, int]] = set()
    scheduler_pid = pid_base + 1
    tenant_pid = pid_base + 2
    server_pid = pid_base + 3

    def describe(pid: int, name: str) -> None:
        metadata.append({"ph": "M", "name": "process_name", "pid": pid,
                         "args": {"name": f"{prefix}{name}"}})
        metadata.append({"ph": "M", "name": "process_sort_index", "pid": pid,
                         "args": {"sort_index": pid}})

    # The scheduler lane: the step-sequence axis.
    if scheduler_events:
        describe(scheduler_pid, "scheduler (step-sequence axis)")
    for event in scheduler_events:
        spans.append(
            {
                "name": f"q{event.query_id} {event.label}",
                "cat": "scheduler",
                "ph": "X",
                "ts": float(event.seq),
                "dur": 1.0,
                "pid": scheduler_pid,
                "tid": 0,
                "args": {
                    "query_id": event.query_id,
                    "tenant": event.tenant,
                    "steps": event.steps,
                    "trace_id": event.trace_id,
                    "span_id": event.span_id,
                },
            }
        )

    # Tenant lanes: one box per journal on the same sequence axis.
    tenant_tids: dict[str, int] = {}
    if queries:
        describe(tenant_pid, "tenants (step-sequence axis)")
    for journal, _report in queries:
        tid = tenant_tids.get(journal.tenant)
        if tid is None:
            tid = tenant_tids[journal.tenant] = len(tenant_tids)
            metadata.append(
                {"ph": "M", "name": "thread_name", "pid": tenant_pid,
                 "tid": tid, "args": {"name": f"tenant {journal.tenant}"}}
            )
        args = {
            "trace_id": journal.trace_id,
            "handle": journal.handle,
            "terminal": journal.terminal,
            "attempts": journal.attempts,
            "steps": journal.steps,
            "total_seconds": journal.total_seconds,
        }
        if journal.first_seq >= 0:
            spans.append(
                {
                    "name": f"{journal.trace_id} {journal.handle}",
                    "cat": "query",
                    "ph": "X",
                    "ts": float(journal.first_seq),
                    "dur": float(max(1, journal.last_seq - journal.first_seq)),
                    "pid": tenant_pid,
                    "tid": tid,
                    "args": args,
                }
            )
        else:
            # Never scheduled (shed / rejected): an instant at its
            # submission index keeps the refusal visible on the lane.
            spans.append(
                {
                    "name": f"{journal.trace_id} {journal.terminal}",
                    "cat": "query",
                    "ph": "i",
                    "s": "t",
                    "ts": float(journal.submission),
                    "pid": tenant_pid,
                    "tid": tid,
                    "args": args,
                }
            )

    # Per-query processes on the simulated axis.
    journal_pids: dict[str, int] = {}
    for index, (journal, report) in enumerate(queries):
        pid = pid_base + 10 + index
        journal_pids[journal.trace_id] = pid
        describe(pid, f"{journal.trace_id} ({journal.handle})")
        metadata.append(
            {"ph": "M", "name": "thread_name", "pid": pid,
             "tid": _LIFECYCLE_TID, "args": {"name": "lifecycle"}}
        )
        for entry in journal.events:
            spans.append(
                {
                    "name": entry.kind,
                    "cat": "lifecycle",
                    "ph": "i",
                    "s": "p",
                    "ts": entry.sim_time * time_scale,
                    "pid": pid,
                    "tid": _LIFECYCLE_TID,
                    "args": {"span_id": entry.span_id,
                             "attempt": entry.attempt,
                             **dict(entry.detail)},
                }
            )
        if report is None:
            continue
        dropped = report.profile.dropped_spans if report.profile is not None else 0
        if dropped:
            metadata.append(
                {"ph": "M", "name": "dropped_spans", "pid": pid,
                 "args": {"dropped_spans": dropped}}
            )
        op_tids: dict[int, int] = {}
        for event in report.events():
            if event.kind == "operator":
                tid = _QUERY_OPERATOR_TID_BASE + op_tids.setdefault(
                    getattr(event, "node_id", 0), len(op_tids)
                )
                track = getattr(event, "op_type", event.label)
            else:
                tid = _QUERY_SUBSTRATE_TID_BASE + event.rank + 1
                track = _process_name(event.rank)
            spans.append(
                _chrome_event(event, pid, tid, time_scale, metadata, named, track)
            )

    # Lifecycle transitions: traced ones join their query's process,
    # the rest (breaker state changes) get a server lane.
    server_described = False
    for event in lifecycle_events:
        pid = journal_pids.get(event.trace_id)
        if pid is None:
            if not server_described:
                server_described = True
                describe(server_pid, "server")
                metadata.append(
                    {"ph": "M", "name": "thread_name", "pid": server_pid,
                     "tid": _LIFECYCLE_TID, "args": {"name": "transitions"}}
                )
            pid = server_pid
        spans.append(
            _chrome_event(
                event, pid, _LIFECYCLE_TID, time_scale, metadata, named,
                instant=True,
            )
        )
    return metadata + spans


def write_serving_chrome_trace(
    path: str,
    queries: Sequence[tuple["QueryJournal", "ExecutionReport | None"]],
    scheduler_events: Sequence["SchedulerEvent"] = (),
    lifecycle_events: Sequence[SimEvent] = (),
    pid_base: int = 0,
    label_prefix: str = "",
) -> int:
    """Write a serving-run trace JSON to ``path``; returns the event count."""
    events = serving_trace_events(
        queries,
        scheduler_events=scheduler_events,
        lifecycle_events=lifecycle_events,
        pid_base=pid_base,
        label_prefix=label_prefix,
    )
    return write_trace_events(path, events)
