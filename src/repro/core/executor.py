"""Driver-side plan execution (§3.4).

The top-level plan runs on the *driver* (the user's workstation in the
paper's architecture).  :func:`execution_steps` prepares the plan
(pipeline cutting), binds plan inputs to their parameter slots, and
drives the root operator one driver-level morsel at a time — yielding
control between morsels, which is what lets the serving layer
(:mod:`repro.serving`) interleave many concurrent queries on one shared
cluster at morsel granularity.  :func:`execute` drives the generator to
exhaustion and returns everything the run produced as one
:class:`ExecutionReport`: the result tuples, the driver's simulated time,
the per-rank phase breakdowns of every MPI job the plan ran, and — with
profiling on — the per-operator
:class:`~repro.observability.profile.PlanProfile`.

Per-run behavior is configured by a single immutable
:class:`~repro.core.options.RunOptions` — the only knob surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.core.context import ExecutionContext
from repro.core.operator import Operator
from repro.core.operators.parameter_lookup import ParameterSlot
from repro.core.options import RunOptions
from repro.core.plan import prepare
from repro.errors import ExecutionError, TypeCheckError
from repro.mpi.cluster import ClusterResult
from repro.observability.record import record_metrics
from repro.types.collections import RowVector
from repro.types.tuples import TupleType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.sanitizer import Sanitizer, SanitizerReport
    from repro.mpi.trace import ClusterTrace, TraceEvent
    from repro.observability.events import SimEvent
    from repro.observability.metrics import MetricsSnapshot
    from repro.observability.profile import PlanProfile

__all__ = ["ExecutionReport", "execute", "execution_steps", "VERIFY_PLANS"]

#: Process-wide default for pre-execution static verification.  The test
#: suite flips this to True (``tests/conftest.py``) so every executed plan
#: doubles as an analyzer soak test; ``RunOptions(verify_plans=...)``
#: overrides it.
VERIFY_PLANS = False


@dataclass
class ExecutionReport:
    """Everything one plan execution produced — the one result surface.

    This unifies what used to be three separate APIs: the executed rows,
    the timing evidence (``simulated_time`` plus ``phase_breakdown()``
    over the MPI jobs' per-rank clocks), and the observability artifacts
    (``profile`` when profiling was on, ``trace``/``traces`` when the
    jobs recorded substrate events).  The evidence fields are the lists of
    the execution's :class:`~repro.observability.record.ExecutionRecord`;
    everything else here is a fold over them, computed on read.
    """

    rows: list[tuple]
    output_type: TupleType
    #: Total simulated seconds on the driver, including waiting for every
    #: data-parallel job it dispatched.
    simulated_time: float
    #: One entry per MpiExecutor execution (every completed wave of every
    #: invocation), in completion order.
    cluster_results: list[ClusterResult] = field(default_factory=list)
    #: Per-operator measurements; ``None`` unless the run was profiled.
    profile: "PlanProfile | None" = None
    #: Work-accounting metrics (rows, bytes shuffled, memory high-water,
    #: retries) with per-operator and per-rank breakdowns; ``None`` unless
    #: the run recorded metrics (``RunOptions(metrics=True)``).
    metrics: "MetricsSnapshot | None" = None
    #: Fault-injection evidence that outlived its MPI job: fault/retry
    #: events harvested from aborted attempts plus the driver's
    #: ``recovery`` actions (stage retries, cluster degradations).
    recovery_events: list["TraceEvent"] = field(default_factory=list)
    #: Runtime-sanitizer report (MOD05x counters, determinism-replay
    #: findings); ``None`` unless the run was sanitized
    #: (``RunOptions(sanitize=True)``).
    sanitizer: "SanitizerReport | None" = None

    @property
    def traces(self) -> list["ClusterTrace"]:
        """Substrate event traces of every traced MPI job the plan ran."""
        return [r.trace for r in self.cluster_results if r.trace is not None]

    @property
    def trace(self) -> "ClusterTrace | None":
        """The first MPI job's substrate trace (the common single-job case)."""
        traces = self.traces
        return traces[0] if traces else None

    def events(self) -> Iterator["SimEvent"]:
        """Every event the execution recorded: operator spans (when
        profiled), the substrate events of each completed job rank by
        rank (puts, collectives, windows, faults, retries), then the
        driver-side recovery events."""
        if self.profile is not None:
            yield from self.profile.spans
        for trace in self.traces:
            yield from trace.events()
        yield from self.recovery_events

    def phase_breakdown(self) -> dict[str, float]:
        """Max-over-ranks seconds per phase, summed over all MPI jobs."""
        merged: dict[str, float] = {}
        for result in self.cluster_results:
            for phase, seconds in result.phase_breakdown().items():
                merged[phase] = merged.get(phase, 0.0) + seconds
        return merged

    def fault_events(self) -> list["TraceEvent"]:
        """Every injected fault, retry, and recovery event of this run.

        Combines the fault/retry/checkpoint events of the surviving MPI
        jobs' traces (present when the cluster traces, the run is
        observed, or it runs under a fault policy) with
        :attr:`recovery_events` — the evidence harvested from aborted
        attempts and the driver's recovery actions.
        """
        events: list[TraceEvent] = []
        for trace in self.traces:
            for kind in ("fault", "retry", "recovery"):
                events.extend(trace.events(kind=kind))
        events.extend(self.recovery_events)
        return events

    def fault_summary(self) -> dict[str, int]:
        """Event counts keyed ``kind:label`` (e.g. ``fault:put_drop``)."""
        counts: dict[str, int] = {}
        for event in self.fault_events():
            key = f"{event.kind}:{event.label}"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.rows)


def execution_steps(
    root: Operator,
    params: dict[ParameterSlot, tuple] | None = None,
    options: RunOptions | None = None,
    ctx: ExecutionContext | None = None,
) -> Iterator[int]:
    """Run a plan incrementally: yield per driver morsel, return the report.

    This is the executor half of the driver/executor split.  Each
    ``next()`` advances the plan by one driver-level morsel (one batch
    streamed from the root) and yields the row count produced so far; the
    final ``next()`` raises
    ``StopIteration`` whose ``value`` is the :class:`ExecutionReport`.
    The serving scheduler (:mod:`repro.serving.scheduler`) holds one such
    generator per admitted query and round-robins ``next()`` calls across
    them — morsels are the preemption unit, exactly as plain ``execute``
    is the degenerate single-query schedule.

    Args:
        root: Root operator of the plan DAG.
        params: Bindings for driver-level :class:`ParameterSlot` inputs
            (the plan's base tables and constants).
        options: The :class:`RunOptions` for this run; ``None`` means all
            defaults, or ``ctx.options`` when ``ctx`` is given.
        ctx: Pre-built driver context to run under.  It carries the options
            it runs under; an explicit ``options`` other than
            ``ctx.options`` is refused with :class:`ExecutionError`.
    """
    if ctx is None:
        ctx = ExecutionContext.from_options(options or RunOptions())
    elif options is not None and options != ctx.options:
        raise ExecutionError(
            f"a context running under {ctx.options!r} was given other "
            f"options {options!r}; a context carries its options"
        )
    options = ctx.options
    if options.metrics and ctx.registry is None:
        from repro.observability.metrics import MetricsRegistry

        ctx.registry = MetricsRegistry()
    if ctx.profiler is None and (options.profile or ctx.registry is not None):
        from repro.observability.profile import Profiler

        # One observer per observed run; counts-only unless profiling.
        ctx.profiler = Profiler(
            ctx.clock, timed=options.profile, trace=ctx.record.trace
        )
    if options.faults is not None:
        from repro.faults.injector import FaultInjector

        # Fresh per execution: its crash ledger and job counter span
        # exactly this run's MPI jobs and recovery attempts.
        ctx.fault_injector = FaultInjector(options.faults)
    installed_sanitizer: "Sanitizer | None" = None
    if options.sanitize:
        from repro.analysis.sanitizer import Sanitizer

        # Always a fresh recorder: the MOD053 replay diff assumes the
        # write log covers exactly this execution.
        installed_sanitizer = Sanitizer()
        ctx.sanitizer = installed_sanitizer
    verify_plans = options.verify_plans
    if verify_plans is None:
        verify_plans = VERIFY_PLANS
    if verify_plans and not getattr(root, "_lint_verified", False):
        from repro.analysis import verify

        verify(root)
        # Plans are immutable once built; remember the clean verdict so
        # re-executions (benchmark loops, nested invocations) skip the
        # analyzer.  Failures always re-raise: we never get here for them.
        root._lint_verified = True
    prepare(root)
    params = params or {}
    _check_bindings(params)
    bound: list[int] = []
    for slot, value in params.items():
        ctx.push_parameter(slot.id, value)
        bound.append(slot.id)
        if ctx.registry is not None:
            # Plan-input volume: bytes of every driver-bound collection.
            # The shuffle-amplification advisory (MOD040) compares the
            # recorded shuffle bytes against this.
            for element in value:
                size_bytes = getattr(element, "size_bytes", None)
                if callable(size_bytes):
                    ctx.registry.counter("plan_input_bytes").add(size_bytes())
    rows: list[tuple] = []
    try:
        # Pull whole morsels from the root so the top pipeline stays on its
        # kernels instead of degrading to rows at the driver boundary.
        for batch in root.stream_batches(ctx):
            rows.extend(batch.iter_rows())
            yield len(rows)
    finally:
        for slot_id in bound:
            ctx.pop_parameter(slot_id)

    sanitizer_report = None
    if installed_sanitizer is not None:
        # The replay runs under its own context, hence its own record:
        # nothing it does can reach this execution's evidence.
        try:
            sanitizer_report = _sanitize_replay(root, ctx, params, installed_sanitizer)
        finally:
            ctx.sanitizer = None
    record = ctx.record
    metrics_snapshot = None
    if ctx.registry is not None:
        metrics_snapshot = ctx.registry.snapshot().merged(
            record_metrics(record, ctx.profiler, options.mode).snapshot()
        )
    plan_profile = None
    if ctx.profiler is not None and ctx.profiler.timed:
        from repro.observability.profile import PlanProfile

        plan_profile = PlanProfile.from_plan(
            root, ctx.profiler, total_seconds=ctx.clock.now, mode=options.mode,
            metrics=metrics_snapshot,
        )
        plan_profile.sanitizer = sanitizer_report
    return ExecutionReport(
        rows=rows,
        output_type=root.output_type,
        simulated_time=ctx.clock.now,
        cluster_results=list(record.cluster_results),
        profile=plan_profile,
        metrics=metrics_snapshot,
        recovery_events=list(record.recovery_events),
        sanitizer=sanitizer_report,
    )


def _check_bindings(params: dict[ParameterSlot, tuple]) -> None:
    """Refuse an input relation of another schema than its slot's, on the
    driver: inside the plan it would fail only at a scan in a wave."""
    for slot, value in params.items():
        for field, element in zip(slot.param_type, value):
            expected = getattr(field.item_type, "element_type", None)
            if isinstance(element, RowVector) and element.element_type != expected:
                raise TypeCheckError(
                    f"input {field.name!r} holds {element.element_type!r} "
                    f"tuples but the plan was built for {expected!r}"
                )


def execute(
    root: Operator,
    params: dict[ParameterSlot, tuple] | None = None,
    options: RunOptions | None = None,
    *,
    ctx: ExecutionContext | None = None,
) -> ExecutionReport:
    """Run a plan on the driver and return its report.

    Args:
        root: Root operator of the plan DAG.
        params: Bindings for driver-level :class:`ParameterSlot` inputs
            (the plan's base tables and constants).
        options: Per-run configuration; see
            :class:`~repro.core.options.RunOptions` for every knob.
        ctx: Pre-built driver context to run under, with the options it
            carries (see :func:`execution_steps`).
    """
    steps = execution_steps(root, params, options, ctx=ctx)
    while True:
        try:
            next(steps)
        except StopIteration as done:
            return done.value


def _sanitize_replay(
    root: Operator,
    ctx: ExecutionContext,
    params: dict[ParameterSlot, tuple] | None,
    baseline: "Sanitizer",
) -> "SanitizerReport":
    """MOD053: re-execute the plan and diff the one-sided write sets.

    The replay is a second execution under a context that matches the
    first in everything that can influence results — the run's
    ``RunOptions`` whole (fault policy included, with a fresh, identically
    seeded injector) and the cost model — and carries its own fresh
    :class:`Sanitizer`.  Handing over the options object rather than
    copying knobs means a knob added to :class:`RunOptions` is replayed
    automatically.  Identical write logs
    prove the exchanged bytes were reproducible; a diff convicts a
    mislabeled ``deterministic=True`` operator.  The replay's report is
    discarded.
    """
    from repro.analysis.diagnostics import RULES, Diagnostic
    from repro.analysis.sanitizer import Sanitizer

    replay_ctx = ExecutionContext(
        cost=ctx.cost,
        options=ctx.options.replace(profile=False, metrics=False, sanitize=False),
        sanitizer=Sanitizer(),
    )
    try:
        execute(root, params, ctx=replay_ctx)
    except Exception as exc:  # noqa: BLE001 - replay divergence is the finding
        rule = RULES["MOD053"]
        report = baseline.report()
        report.replayed = True
        report.diagnostics.append(
            Diagnostic(
                rule=rule,
                severity=rule.severity,
                message=(
                    f"replaying the plan under an identical context failed "
                    f"where the first execution succeeded "
                    f"({type(exc).__name__}: {exc}); plan control flow is "
                    f"non-deterministic"
                ),
                path="runtime/<replay>",
                operator="<replay>",
            )
        )
        return report
    return baseline.report(replay=replay_ctx.sanitizer)
