"""The serving front door: sessions, admission control, tenant accounting.

The :class:`Server` is the driver half of the driver/executor split.  It
owns one shared :class:`~repro.mpi.cluster.SimCluster` (the executor
substrate), one :class:`~repro.serving.registry.PlanRegistry` of deployed
plans, one :class:`~repro.serving.scheduler.Scheduler` (a run queue
stepped by the threads that wait on it; the server starts none), and
one :class:`~repro.observability.tracing.QueryJournal` per submission.

The journal is the only record of a submission's fate: it is written
once, by :meth:`Server._settle`, and everything else — the tenant
ledger (:meth:`Server.tenants`), the ``serving_*`` metrics
(:meth:`Server.snapshot`), the lifecycle instants
(:attr:`Server.lifecycle_events`), the SLO report — is folded from the
journals when somebody reads it, so the views cannot disagree.

A query is a *lifecycle*, not a call::

    submitted ──► running ──► completed
        │            ├──────► cancelled          (cooperative cancel)
        │            ├──────► deadline-exceeded  (simulated-clock budget)
        │            ├──────► retried ──► running…   (retryable fault)
        │            └──────► failed             (terminal; feeds breaker)
        ├──────► shed        (load-aware admission, per-tenant)
        └──────► rejected    (hard max_pending cap / open breaker)

Admission control has three gates, in order: the per-plan circuit
breaker (:class:`~repro.serving.lifecycle.CircuitBreaker` fast-fails
handles with a run of terminal failures), the hard ``max_pending`` bound
(:class:`~repro.errors.AdmissionError` back-pressure), and load-aware
shedding — above ``shed_threshold * max_pending`` in-flight queries, a
tenant already holding its weight-proportional share of slots is shed
(:class:`~repro.errors.OverloadShedError`) so a flooding tenant cannot
starve a well-behaved one.

Every lifecycle decision is driven by counts and the query's *simulated*
clock, never wall time, so the set of outcomes for a given seed and
submission sequence is deterministic (``tests/test_serving_replay.py``).

The client surface is :class:`QuerySession` — ``session → deploy → run``:

    server = Server(cluster, catalog, max_pending=32)
    session = server.session("analytics", weight=2.0)
    handle = session.deploy("q12", q12()).handle   # verify + freeze once
    outcome = session.run(handle)                  # hot path, many times
    frame = outcome.frame
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.core.context import ExecutionContext
from repro.core.options import RunOptions
from repro.errors import (
    AdmissionError,
    CircuitOpenError,
    DeadlineExceeded,
    OverloadShedError,
    QueryCancelled,
    ResultTimeout,
    RetriesExhausted,
)
from repro.faults.policy import RetryPolicy, is_retryable
from repro.mpi.trace import TraceEvent
from repro.observability.events import DRIVER_RANK, LifecycleDetail
from repro.observability.metrics import MetricsRegistry, MetricsSnapshot
from repro.observability.slo import SLOConfig, SLOReport, build_slo_report
from repro.observability.tracing import (
    QueryJournal,
    TraceContext,
    journal_metrics,
)
from repro.serving.lifecycle import BREAKER_STATE_CODES, BreakerConfig, CircuitBreaker
from repro.serving.registry import PlanRegistry, PreparedPlan
from repro.serving.scheduler import QueryTask, Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executor import ExecutionReport
    from repro.mpi.cluster import SimCluster
    from repro.relational.frame import Frame
    from repro.relational.optimizer.planner import ModularisQuery
    from repro.storage.catalog import Catalog

__all__ = ["QueryOutcome", "QueryFuture", "TenantAccount", "QuerySession", "Server"]


@dataclass(frozen=True)
class QueryOutcome:
    """Everything a completed query produced."""

    query_id: int
    tenant: str
    handle: str
    report: "ExecutionReport"
    frame: "Frame"
    #: Driver morsel steps this query consumed (the fair-share currency),
    #: cumulative across server-level retry attempts.
    steps: int
    #: Global step-sequence span ``[first_seq, last_seq]`` — two outcomes
    #: with overlapping spans provably interleaved on the scheduler.
    first_seq: int
    last_seq: int
    #: The query's audit journal (submit → admit → attempt(s) → settle)
    #: with causal span links.
    journal: QueryJournal
    #: Server-level attempts this query took (1 = no retries needed).
    attempts: int = 1


class QueryFuture:
    """Handle to an in-flight query; ``result()`` steps it to its outcome."""

    def __init__(
        self, query_id: int, tenant: str, handle: str, scheduler: Scheduler
    ) -> None:
        self.query_id = query_id
        self.tenant = tenant
        self.handle = handle
        self._scheduler = scheduler
        #: Read by the query's generator before every driver step, so a
        #: cancel lands whichever retry attempt is running.
        self._cancel = threading.Event()
        self._outcome: QueryOutcome | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._outcome is not None or self._error is not None

    def cancel(self) -> bool:
        """Request cooperative cancellation of this query.

        The flag is checked by the query's own generator before each driver
        step — never mid-step — and the query settles into its tenant's ledger as a
        ``cancelled`` outcome; ``result()`` then raises
        :class:`~repro.errors.QueryCancelled`.  Returns ``False`` if the
        query already settled (its outcome stands), ``True`` if the
        cancellation request was recorded.
        """
        if self.done():
            return False
        self._cancel.set()
        return True

    def cancelled(self) -> bool:
        """Whether cancellation has been requested (not yet necessarily
        settled — poll :meth:`done` or block on :meth:`result`)."""
        return self._cancel.is_set()

    def result(self, timeout: float | None = None) -> QueryOutcome:
        """Step the server's run queue on this thread until this query
        settles, then return its outcome.

        The steps go to whichever query the stride pick favours, not
        only this one.  ``timeout`` is a *wall-clock* bound on this wait
        (the caller's patience), checked between driver steps and
        unrelated to the query's simulated-clock ``deadline``; expiring
        raises :class:`~repro.errors.ResultTimeout` and leaves the query
        pending (``timeout=0`` takes no step).  A settled failure
        re-raises its typed error (:class:`~repro.errors.QueryCancelled`,
        :class:`~repro.errors.DeadlineExceeded`,
        :class:`~repro.errors.RetriesExhausted`, …).
        """
        if not self._scheduler.run_until(self.done, timeout):
            raise ResultTimeout(
                f"query {self.query_id} ({self.handle}) still pending after "
                f"a {timeout}s wall-clock wait; the query itself is "
                f"unaffected (cancel() to stop it)",
                query_id=self.query_id,
                tenant=self.tenant,
                handle=self.handle,
            )
        if self._error is not None:
            raise self._error
        return self._outcome

    def _resolve(
        self, outcome: QueryOutcome | None, error: BaseException | None
    ) -> None:
        self._outcome = outcome
        self._error = error


@dataclass(frozen=True)
class TenantAccount:
    """One tenant's resource ledger, as of the moment it was read.

    A frozen view folded from the tenant's query journals by
    :meth:`Server.tenants` — nothing updates it; read again for newer
    numbers.  Every journal settles into exactly one terminal state, so
    the conservation invariant holds by construction::

        submitted == queries + cancelled + deadline_missed + failed
                     + shed + rejected            (once in_flight == 0)

    ``steps`` counts every morsel the tenant's settled queries consumed,
    *including* attempts that were later cancelled, deadline-missed,
    failed, or retried; ``simulated_seconds`` counts completed queries
    only (it is the currency compared against serial baselines).
    """

    name: str
    weight: float = 1.0
    #: Queries that completed successfully.
    queries: int = 0
    steps: int = 0
    simulated_seconds: float = 0.0
    #: Hard admission failures: max_pending cap, open-breaker fast-fails,
    #: and submissions whose plan could not be instantiated.
    rejected: int = 0
    #: Every submit() attempt, whatever its fate.
    submitted: int = 0
    cancelled: int = 0
    deadline_missed: int = 0
    failed: int = 0
    #: Load-shed submissions (never reached the scheduler).
    shed: int = 0
    #: Server-level retry attempts after retryable faults.
    retries: int = 0
    #: Queries admitted to the scheduler and not yet settled.
    in_flight: int = 0


@dataclass(frozen=True)
class _Admitted:
    """What every attempt of one admitted query shares."""

    prepared: PreparedPlan
    breaker: CircuitBreaker
    future: QueryFuture
    options: RunOptions
    deadline: float | None
    trace: TraceContext
    journal: QueryJournal


def _instant(
    transition: str, at: float = 0.0, trace_id: str = "", span_id: str = "", **who
) -> TraceEvent:
    """One lifecycle transition as a typed zero-length driver event."""
    return TraceEvent(
        rank=DRIVER_RANK,
        kind="lifecycle",
        label=transition,
        start=at,
        end=at,
        trace_id=trace_id,
        span_id=span_id,
        # Attempt spans hang off the root span, whose id is the trace id.
        parent_span_id=trace_id if span_id != trace_id else "",
        detail=LifecycleDetail(transition=transition, **who),
    )


def _lifecycle_instants(journal: QueryJournal) -> Iterator[TraceEvent]:
    """The lifecycle transitions one journal records, as typed instants.

    Retries and every terminal state but ``completed`` are transitions;
    hard rejections (``max_pending``, failed instantiation) are not.
    """
    for entry in tuple(journal.events):
        detail = dict(entry.detail)
        if entry.kind == "retry_scheduled":
            transition, reason = "retry", detail["reason"]
        elif entry.kind != "settled":
            continue
        elif detail["terminal"] in ("cancelled", "deadline_missed", "failed"):
            transition, reason = detail["terminal"], detail["reason"]
        elif detail["terminal"] == "shed":
            transition, reason = "shed", journal.admission_note
        elif detail["reason"].startswith("breaker_"):
            transition = "breaker_rejected"
            reason = detail["reason"].removeprefix("breaker_")
        else:
            continue
        yield _instant(
            transition,
            at=entry.sim_time,
            trace_id=journal.trace_id,
            span_id=entry.span_id,
            query_id=journal.query_id,
            tenant=journal.tenant,
            handle=journal.handle,
            attempt=entry.attempt,
            reason=reason,
        )


class Server:
    """Concurrent multi-query serving over one shared cluster.

    Keeps one :class:`QueryJournal` per submission and nothing else per
    submission: :meth:`tenants`, :meth:`snapshot`,
    :attr:`lifecycle_events` and :meth:`slo_report` are folds over
    :attr:`journals`, computed on read.
    """

    def __init__(
        self,
        cluster: "SimCluster",
        catalog: "Catalog",
        n_workers: int | None = None,
        max_pending: int = 64,
        retry: RetryPolicy | None = None,
        breaker: BreakerConfig | None = None,
        shed_threshold: float = 1.0,
        slo: SLOConfig | None = None,
    ) -> None:
        """Args beyond the obvious:

        Args:
            n_workers: Accepted and ignored.  The server starts no
                thread: a query advances on the threads that wait for
                it (:meth:`QueryFuture.result`, :meth:`run`,
                :meth:`drain`, :meth:`close`).
            retry: Server-level retry budget for queries failing with
                *retryable* faults (:func:`repro.faults.policy.is_retryable`);
                attempt ``k`` re-runs the immutable prepared plan with the
                fault seed bumped by ``k - 1`` and the backoff charged to
                the query's simulated clock (so a ``deadline`` spans
                retries).  ``None`` (default) disables server retries.
            breaker: Per-prepared-plan circuit-breaker knobs; ``None``
                uses :class:`~repro.serving.lifecycle.BreakerConfig`
                defaults.  Breakers are always armed — a healthy plan
                never trips one.
            shed_threshold: Fraction of ``max_pending`` at which load-aware
                shedding starts; in the shed region a tenant at/above its
                weight-proportional slot entitlement is shed.  The default
                of ``1.0`` disables shedding (the hard cap fires first);
                overload-hardened deployments pass e.g. ``0.75``.
            slo: Latency objectives to account against.  When set,
                completed queries slower than their tenant's target — and
                every failed or deadline-missed query — burn the error
                budget (``serving_slo_miss``, :meth:`slo_report`).
                Latency histograms are reported whether or not an SLO is
                armed.
        """
        if max_pending < 1:
            raise ValueError(f"max_pending must be positive, got {max_pending}")
        if not 0.0 < shed_threshold <= 1.0:
            raise ValueError(
                f"shed_threshold must be in (0, 1], got {shed_threshold}"
            )
        self.cluster = cluster
        self.catalog = catalog
        self.max_pending = max_pending
        self.shed_threshold = shed_threshold
        self.retry = retry
        self.breaker_config = breaker if breaker is not None else BreakerConfig()
        self.registry = PlanRegistry()
        #: What the *scheduler* counts
        #: (``serving_submitted/steps/quanta/completed``); the server
        #: itself never writes to it.
        self.metrics = MetricsRegistry()
        #: Owns the tenant weights (``scheduler.fairshare``).
        self.scheduler = Scheduler(metrics=self.metrics)
        self._query_ids = itertools.count(1)
        self.slo = slo
        #: Trace-id allocation counter; separate from ``_query_ids`` so
        #: shed/rejected submissions (which never get a query id) still
        #: get a resolvable trace.
        self._submissions = itertools.count(1)
        #: Every journal ever minted, in submission order.
        self.journals: list[QueryJournal] = []
        self._closed = False
        #: Unsettled futures by query id (for :meth:`cancel` and the
        #: per-tenant in-flight count admission reads).
        self._inflight: dict[int, QueryFuture] = {}
        #: Guards ``journals`` and ``_inflight`` against client threads
        #: submitting while a waiter's step settles a query.
        self._lock = threading.Lock()
        #: Circuit-breaker edges ``(handle, old, new)`` in arrival order —
        #: per handle, not per submission, so no journal holds them.
        self.breaker_transitions: list[tuple[str, str, str]] = []
        self.register_tenant("default", 1.0)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Refuse new submissions and step every pending query to its
        settlement."""
        self._closed = True
        self.drain()

    def drain(self) -> None:
        """Step the run queue on this thread until nothing is pending."""
        self.scheduler.drain()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- tenants & sessions -------------------------------------------------

    def register_tenant(self, name: str, weight: float = 1.0) -> TenantAccount:
        """Create (or re-weight) a tenant's fair-share account."""
        self.scheduler.fairshare.register(name, weight)
        return self.tenant(name)

    def _weights(self, tenant: str) -> dict[str, float]:
        """Every registered tenant's weight; ``tenant`` must be one."""
        weights = self.scheduler.fairshare.weights()
        if tenant not in weights:
            raise AdmissionError(
                f"unknown tenant {tenant!r}; register it (or open a session) first"
            )
        return weights

    def tenant(self, name: str) -> TenantAccount:
        self._weights(name)
        return next(a for a in self.tenants() if a.name == name)

    def tenants(self) -> list[TenantAccount]:
        """Every registered tenant's ledger, folded from the journals."""
        tallies = {
            name: dataclasses.asdict(TenantAccount(name, weight))
            for name, weight in self.scheduler.fairshare.weights().items()
        }
        for journal in self._journals():
            tally, terminal = tallies[journal.tenant], journal.terminal
            tally["submitted"] += 1
            tally["retries"] += journal.retries
            if terminal == "completed":
                tally["queries"] += 1
                tally["simulated_seconds"] += journal.total_seconds
            elif terminal:
                tally[terminal] += 1
            elif journal.query_id >= 0:
                tally["in_flight"] += 1
            tally["steps"] += journal.steps  # zero until the journal settles
        return [TenantAccount(**tallies[name]) for name in sorted(tallies)]

    def session(self, tenant: str = "default", weight: float = 1.0) -> "QuerySession":
        """Open a tenant-bound session (registers the tenant)."""
        self.register_tenant(tenant, weight)
        return QuerySession(self, tenant)

    # -- deploy -------------------------------------------------------------

    def deploy(
        self,
        name: str,
        query,
        join_strategy: str = "exchange",
        defaults: RunOptions | None = None,
    ) -> PreparedPlan:
        """Verify and freeze a query against the server's catalog."""
        return self.registry.deploy(
            name,
            query,
            self.catalog,
            self.cluster,
            join_strategy=join_strategy,
            defaults=defaults,
        )

    # -- run ----------------------------------------------------------------

    def submit(
        self,
        handle: str,
        tenant: str = "default",
        options: RunOptions | None = None,
        deadline: float | None = None,
    ) -> QueryFuture:
        """Admit one run of a deployed plan; returns without taking a step.

        Args:
            deadline: Simulated-seconds budget for the query (the axis of
                ``ExecutionReport.simulated_time``), checked before every
                driver step; the budget spans server-level retries
                (backoff included).  ``None`` means no deadline.

        Raises:
            CircuitOpenError: The plan's circuit breaker has quarantined
                this handle after repeated terminal failures.
            OverloadShedError: Load-aware shedding refused the tenant's
                submission (it already holds its share of in-flight slots).
            AdmissionError: The hard ``max_pending`` bound, or an unknown
                ``handle``/``tenant``.
        """
        if self._closed:
            raise AdmissionError("server is closed")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        weights = self._weights(tenant)
        prepared = self.registry.get(handle)
        # A trace and a journal for *every* submission — shed and
        # rejected ones get an audited fate too.  The trace id is keyed
        # by a dedicated submission counter, not the query id.
        submission = next(self._submissions)
        trace = TraceContext.for_query(submission)
        journal = QueryJournal(
            trace_id=trace.trace_id,
            submission=submission,
            tenant=tenant,
            handle=prepared.handle,
        )
        journal._wall_start = time.perf_counter()
        if deadline is not None:
            journal.note("submitted", deadline=deadline)
        else:
            journal.note("submitted")
        with self._lock:
            self.journals.append(journal)
        breaker = self.registry.breaker_for(
            prepared.handle,
            config=self.breaker_config,
            on_transition=self._on_breaker_transition,
        )
        try:
            breaker.admit()
        except CircuitOpenError as exc:
            self._settle(journal, "rejected", f"breaker_{exc.state}")
            raise
        admitted = False
        try:
            pending = self.scheduler.pending()
            if pending >= self.max_pending:
                self._settle(journal, "rejected", "max_pending")
                raise AdmissionError(
                    f"admission control: {self.max_pending} queries already "
                    f"in flight; retry after a completion"
                )
            # Load-aware shedding starts at this many queries in flight.
            if pending >= max(1, math.ceil(self.shed_threshold * self.max_pending)):
                # Weight-proportional in-flight slot share for the tenant.
                entitlement = max(
                    1,
                    int(self.max_pending * weights[tenant] / sum(weights.values())),
                )
                with self._lock:
                    in_flight = sum(
                        1 for f in self._inflight.values() if f.tenant == tenant
                    )
                if in_flight >= entitlement:
                    journal.admission_note = (
                        f"in_flight={in_flight} >= entitlement={entitlement}"
                    )
                    self._settle(journal, "shed", "overload_shed")
                    raise OverloadShedError(
                        f"overload shedding: {pending}/{self.max_pending} "
                        f"queries in flight and tenant {tenant!r} already "
                        f"holds {in_flight} of its {entitlement} slot(s)",
                        tenant=tenant,
                        in_flight=in_flight,
                        entitlement=entitlement,
                    )
            run_options = options if options is not None else prepared.defaults
            query_id = next(self._query_ids)
            future = QueryFuture(query_id, tenant, prepared.handle, self.scheduler)
            journal.query_id = query_id
            journal.note("admitted", query_id=query_id)
            query = _Admitted(
                prepared, breaker, future, run_options, deadline, trace, journal
            )
            # One task per query; its generator runs every attempt.
            task = QueryTask(
                query_id, tenant, prepared.handle, steps=None,
                on_done=functools.partial(self._complete, query),
            )
            # Build the first attempt before handing anything to the
            # scheduler: contract check + lowering happen now, so submit()
            # fails fast and the scheduler only ever sees runnable work.
            try:
                task.steps = self._attempts(
                    query, task, *self._start_attempt(query, task, 1)
                )
            except BaseException as exc:
                self._settle(journal, "rejected", type(exc).__name__)
                raise
            with self._lock:
                self._inflight[query_id] = future
            self.scheduler.submit(task)
            admitted = True
        finally:
            if not admitted:
                # Release a half-open probe slot the admission gates or a
                # failed instantiation consumed (no-op when closed).
                breaker.abandon()
        return future

    def run(
        self,
        handle: str,
        tenant: str = "default",
        options: RunOptions | None = None,
        timeout: float | None = None,
        deadline: float | None = None,
    ) -> QueryOutcome:
        """Submit, then step the run queue until the query settles."""
        future = self.submit(
            handle, tenant=tenant, options=options, deadline=deadline
        )
        return future.result(timeout)

    def cancel(self, query_id: int) -> bool:
        """Cooperatively cancel an in-flight query by id.

        Returns ``False`` for unknown or already-settled queries.
        """
        with self._lock:
            future = self._inflight.get(query_id)
        if future is None:
            return False
        return future.cancel()

    # -- lifecycle internals ------------------------------------------------

    def _start_attempt(
        self, query: _Admitted, task: QueryTask, number: int, elapsed: float = 0.0
    ) -> tuple["ModularisQuery", ExecutionContext]:
        """Lower attempt ``number`` of ``task``'s query and move the task
        to the attempt's span; returns the lowering and the driver context.

        A retry bumps the fault seed so it does not deterministically
        replay the exact fault sequence that killed the previous attempt;
        faults only ever cost simulated time, so the result stays
        bit-identical whatever seed an attempt runs under.  The context's
        simulated clock is pre-advanced by ``elapsed`` (the earlier
        attempts' time plus the retry backoff), so deadlines and the
        journal's ``total_seconds`` span the whole retry chain.

        Each attempt executes under its own child span of the query's
        trace (``<trace>/aN``); the attempt's execution record is created
        with that span, so everything the attempt records — operator
        spans, substrate events under rank spans (``<trace>/aN/rM``),
        recovery actions — is born linked to the query.
        """
        options, faults = query.options, query.options.faults
        if number > 1 and faults is not None:
            faults = dataclasses.replace(faults, seed=faults.seed + number - 1)
            options = options.replace(faults=faults)
        lowered = query.prepared.instantiate(self.catalog, self.cluster, options)
        task.trace = query.trace.for_attempt(number)
        ctx = ExecutionContext.from_options(options, trace=task.trace)
        if elapsed:
            ctx.clock.advance(elapsed)
        query.journal.note(
            "attempt_started",
            span_id=task.trace.span_id,
            attempt=number,
            sim_time=elapsed,
            carry_steps=task.steps_done,
        )
        return lowered, ctx

    def _attempts(
        self, query: _Admitted, task: QueryTask, lowered, ctx
    ) -> Iterator[int | None]:
        """The query's one stepwise execution: its attempts, in turn.

        Before every driver step — the only preemption points — it makes
        the lifecycle checks, so a cancel or deadline miss never
        interrupts a step mid-flight.  A retryable failure with budget
        left closes the attempt, starts the next one and yields ``None``:
        a pick that did no driver work.  A terminal failure is settled
        where it is raised and propagates to the scheduler.  Returns the
        successful attempt's lowering and report.
        """
        steps = lowered.execution(self.catalog, ctx=ctx)
        while True:
            try:
                self._check_lifecycle(query, task, ctx.clock.now)
                step = next(steps)
            except StopIteration as done:
                return lowered, done.value
            except BaseException as error:  # noqa: BLE001 - settled in _retry
                # Runs the suspended execution's finally blocks (a no-op
                # when the error escaped from inside it).
                steps.close()
                lowered, ctx = self._retry(query, task, error, ctx.clock.now)
                steps, step = lowered.execution(self.catalog, ctx=ctx), None
            yield step

    def _check_lifecycle(self, query: _Admitted, task: QueryTask, elapsed: float) -> None:
        """Raise the cooperative lifecycle verdicts (cancel, deadline).

        Both read deterministic inputs — the future's cancel flag and the
        query's own simulated clock (``elapsed``) — never wall time.
        """
        future, deadline = query.future, query.deadline
        if future.cancelled():
            raise self._cancelled(future, task)
        if deadline is not None and elapsed > deadline:
            raise DeadlineExceeded(
                f"query {future.query_id} ({future.handle!r}) exceeded its "
                f"deadline of {deadline:.6f} simulated seconds "
                f"(elapsed {elapsed:.6f})",
                deadline=deadline,
                elapsed=elapsed,
                query_id=future.query_id,
                tenant=future.tenant,
                handle=future.handle,
            )

    @staticmethod
    def _cancelled(future: QueryFuture, task: QueryTask) -> QueryCancelled:
        return QueryCancelled(
            f"query {future.query_id} ({future.handle!r}) cancelled after "
            f"{task.steps_done} driver step(s)",
            query_id=future.query_id,
            tenant=future.tenant,
            handle=future.handle,
        )

    def _retry(
        self, query: _Admitted, task: QueryTask, error: BaseException, elapsed: float
    ) -> tuple["ModularisQuery", ExecutionContext]:
        """Start the next attempt after ``error`` at simulated time
        ``elapsed``; without one, settle the query and raise.

        A client cancel that landed during the failed step wins over a
        retryable error: the query settles ``cancelled``, not ``failed``.
        """
        retry, number, future = self.retry, task.trace.attempt, query.future
        retryable = retry is not None and is_retryable(error)
        if retryable and future.cancelled():
            cancelled = self._cancelled(future, task)
            cancelled.__cause__ = error
            error = cancelled
        elif retryable and number < retry.max_attempts:
            backoff = retry.backoff(number)
            query.journal.record_backoff(backoff)
            query.journal.note(
                "retry_scheduled",
                span_id=task.trace.span_id,
                attempt=number,
                sim_time=elapsed,
                backoff=backoff,
                reason=type(error).__name__,
            )
            try:
                return self._start_attempt(query, task, number + 1, elapsed + backoff)
            except BaseException as exc:  # noqa: BLE001 - settled below
                error = exc
        elif retryable:
            error = RetriesExhausted(
                f"query {future.query_id} ({future.handle}) failed retryably "
                f"on all {number} attempt(s)",
                query_id=future.query_id,
                tenant=future.tenant,
                handle=future.handle,
                attempts=number,
                last_error=error,
            )
        self._fail(query, task, error, elapsed)
        raise error

    def _complete(
        self, query: _Admitted, task: QueryTask, result, error: BaseException | None
    ) -> None:
        """The task's completion callback: settle a query whose generator
        returned (a failure was settled where it was raised)."""
        if error is not None:
            return
        lowered, report = result
        future, journal, attempt = query.future, query.journal, task.trace.attempt
        try:
            outcome = QueryOutcome(
                query_id=future.query_id,
                tenant=future.tenant,
                handle=future.handle,
                report=report,
                frame=lowered.result_frame(report),
                steps=task.steps_done,
                first_seq=task.first_seq,
                last_seq=task.last_seq,
                journal=journal,
                attempts=attempt,
            )
        except BaseException as exc:  # noqa: BLE001 - via the future
            self._fail(query, task, exc, report.simulated_time)
            return
        query.breaker.record_success()
        journal.note(
            "attempt_finished",
            span_id=task.trace.span_id,
            attempt=attempt,
            sim_time=report.simulated_time,
            steps=task.steps_done,
            rows=len(report.rows),
        )
        self._settle(
            journal,
            "completed",
            task=task,
            sim_time=report.simulated_time,
            result_rows=len(report.rows),
        )
        future._resolve(outcome, None)

    def _fail(
        self, query: _Admitted, task: QueryTask, error: BaseException, sim_time: float
    ) -> None:
        """Settle a query's terminal non-success outcome: classify it,
        feed the breaker, journal it, fail the future."""
        breaker = query.breaker
        if isinstance(error, QueryCancelled):
            kind = "cancelled"
            # Cancellation is a client action, not evidence about the
            # plan: the breaker only releases its probe slot.
            breaker.abandon()
        elif isinstance(error, DeadlineExceeded):
            kind = "deadline_missed"
            # Deadlines are client budgets; a miss does not feed the
            # breaker either (a poisoned plan fails, it does not dawdle).
            breaker.abandon()
        else:
            kind = "failed"
            breaker.record_failure(terminal=True)
        self._settle(
            query.journal, kind, type(error).__name__, task=task, sim_time=sim_time
        )
        query.future._resolve(None, error)

    def _on_breaker_transition(self, handle: str, old: str, new: str) -> None:
        self.breaker_transitions.append((handle, old, new))

    def _settle(
        self,
        journal: QueryJournal,
        terminal: str,
        reason: str = "",
        task: QueryTask | None = None,
        sim_time: float = 0.0,
        result_rows: int = -1,
    ) -> None:
        """Record one submission's fate — the only place it is written.

        ``task`` is the scheduler task of a submission that was admitted,
        under the span of its last attempt; refusals (shed, rejected)
        settle without one.
        """
        span_id, attempt, steps = "", 0, 0
        if task is not None:
            span_id, attempt, steps = task.trace.span_id, task.trace.attempt, task.steps_done
            journal.first_seq = task.first_seq
            journal.last_seq = task.last_seq
            if task.started_wall:
                # Wall-clock admission-to-first-morsel wait.
                journal.queue_wall_seconds = max(
                    0.0, task.started_wall - journal._wall_start
                )
        journal.settle(
            terminal,
            span_id=span_id,
            attempt=attempt,
            sim_time=sim_time,
            steps=steps,
            reason=reason,
            result_rows=result_rows,
        )
        journal.wall_seconds = time.perf_counter() - journal._wall_start
        if task is not None:
            with self._lock:
                self._inflight.pop(task.query_id, None)

    # -- observability: folds over the journals -----------------------------

    def _journals(self) -> list[QueryJournal]:
        with self._lock:
            return list(self.journals)

    @property
    def lifecycle_events(self) -> list[TraceEvent]:
        """Lifecycle transitions as typed :class:`TraceEvent` instants
        (:class:`LifecycleDetail`): per journal in submission order, then
        the untraced circuit-breaker edges."""
        events = [
            event
            for journal in self._journals()
            for event in _lifecycle_instants(journal)
        ]
        events.extend(
            _instant(
                f"breaker_{new.replace('-', '_')}",
                handle=handle,
                reason=f"{old}->{new}",
            )
            for handle, old, new in tuple(self.breaker_transitions)
        )
        return events

    def snapshot(self) -> MetricsSnapshot:
        """The serving metrics as of now: the scheduler's own counters
        plus the server-side ``serving_*`` samples folded from the
        journals (and ``serving_breaker_state`` from the breaker edges)."""
        fold = journal_metrics(self._journals(), self.slo)
        for handle, _old, new in tuple(self.breaker_transitions):
            fold.gauge("serving_breaker_state", handle=handle).set(
                BREAKER_STATE_CODES[new]
            )
        return self.metrics.snapshot().merged(fold.snapshot())

    def slo_report(self) -> SLOReport:
        """SLO accounting over the journals (against the default
        :class:`SLOConfig` when none is armed)."""
        return build_slo_report(self._journals(), self.slo)


class QuerySession:
    """A tenant-bound view of a :class:`Server` (deploy → run)."""

    def __init__(self, server: Server, tenant: str) -> None:
        self.server = server
        self.tenant = tenant

    def deploy(
        self,
        name: str,
        query,
        join_strategy: str = "exchange",
        defaults: RunOptions | None = None,
    ) -> PreparedPlan:
        return self.server.deploy(
            name, query, join_strategy=join_strategy, defaults=defaults
        )

    def submit(
        self,
        handle: str,
        options: RunOptions | None = None,
        deadline: float | None = None,
    ) -> QueryFuture:
        return self.server.submit(
            handle, tenant=self.tenant, options=options, deadline=deadline
        )

    def run(
        self,
        handle: str,
        options: RunOptions | None = None,
        timeout: float | None = None,
        deadline: float | None = None,
    ) -> QueryOutcome:
        return self.server.run(
            handle,
            tenant=self.tenant,
            options=options,
            timeout=timeout,
            deadline=deadline,
        )

    def account(self) -> TenantAccount:
        return self.server.tenant(self.tenant)
