"""One run queue, stepped by the threads that wait on it; stride fair-share.

The driver/executor split gives every admitted query a *stepwise*
execution generator (:func:`repro.core.executor.execution_steps` via
:meth:`ModularisQuery.execution`): each ``next()`` advances the query by
one driver step.  That makes the driver step the preemption unit — "The
Case for Deep Query Optimisation" argues morsel granularity is the right
level for exactly this kind of scheduling — and lets the driver
interleave arbitrarily many queries without threads-per-query or
cooperative timeouts.

The scheduler starts no thread.  As in the paper, the driver runs on
the caller's own machine: a thread waiting for a query
(:meth:`Scheduler.run_until`, behind ``QueryFuture.result``,
``Server.run``, ``drain`` and ``close``) steps the run queue until what
it waits for has settled.  A query therefore advances only while some
thread waits on the server.  Each step:

* pops the task whose tenant has the lowest stride pass (fair share),
  the first in queue order among equals;
* advances that task by exactly one driver step;
* puts it back at the tail or finishes it (resolving its future).

A task is a whole query, retries included: the server's generator
runs them one after another and makes the query's own lifecycle checks
before each driver step, so the scheduler only picks, steps, charges
and records.

Every pick takes the next number of one step-sequence counter: it is
the :attr:`SchedulerEvent.seq` of that pick and widens the task's
``[first_seq, last_seq]`` span, so events and query spans share one axis.

One step runs at a time, whichever thread runs it, so a generator is
never advanced by two threads at once — generators need no locking
under that discipline.  Each query's execution owns a
private context/clock and every ``SimCluster.run`` call builds a fresh
``CommWorld``, so interleavings cannot affect results (asserted
bit-identical by the soak tests).

Fair share is stride scheduling over *tenants*: tenant weight ``w`` gives
stride ``1/w``; every driver step executed on a tenant's behalf advances
its pass by its stride, and every pick favors the lowest pass.  A starved
tenant's pass falls behind, so its next runnable task wins every pick
until it catches up — no tenant can be starved beyond its weight.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.metrics import MetricsRegistry

__all__ = ["QueryTask", "SchedulerEvent", "Scheduler", "FairShare"]


class FairShare:
    """Stride-scheduling accounts, one per tenant."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._weights: dict[str, float] = {}
        self._passes: dict[str, float] = {}

    def register(self, tenant: str, weight: float = 1.0) -> None:
        if weight <= 0:
            raise ValueError(f"tenant weight must be positive, got {weight}")
        with self._lock:
            self._weights[tenant] = float(weight)
            # Join at the current minimum pass so a new tenant neither
            # monopolizes (pass 0 while others are far ahead) nor waits.
            floor = min(self._passes.values(), default=0.0)
            self._passes.setdefault(tenant, floor)

    def charge(self, tenant: str, steps: int) -> None:
        """Advance ``tenant``'s pass by ``steps`` driver steps of work."""
        with self._lock:
            weight = self._weights.get(tenant, 1.0)
            self._passes[tenant] = self._passes.get(tenant, 0.0) + steps / weight

    def pass_of(self, tenant: str) -> float:
        with self._lock:
            return self._passes.get(tenant, 0.0)

    def weight_of(self, tenant: str) -> float:
        with self._lock:
            return self._weights.get(tenant, 1.0)

    def weights(self) -> dict[str, float]:
        """Every registered tenant's weight (a copy)."""
        with self._lock:
            return dict(self._weights)


@dataclass
class QueryTask:
    """One admitted query riding the scheduler, from its first pick to
    its settlement (every retry included)."""

    query_id: int
    tenant: str
    label: str
    #: The stepwise execution; ``StopIteration.value`` is its result.  A
    #: yielded ``None`` is a pick that did no driver work (the server's
    #: generator yields one when it starts a retry).
    steps: Iterator[int | None]
    #: Driver steps executed so far, over every retry, so tenant
    #: ledgers account every step the query consumed.
    steps_done: int = 0
    #: Step-sequence numbers of the first/last pick (for interleaving
    #: evidence); -1 until the first pick.
    first_seq: int = -1
    last_seq: int = -1
    #: Completion callback(task, result, error) installed by the server.
    on_done: Any = None
    #: The :class:`~repro.observability.tracing.TraceContext` of the run
    #: in progress (``None`` for tasks submitted without a server); the
    #: server moves it to a retry's child span, and each pick's
    #: scheduler event carries the ids the task held when the pick began.
    trace: Any = None
    #: Wall-clock instant of the task's first pick (0.0 until then); the
    #: server derives journal queue-wait from it.
    #: Informational only — never an input to lifecycle decisions.
    started_wall: float = 0.0
    error: BaseException | None = None
    done: bool = False

    def finish(self, result=None, error: BaseException | None = None) -> None:
        self.error = error
        self.done = True
        if self.on_done is not None:
            self.on_done(self, result, error)


@dataclass(frozen=True)
class SchedulerEvent:
    """One pick in the scheduler trace: who ran what, when, how far.

    The trace is the serving analogue of the execution profiler's span
    list — ``repro serve`` prints it and the soak tests assert on it to
    prove queries actually interleaved (events of different queries
    overlap in sequence order) rather than ran back-to-back.
    """

    seq: int
    query_id: int
    tenant: str
    label: str
    #: Driver steps the pick counted: 1, or 0 when the task failed (a
    #: lifecycle verdict included) or started a retry instead of
    #: stepping.
    steps: int
    #: Causal link to the query this pick advanced, under the child span
    #: of the run it stepped; empty for tasks submitted without a server.
    trace_id: str = ""
    span_id: str = ""


class Scheduler:
    """Interleave stepwise query executions on the threads that wait."""

    def __init__(
        self,
        metrics: "MetricsRegistry | None" = None,
        fairshare: FairShare | None = None,
    ) -> None:
        self.metrics = metrics
        self.fairshare = fairshare if fairshare is not None else FairShare()
        #: Runnable tasks in admission order; a stepped task rejoins at
        #: the tail.
        self._queue: list[QueryTask] = []
        #: Guards the queue, the in-flight count and the trace.  Never
        #: held across a driver step, so ``submit`` and ``pending`` never
        #: wait behind one.
        self._lock = threading.Lock()
        #: Held across one pick, its driver step and its record: one
        #: driver step runs at a time, whichever thread runs it.
        self._stepping = threading.Lock()
        self._in_flight = 0
        self._seq = itertools.count()
        #: One event per pick, in pick order.
        self.trace: list[SchedulerEvent] = []

    # -- submission ---------------------------------------------------------

    def submit(self, task: QueryTask) -> None:
        """Admit a task to the tail of the run queue."""
        self.fairshare.register(task.tenant, self.fairshare.weight_of(task.tenant))
        with self._lock:
            self._queue.append(task)
            self._in_flight += 1
            if self.metrics is not None:
                self.metrics.counter("serving_submitted", tenant=task.tenant).inc()

    def pending(self) -> int:
        """Tasks admitted but not yet completed (queued or mid-step)."""
        with self._lock:
            return self._in_flight

    # -- stepping -----------------------------------------------------------

    def run_until(
        self, done: Callable[[], bool], timeout: float | None = None
    ) -> bool:
        """Step the run queue on the calling thread until ``done()`` holds.

        ``timeout`` bounds the wait in wall-clock seconds; it is checked
        between steps, so ``0`` takes no step.  Returns ``False`` if it
        expired first.
        """
        end = None if timeout is None else time.perf_counter() + timeout
        while not done():
            wait = -1.0 if end is None else end - time.perf_counter()
            if end is not None and wait <= 0:
                return False
            if not self._stepping.acquire(timeout=wait):
                return False
            try:
                if not done() and not self._step_next():
                    raise RuntimeError("nothing runnable, yet the wait is not over")
            finally:
                self._stepping.release()
        return True

    def drain(self) -> None:
        """Step until every submitted task has completed."""
        self.run_until(lambda: self.pending() == 0)

    def _step_next(self) -> bool:
        """Pick, step and record one task; ``False`` if none is queued."""
        with self._lock:
            if not self._queue:
                return False
            # A linear pass is fine: the queue is bounded by admission
            # control, and ``min`` keeps the first of equal passes.
            index = min(
                range(len(self._queue)),
                key=lambda i: self.fairshare.pass_of(self._queue[i].tenant),
            )
            task = self._queue.pop(index)
            seq = next(self._seq)
        if task.first_seq < 0:
            task.first_seq, task.started_wall = seq, time.perf_counter()
        task.last_seq = seq
        trace, steps = task.trace, 0
        try:
            steps = self._step(task)
        finally:
            self._record(seq, task, steps, trace)
        return True

    def _step(self, task: QueryTask) -> int:
        """Advance ``task`` by one driver step; returns the steps counted."""
        try:
            step = next(task.steps)
        except StopIteration as done:
            # The final next() still performed driver work (result harvest,
            # snapshotting); count it as a step for fair-share purposes.
            task.steps_done += 1
            task.finish(result=done.value)
            return 1
        except BaseException as exc:  # noqa: BLE001 - delivered via the future
            # Close the suspended generator so its finally blocks run (it
            # is a no-op when the error escaped from inside the generator).
            task.steps.close()
            task.finish(error=exc)
            return 0
        if step is None:
            return 0
        task.steps_done += 1
        return 1

    def _record(self, seq: int, task: QueryTask, steps: int, trace) -> None:
        """Charge and trace one pick under the ``trace`` it began with,
        then requeue or retire its task."""
        self.fairshare.charge(task.tenant, steps)
        with self._lock:
            self.trace.append(
                SchedulerEvent(
                    seq=seq,
                    query_id=task.query_id,
                    tenant=task.tenant,
                    label=task.label,
                    steps=steps,
                    trace_id=trace.trace_id if trace is not None else "",
                    span_id=trace.span_id if trace is not None else "",
                )
            )
            if self.metrics is not None:
                # These counters are the scheduler's own observations —
                # the independent witness the soak checks the query
                # journals against.
                self.metrics.counter("serving_steps", tenant=task.tenant).add(steps)
                self.metrics.counter("serving_quanta").inc()
                if task.done and task.error is None:
                    # Success only; every other outcome is classified and
                    # counted by the server when it settles the query.
                    self.metrics.counter(
                        "serving_completed", tenant=task.tenant
                    ).inc()
            if task.done:
                self._in_flight -= 1
            else:
                self._queue.append(task)
