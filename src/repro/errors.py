"""Exception hierarchy for the Modularis reproduction.

Every error raised by the library derives from :class:`ModularisError` so
applications can catch library failures with a single ``except`` clause while
still being able to distinguish planning mistakes (bad schemas, malformed
plans) from runtime failures (cardinality mismatches, simulation faults).
"""

from __future__ import annotations


class ModularisError(Exception):
    """Base class for all errors raised by this library."""


class TypeCheckError(ModularisError):
    """A plan failed static type checking.

    Raised by an operator's type rule
    (:meth:`repro.core.operator.Operator.infer_type`), e.g. when an operator
    receives upstream tuples whose structure does not match what the
    operator requires (a ``BuildProbe`` whose sides share non-key field
    names, a ``Projection`` of a field that does not exist, ...).  The same
    rule runs while *building* the plan, where the error is raised, and over
    the finished plan, where the static analyzer reports it under
    :attr:`rule_id` (``docs/static_analysis.md``).
    """

    def __init__(self, message: str, rule_id: str = "MOD002") -> None:
        super().__init__(message)
        self.rule_id = rule_id


class PlanError(ModularisError):
    """A plan is structurally malformed (cycles, missing upstreams, ...)."""

    #: The analyzer rule a malformed plan is reported under.
    rule_id = "MOD001"


class PlanVerificationError(PlanError):
    """The static analyzer found error-severity diagnostics in a plan.

    Raised by :func:`repro.analysis.verify` (and by the executor when
    ``verify_plans`` is enabled) *before* any data flows.  The offending
    findings are kept on :attr:`diagnostics`.
    """

    def __init__(self, message: str, diagnostics: list) -> None:
        super().__init__(message)
        self.diagnostics = diagnostics


class ExecutionError(ModularisError):
    """A plan failed while executing.

    Examples: a ``Zip`` whose upstreams yield different numbers of tuples
    (a *runtime* error per the paper), or a nested plan that does not end in
    ``MaterializeRowVector``.
    """


class SimulationError(ModularisError):
    """The simulated MPI/RDMA substrate detected an illegal operation.

    Examples: a one-sided ``put`` outside the registered window bounds,
    overlapping exclusive regions (which would be a data race on real RDMA
    hardware), or mismatched collective calls across ranks.
    """


class MpiSemanticsError(SimulationError):
    """The substrate refused a put (MOD050) or a collective (MOD051).

    ``kind`` names the check: ``type``, ``bounds`` or ``race`` of a put;
    ``mismatch``, ``twice`` or ``deadlock`` of a collective.  ``ranks``
    lists the refused operation's rank first (a race adds the earlier
    writer, a mismatch the first issuer; a deadlock lists the parked
    ranks), and ``origins`` what the substrate recorded with each: the
    issuing operator on sanitized runs, which the sanitizer then names in
    a ``SanitizerError``, else ``None``.  ``owner_rank`` and ``rows`` (of
    the put, or of the overlap) describe a put; ``call_index`` and
    ``tags`` (one per rank) a collective.  ``detail`` is the message
    without the rule id.
    """

    def __init__(
        self,
        rule_id: str,
        kind: str,
        detail: str,
        ranks: tuple,
        origins: tuple,
        owner_rank: int = -1,
        rows: tuple[int, int] | None = None,
        call_index: int = -1,
        tags: tuple[str, ...] = (),
    ) -> None:
        super().__init__(f"{rule_id}: {detail}")
        self.rule_id = rule_id
        self.kind = kind
        self.detail = detail
        self.ranks = ranks
        self.origins = origins
        self.owner_rank = owner_rank
        self.rows = rows
        self.call_index = call_index
        self.tags = tags


class FaultInjectionError(SimulationError):
    """Base class of failures *injected* by :mod:`repro.faults`.

    Distinguishes deliberate chaos (which the recovery machinery may
    tolerate) from genuine substrate violations, which always abort.
    """


class RetryBudgetExceeded(FaultInjectionError):
    """A transient comm fault persisted past the retry budget.

    The failed operation was retried with exponential backoff up to
    ``RetryPolicy.max_attempts`` times and never went through; the stage
    aborts, and pipeline-level recovery (if enabled) re-executes it.

    Attributes:
        sim_time: Simulated time on the raising rank when the budget ran
            out (the driver charges this as wasted work on recovery).
    """

    def __init__(self, message: str, sim_time: float = 0.0) -> None:
        super().__init__(message)
        self.sim_time = sim_time


class RankCrashError(FaultInjectionError):
    """An injected hard crash of one rank.

    Aborts the whole MPI job (peers are woken from collectives);
    ``MpiExecutor`` recovers by re-executing the failed pipeline stage
    from its checkpoints, or — for ``permanent`` crashes — by re-sharding
    the work onto the surviving ranks.

    Attributes:
        rank: The rank that crashed.
        sim_time: Simulated time on that rank at the crash.
        permanent: Whether the rank stays dead (recovery must degrade to
            the survivors instead of retrying at full width).
    """

    def __init__(
        self, message: str, rank: int, sim_time: float = 0.0, permanent: bool = False
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.sim_time = sim_time
        self.permanent = permanent


class CatalogError(ModularisError):
    """A storage/catalog operation referenced an unknown or duplicate table."""


class ServingError(ModularisError):
    """Base class of serving-layer failures (:mod:`repro.serving`)."""


class AdmissionError(ServingError):
    """The server refused to admit a query.

    Raised when the pending-queue bound of the admission controller is
    reached (back-pressure: the caller should retry later) or when the
    submission references an unknown tenant or plan handle.
    """


class SchemaContractError(ServingError):
    """A deployed plan was run against data violating its schema contract.

    A :class:`~repro.serving.registry.PreparedPlan` freezes the table
    schemas it was verified against at deploy time; running it on a
    catalog whose tables are missing or shaped differently is refused
    before any data flows.
    """


class QueryLifecycleError(ServingError):
    """Base of per-query lifecycle failures in the serving layer.

    Carries enough context (query id, tenant, plan handle) to file the
    failure against the right tenant ledger without re-deriving it from
    the server's internal state.
    """

    def __init__(
        self, message: str, query_id: int = -1, tenant: str = "", handle: str = ""
    ) -> None:
        super().__init__(message)
        self.query_id = query_id
        self.tenant = tenant
        self.handle = handle


class QueryCancelled(QueryLifecycleError):
    """A query was cooperatively cancelled between driver steps.

    Raised out of :meth:`QueryFuture.result` after
    :meth:`QueryFuture.cancel` / :meth:`Server.cancel` took effect.  The
    cancelled query's consumed driver steps are settled into its tenant's
    ledger as a ``cancelled`` outcome; no result frame exists.
    """


class DeadlineExceeded(QueryLifecycleError):
    """A query overran its simulated-time deadline.

    Deadlines are budgets on the *simulated* clock (the same axis as
    ``ExecutionReport.simulated_time``), enforced cooperatively before
    every driver step — never against wall time, so the set of
    deadline misses is deterministic for a given seed and configuration.
    The budget spans server-level retries: backoff and prior attempts'
    elapsed simulated time count against it.

    Attributes:
        deadline: The simulated-seconds budget the query was given.
        elapsed: Simulated seconds consumed when the miss was detected.
    """

    def __init__(
        self,
        message: str,
        query_id: int = -1,
        tenant: str = "",
        handle: str = "",
        deadline: float = 0.0,
        elapsed: float = 0.0,
    ) -> None:
        super().__init__(message, query_id=query_id, tenant=tenant, handle=handle)
        self.deadline = deadline
        self.elapsed = elapsed


class ResultTimeout(QueryLifecycleError, TimeoutError):
    """``QueryFuture.result(timeout=...)`` expired before the outcome.

    This is a *wall-clock* wait bound on the calling thread, not a
    statement about the query: the query keeps running (use
    :meth:`QueryFuture.cancel` to stop it).  Contrast with
    :class:`DeadlineExceeded`, which is a simulated-clock budget enforced
    by the scheduler.  Subclasses :class:`TimeoutError` so pre-existing
    ``except TimeoutError`` call sites keep working.
    """


class RetriesExhausted(QueryLifecycleError):
    """Server-level retry gave up on a query that kept failing retryably.

    Every attempt failed with a retryable fault
    (:class:`FaultInjectionError`); the attempt budget ran out.  The last
    underlying error is chained as ``__cause__`` and kept on
    :attr:`last_error`.  Counts as a *terminal* failure for the plan's
    circuit breaker.

    Attributes:
        attempts: Total attempts made (including the first).
        last_error: The final attempt's failure.
    """

    def __init__(
        self,
        message: str,
        query_id: int = -1,
        tenant: str = "",
        handle: str = "",
        attempts: int = 0,
        last_error: BaseException | None = None,
    ) -> None:
        super().__init__(message, query_id=query_id, tenant=tenant, handle=handle)
        self.attempts = attempts
        self.last_error = last_error
        if last_error is not None:
            self.__cause__ = last_error


class CircuitOpenError(ServingError):
    """A submission fast-failed because its plan's circuit breaker is open.

    After K consecutive terminal failures a prepared plan's handle is
    quarantined: new submissions fail immediately (this error) instead of
    wasting scheduler time on a poisoned plan.  After a cooldown the
    breaker half-opens and admits a single probe; redeploying the name
    yields a fresh handle with a fresh (closed) breaker.

    Attributes:
        handle: The quarantined ``name@vN`` handle.
        state: Breaker state at rejection (``open`` or ``half-open``).
    """

    def __init__(self, message: str, handle: str = "", state: str = "open") -> None:
        super().__init__(message)
        self.handle = handle
        self.state = state


class OverloadShedError(AdmissionError):
    """A submission was shed by load-aware admission control.

    Distinct from the hard ``max_pending`` bound: shedding starts below
    the hard cap and is *selective* — a tenant already holding at least
    its weight-proportional share of the in-flight slots is shed first,
    so a flooding tenant cannot starve a well-behaved one.  The shed is
    recorded in the tenant's ledger; the query never reaches the
    scheduler.

    Attributes:
        tenant: The tenant whose submission was shed.
        in_flight: The tenant's in-flight queries at the decision.
        entitlement: The tenant's weight-proportional slot entitlement.
    """

    def __init__(
        self,
        message: str,
        tenant: str = "",
        in_flight: int = 0,
        entitlement: int = 0,
    ) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.in_flight = in_flight
        self.entitlement = entitlement
