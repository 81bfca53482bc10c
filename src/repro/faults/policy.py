"""Fault policies: *what* chaos to inject, declared up front.

A :class:`FaultPolicy` is an immutable, seed-driven description of the
faults one execution should suffer: transient one-sided-put and collective
failures (a drop probability per operation), delayed ("straggler") ranks
with a configurable slowdown factor, one hard rank crash at a chosen
trigger point, and a memory-pressure flag that degrades broadcast joins to
the shuffle-join plan.  The policy also carries the *recovery* knobs: the
retry-with-backoff budget for transient faults and the number of
pipeline-stage re-executions the driver may attempt after a crash.

Policies are pure data — all mutable bookkeeping (which faults already
fired, per-rank RNG streams) lives in
:class:`~repro.faults.injector.FaultInjector`, created once per plan
execution.  Two executions with the same policy (same seed) inject the
same fault sequence, and because faults only ever cost *time* (retries,
re-executions), never mutate data, results stay bit-identical to a
fault-free run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TypeCheckError

__all__ = [
    "CHAOS_PROFILES",
    "RetryPolicy",
    "StragglerFault",
    "CrashFault",
    "FaultPolicy",
    "chaos_policy",
    "is_retryable",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff budget for transient comm faults.

    Attempt ``k`` (1-based) that fails transiently waits
    ``backoff_base * backoff_multiplier**(k-1)`` simulated seconds before
    re-trying; once ``max_attempts`` attempts have failed the operation
    raises :class:`~repro.errors.RetryBudgetExceeded`.
    """

    max_attempts: int = 6
    backoff_base: float = 50e-6
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise TypeCheckError(
                f"retry budget needs >= 1 attempt, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_multiplier < 1.0:
            raise TypeCheckError(
                "backoff must be non-negative and non-decreasing, got "
                f"base={self.backoff_base}, multiplier={self.backoff_multiplier}"
            )

    def backoff(self, attempt: int) -> float:
        """Simulated seconds to wait after failed attempt ``attempt`` (1-based)."""
        return self.backoff_base * self.backoff_multiplier ** (attempt - 1)


@dataclass(frozen=True)
class StragglerFault:
    """One rank runs its CPU-bound work ``slowdown`` times slower.

    Implemented as a multiplier on the rank's clock jitter factor, so the
    delay compounds naturally into collective stalls — the tail-latency
    effect the paper observes, dialed up on demand.
    """

    rank: int
    slowdown: float = 4.0

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise TypeCheckError(f"straggler rank must be >= 0, got {self.rank}")
        if self.slowdown < 1.0:
            raise TypeCheckError(
                f"straggler slowdown must be >= 1, got {self.slowdown}"
            )


@dataclass(frozen=True)
class CrashFault:
    """Hard-kill one rank at a deterministic trigger point.

    The crash fires at a communication operation (one-sided put or
    collective) on the chosen rank — the points where a real crashed
    process becomes visible to its peers:

    * ``after_comm_ops=k``: at the rank's ``k``-th comm operation;
    * ``at_time=t``: at the first comm operation at/after simulated time
      ``t`` on that rank's clock (an operator-span trigger: pick ``t``
      from a profiled run's span boundaries).

    A non-``permanent`` crash fires once per execution — re-executing the
    stage succeeds, modeling a process restart.  A ``permanent`` crash
    re-fires on every attempt; recovery must degrade to the survivors.
    """

    rank: int
    after_comm_ops: int | None = None
    at_time: float | None = None
    permanent: bool = False

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise TypeCheckError(f"crash rank must be >= 0, got {self.rank}")
        if self.after_comm_ops is None and self.at_time is None:
            raise TypeCheckError(
                "a CrashFault needs a trigger: after_comm_ops or at_time"
            )
        if self.after_comm_ops is not None and self.after_comm_ops < 1:
            raise TypeCheckError(
                f"after_comm_ops must be >= 1, got {self.after_comm_ops}"
            )


@dataclass(frozen=True)
class FaultPolicy:
    """Everything one execution's chaos is allowed to do.

    Args:
        seed: Root seed of the injector's per-(job, attempt, rank) RNG
            streams; the same policy injects the same fault sequence on
            every run of the same plan.
        put_drop_rate: Probability that one network put fails in transit
            (self-puts never fail; they are local memcpys).
        collective_drop_rate: Probability that one rank's contribution to
            a collective is lost and must be re-sent.
        retry: Backoff budget for the transient faults above.
        stragglers: Ranks to slow down, and by how much.
        crash: At most one hard rank crash per execution.
        memory_pressure: Simulate build-side memory pressure: lowering a
            query with this policy refuses the broadcast-join strategy and
            falls back to the shuffle (exchange) join plan.
        max_stage_retries: Pipeline-stage re-executions the driver may
            attempt after a crash or an exhausted retry budget before
            giving up.
    """

    seed: int = 2021
    put_drop_rate: float = 0.0
    collective_drop_rate: float = 0.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    stragglers: tuple[StragglerFault, ...] = ()
    crash: CrashFault | None = None
    memory_pressure: bool = False
    max_stage_retries: int = 2

    def __post_init__(self) -> None:
        for name in ("put_drop_rate", "collective_drop_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise TypeCheckError(f"{name} must be in [0, 1), got {rate}")
        if self.max_stage_retries < 0:
            raise TypeCheckError(
                f"max_stage_retries must be >= 0, got {self.max_stage_retries}"
            )
        # Accept any iterable of stragglers but store a canonical tuple.
        object.__setattr__(self, "stragglers", tuple(self.stragglers))
        seen = [s.rank for s in self.stragglers]
        if len(seen) != len(set(seen)):
            raise TypeCheckError(f"duplicate straggler ranks: {sorted(seen)}")

    @property
    def injects_anything(self) -> bool:
        """False for a policy that can never fire (armed but idle)."""
        return bool(
            self.put_drop_rate
            or self.collective_drop_rate
            or self.stragglers
            or self.crash is not None
            or self.memory_pressure
        )

    # -- named profiles ------------------------------------------------------
    #
    # The chaos soaks (``repro chaos``, ``repro serve``) name their fault
    # mixes; these constructors are the single place those names resolve,
    # so a "crash" soak in the serving layer and in the single-query chaos
    # CLI mean the same injection.

    @classmethod
    def transient(cls, seed: int = 2021, rate: float = 0.05, **kwargs) -> "FaultPolicy":
        """Transient-only chaos: dropped puts/collectives, retried in-substrate."""
        return cls(
            seed=seed, put_drop_rate=rate, collective_drop_rate=rate, **kwargs
        )

    @classmethod
    def with_crash(
        cls,
        seed: int = 2021,
        rank: int = 1,
        after_comm_ops: int = 4,
        permanent: bool = False,
        **kwargs,
    ) -> "FaultPolicy":
        """One hard rank crash; stage recovery (or n-1 degrade) must heal it."""
        return cls(
            seed=seed,
            crash=CrashFault(
                rank=rank, after_comm_ops=after_comm_ops, permanent=permanent
            ),
            **kwargs,
        )

    @classmethod
    def with_stragglers(
        cls,
        seed: int = 2021,
        rank: int = 1,
        slowdown: float = 4.0,
        **kwargs,
    ) -> "FaultPolicy":
        """One delayed rank: compute-bound work runs ``slowdown``x slower."""
        return cls(
            seed=seed, stragglers=(StragglerFault(rank=rank, slowdown=slowdown),),
            **kwargs,
        )


#: The fault mixes a serving soak (``repro serve``/``repro slo``) can run
#: under, resolved by :func:`chaos_policy`:
#:
#: * ``none`` — no injection.
#: * ``transient`` — dropped puts/collectives, healed by substrate retry.
#: * ``crash`` — one rank hard-crash per execution, healed by driver
#:   stage re-execution.
#: * ``straggler`` — one delayed rank (tail-latency pressure; no failures).
#: * ``flaky`` — transient drops with the substrate budgets zeroed out, so
#:   failures escape to the *server's* retry loop (configure server
#:   retries or queries fail terminally).
CHAOS_PROFILES = ("none", "transient", "crash", "straggler", "flaky")


def chaos_policy(profile: str, seed: int) -> FaultPolicy | None:
    """Resolve a chaos profile name to its fault policy."""
    if profile == "none":
        return None
    if profile == "transient":
        return FaultPolicy.transient(seed=seed, rate=0.05)
    if profile == "crash":
        return FaultPolicy.with_crash(seed=seed)
    if profile == "straggler":
        return FaultPolicy.with_stragglers(seed=seed)
    if profile == "flaky":
        # Substrate retry budgets zeroed: the first dropped operation
        # escapes to the server, whose retry loop (fresh fault seed per
        # attempt) is the only thing standing between it and a terminal
        # failure.
        return FaultPolicy.transient(
            seed=seed,
            rate=0.05,
            retry=RetryPolicy(max_attempts=1),
            max_stage_retries=0,
        )
    raise ValueError(f"unknown chaos profile {profile!r}")


def is_retryable(error: BaseException) -> bool:
    """Whether a failed query may be re-run from its immutable prepared plan.

    Injected faults (:class:`~repro.errors.FaultInjectionError`) model
    environmental failures — a clean re-execution can succeed, so the
    serving layer's retry loop re-submits them with fresh fault seeds.
    Everything else (plan bugs, contract violations, lifecycle outcomes
    like cancellation or a missed deadline) is terminal: retrying cannot
    change the verdict, and terminal failures are what trip a prepared
    plan's circuit breaker.
    """
    from repro.errors import FaultInjectionError, ServingError

    if isinstance(error, ServingError):
        return False
    return isinstance(error, FaultInjectionError)
