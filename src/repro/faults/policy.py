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

The soaks and the differential oracle name their fault mixes
(``transient``, ``crash``, ...); :func:`fault_profile` is the one place
those names resolve to policies.
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
    "fault_profile",
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
        if self.seed < 0:
            raise TypeCheckError(f"fault seed must be >= 0, got {self.seed}")
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


#: The named fault mixes every soak and the oracle run under, each a
#: ``(seed, last rank) -> FaultPolicy | None`` resolved by
#: :func:`fault_profile`.  A fault aimed at one rank hits the cluster's
#: last rank, so it exists at every cluster size.
_DROPS = {"put_drop_rate": 0.05, "collective_drop_rate": 0.05}
_PROFILES = {
    # No injection.
    "none": lambda seed, last: None,
    # Dropped puts/collectives, healed by substrate retry.
    "transient": lambda seed, last: FaultPolicy(seed=seed, **_DROPS),
    # One hard crash per execution, healed by stage re-execution.
    "crash": lambda seed, last: FaultPolicy(
        seed=seed, crash=CrashFault(rank=last, after_comm_ops=4)
    ),
    # A crash on every attempt: recovery degrades to the n-1 survivors.
    "degrade": lambda seed, last: FaultPolicy(
        seed=seed, crash=CrashFault(rank=last, after_comm_ops=4, permanent=True)
    ),
    # One delayed rank (tail-latency pressure; no failures).
    "straggler": lambda seed, last: FaultPolicy(
        seed=seed, stragglers=(StragglerFault(rank=last, slowdown=4.0),)
    ),
    # Broadcast joins are planned as exchange joins.
    "pressure": lambda seed, last: FaultPolicy(seed=seed, memory_pressure=True),
    # Transient drops with the substrate budgets zeroed: the first dropped
    # operation escapes to the serving layer's retry loop (fresh fault seed
    # per attempt), or fails the query where there is none.
    "flaky": lambda seed, last: FaultPolicy(
        seed=seed, **_DROPS, retry=RetryPolicy(max_attempts=1), max_stage_retries=0
    ),
}
CHAOS_PROFILES = tuple(_PROFILES)


def fault_profile(name: str, seed: int, ranks: int) -> FaultPolicy | None:
    """The policy chaos profile ``name`` injects on a ``ranks``-rank cluster.

    Raises :class:`ValueError` on an unknown name, and on a profile that
    cannot heal on ``ranks``: a permanent crash needs a survivor.
    """
    if name not in _PROFILES:
        raise ValueError(
            f"unknown chaos profile {name!r}; pick one of {CHAOS_PROFILES}"
        )
    policy = _PROFILES[name](seed, ranks - 1)
    crash = getattr(policy, "crash", None)
    if crash is not None and crash.permanent and ranks < 2:
        raise ValueError(
            f"chaos profile {name!r} crashes a rank for good and needs a "
            f"survivor; the cluster has {ranks} rank"
        )
    return policy


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
