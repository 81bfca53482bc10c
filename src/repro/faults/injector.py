"""The deterministic fault injector: *when* the policy's chaos fires.

One :class:`FaultInjector` is created per plan execution (under
``RunOptions(faults=...)``) and carries all mutable fault state across
every MPI job — and every recovery re-execution — that execution runs:

* a job/attempt counter, so each dispatch draws from a fresh but
  reproducible RNG stream (retrying a stage does not replay the exact
  same transient faults, which would make retries pointless);
* the crash ledger: a non-permanent :class:`~repro.faults.policy.CrashFault`
  fires exactly once per execution, so the stage re-execution succeeds —
  a permanent one re-fires until the driver degrades to the survivors.

The decisions are pure functions of ``(policy.seed, job, attempt, rank,
stream, draw index)`` — never of thread timing — so a given plan under a
given policy experiences the same fault sequence on every run.  Faults
cost simulated time only; they never touch data, which is what makes the
chaos soak's bit-identical-results assertion possible.

The substrate hooks (:mod:`repro.mpi.comm`) talk to per-rank
:class:`RankFaults` handles and own all event recording and raising; this
module only decides.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.errors import RankCrashError
from repro.faults.policy import CrashFault, FaultPolicy

__all__ = ["FaultInjector", "JobFaults", "RankFaults"]

#: Stream discriminators for the per-rank RNGs (kept distinct so put and
#: collective draws never interleave into one stream).
_PUT_STREAM = 0
_COLLECTIVE_STREAM = 1


class FaultInjector:
    """Per-execution fault state shared by every MPI job of one plan run."""

    def __init__(self, policy: FaultPolicy) -> None:
        self.policy = policy
        self._jobs = 0
        self._crash_fired = False

    def job(self, n_ranks: int) -> "JobFaults":
        """Fresh per-job fault state; called by ``SimCluster.run`` per attempt."""
        return JobFaults(self, self._next_job_index(), n_ranks)

    def without_crash(self) -> "FaultInjector":
        """A view of this injector for a degraded (survivor) cluster.

        Shares the job counter and transient-fault policy, but never
        re-fires the crash: the dead rank no longer exists in the
        re-sharded world.  Stragglers targeting ranks beyond the degraded
        size simply stop matching.
        """
        child = FaultInjector.__new__(FaultInjector)
        child.policy = replace(self.policy, crash=None)
        child._jobs = 0  # unused; job() below delegates to the parent counter
        child._crash_fired = True
        child._parent = self
        return child

    def _next_job_index(self) -> int:
        parent = getattr(self, "_parent", None)
        if parent is not None:
            return parent._next_job_index()
        index = self._jobs
        self._jobs += 1
        return index

    def take_crash(self, crash: CrashFault) -> bool:
        """Claim the (single) crash; True if this caller fires it."""
        if self._crash_fired and not crash.permanent:
            return False
        self._crash_fired = True
        return True


class JobFaults:
    """Fault state of one MPI job dispatch (one ``SimCluster.run`` attempt)."""

    def __init__(self, injector: FaultInjector, index: int, n_ranks: int) -> None:
        self.injector = injector
        self.index = index
        self.n_ranks = n_ranks

    @property
    def policy(self) -> FaultPolicy:
        return self.injector.policy

    def slowdown(self, rank: int) -> float:
        """CPU slowdown factor injected on ``rank`` (1.0 = healthy)."""
        for straggler in self.policy.stragglers:
            if straggler.rank == rank:
                return straggler.slowdown
        return 1.0

    def rank_faults(self, rank: int) -> "RankFaults | None":
        """The per-rank decision handle; None when nothing can ever fire.

        Returning None for a policy with no comm faults keeps the hot
        put/collective paths at a single ``is None`` check.
        """
        policy = self.policy
        if not (
            policy.put_drop_rate
            or policy.collective_drop_rate
            or policy.crash is not None
        ):
            return None
        return RankFaults(self, rank)


class RankFaults:
    """Deterministic per-rank fault decisions for one job attempt.

    Owned by exactly one rank; the crash ledger it shares with its peers
    needs no lock either, since one rank of a job runs at a time (a wave's
    lockstep walk, or the baton of an SPMD function's rank threads).
    """

    __slots__ = ("job", "rank", "_rng_put", "_rng_coll", "_comm_ops")

    def __init__(self, job: JobFaults, rank: int) -> None:
        self.job = job
        self.rank = rank
        seed = job.policy.seed
        self._rng_put = np.random.default_rng((seed, job.index, rank, _PUT_STREAM))
        self._rng_coll = np.random.default_rng(
            (seed, job.index, rank, _COLLECTIVE_STREAM)
        )
        self._comm_ops = 0

    # -- transient faults ---------------------------------------------------

    def put_drops(self) -> bool:
        """Draw: does the next network-put attempt fail in transit?"""
        rate = self.job.policy.put_drop_rate
        return bool(rate) and float(self._rng_put.random()) < rate

    def collective_drops(self) -> bool:
        """Draw: is this rank's next collective contribution lost?"""
        rate = self.job.policy.collective_drop_rate
        return bool(rate) and float(self._rng_coll.random()) < rate

    @property
    def max_attempts(self) -> int:
        return self.job.policy.retry.max_attempts

    def backoff(self, attempt: int) -> float:
        return self.job.policy.retry.backoff(attempt)

    # -- hard crashes --------------------------------------------------------

    def check_crash(self, now: float) -> None:
        """Raise :class:`~repro.errors.RankCrashError` if the trigger is met.

        Called at every comm operation (put or collective) on this rank;
        counts operations and compares the clock against the trigger.
        """
        crash = self.job.policy.crash
        if crash is None or crash.rank != self.rank:
            return
        self._comm_ops += 1
        due = (
            crash.after_comm_ops is not None
            and self._comm_ops >= crash.after_comm_ops
        ) or (crash.at_time is not None and now >= crash.at_time)
        if not due or not self.job.injector.take_crash(crash):
            return
        raise RankCrashError(
            f"injected {'permanent ' if crash.permanent else ''}crash of rank "
            f"{self.rank} at simulated time {now:.6f} s "
            f"(comm op {self._comm_ops})",
            rank=self.rank,
            sim_time=now,
            permanent=crash.permanent,
        )
