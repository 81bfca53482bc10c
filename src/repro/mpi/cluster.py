"""The simulated MPI cluster: rank processes, dispatch, result harvesting.

:class:`SimCluster` plays the role of ``mpirun`` plus the physical machines:
it hands every rank of a job a :class:`RankContext` (rank id, communicator,
simulated clock, seeded RNG) and harvests per-rank results, clocks, and
per-phase timing breakdowns.  Plan waves and the monolithic baselines walk
a job's contexts (:meth:`SimCluster.job_contexts`) in lockstep on the
caller's thread, one collective call for all ranks; no plan runs on a rank
thread.  Only SPMD functions written against one rank's communicator go
through :meth:`SimCluster.run`, which gives each rank a thread to carry its
stack and runs them one at a time, switching only at collectives.

All computation happens for real; the simulated clocks never influence
results, only the reported timings, so runs are bit-deterministic for a
given seed.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, TypeVar

import numpy as np

from repro.errors import SimulationError
from repro.mpi.clock import PhaseTimings, SimClock
from repro.mpi.comm import CommWorld, SimComm, _JobAborted
from repro.mpi.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.mpi.trace import ClusterTrace
from repro.observability.events import FaultDetail

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector

__all__ = ["RankContext", "ClusterResult", "SimCluster", "block_share"]

T = TypeVar("T")


def share_one_malloc_arena() -> None:
    """Cap glibc at one malloc arena (M_ARENA_MAX is -8).  Rank jobs and the
    serving scheduler's steps run on the caller's thread, but a server's
    clients may be threads, and each extra arena keeps its peak temporaries
    resident: without the cap ``tpch_served_r4`` peaks at about 374 MB
    instead of 354.  Runs at import, before those threads; glibc reuses
    exited threads' arenas."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-8, 1)


share_one_malloc_arena()


def block_share(n_rows: int, n_ranks: int, rank: int) -> tuple[int, int]:
    """Contiguous ``[start, stop)`` share of ``n_rows`` for ``rank``: the
    block distribution the paper's workers use when each process "reads its
    part of the input" (the first ``n_rows % n_ranks`` ranks get one more)."""
    base, extra = divmod(n_rows, n_ranks)
    start = rank * base + min(rank, extra)
    return start, start + base + (1 if rank < extra else 0)


@dataclass
class RankContext:
    """Everything a rank's SPMD program needs."""

    rank: int
    n_ranks: int
    comm: SimComm
    clock: SimClock
    cost: CostModel
    seed: int

    @property
    def is_root(self) -> bool:
        return self.rank == 0

    @cached_property
    def rng(self) -> np.random.Generator:
        """The rank's generator, seeded by ``(cluster seed, rank)``: every
        job starts it afresh, and a job that draws nothing never builds it."""
        return np.random.default_rng((self.seed, self.rank))


@dataclass
class ClusterResult:
    """Outcome of one SPMD run.

    Attributes:
        per_rank: The value returned by each rank's function.
        clocks: Final simulated time of each rank.
        timings: Per-rank phase breakdowns.
    """

    per_rank: list
    clocks: list[float]
    timings: list[PhaseTimings]
    #: Event trace of the run, present when the cluster traces or the
    #: caller passed one (observed executions do).
    trace: ClusterTrace | None = None

    @classmethod
    def of(
        cls, contexts: list[RankContext], per_rank: list, trace: ClusterTrace | None
    ) -> "ClusterResult":
        """The outcome of a finished job over ``contexts``."""
        return cls(
            per_rank=per_rank,
            clocks=[ctx.clock.now for ctx in contexts],
            timings=[ctx.clock.timings for ctx in contexts],
            trace=trace,
        )

    @property
    def makespan(self) -> float:
        """Simulated completion time of the job (slowest rank)."""
        return max(self.clocks) if self.clocks else 0.0

    def phase_breakdown(self) -> dict[str, float]:
        """Max-over-ranks duration of each phase, in first-seen order.

        Taking the max per phase mirrors how the paper reports per-phase
        times of a bulk-synchronous algorithm: a phase lasts as long as its
        slowest participant.
        """
        breakdown: dict[str, float] = {}
        for timing in self.timings:
            for phase in timing.phases():
                breakdown[phase] = max(breakdown.get(phase, 0.0), timing.get(phase))
        return breakdown


class SimCluster:
    """A reusable simulated cluster of ``n_ranks`` worker processes.

    With the default calibration one rank models one machine of the paper's
    testbed (all of its cores together), so ``SimCluster(8)`` corresponds to
    the full 8-machine RDMA cluster of Table 2.
    """

    def __init__(
        self,
        n_ranks: int,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        seed: int = 2021,
        trace: bool = False,
    ) -> None:
        if n_ranks < 1:
            raise SimulationError(f"cluster needs >= 1 rank, got {n_ranks}")
        self.n_ranks = n_ranks
        self.cost_model = cost_model
        self.seed = seed
        self.trace = trace
        #: Each rank's CPU-speed jitter, drawn once from the seed: every job
        #: of this cluster runs its ranks at the same relative speeds.
        self._jitters = 1.0 + np.random.default_rng(seed).uniform(
            0.0, cost_model.jitter_fraction, size=n_ranks
        )

    def with_ranks(self, n_ranks: int) -> "SimCluster":
        """A cluster of different width with identical configuration.

        Used by pipeline-level recovery to degrade onto the survivors
        after a permanent rank crash.
        """
        return SimCluster(n_ranks, self.cost_model, self.seed, self.trace)

    def run(
        self,
        spmd_fn: Callable[[RankContext], T],
        faults: "FaultInjector | None" = None,
        trace: ClusterTrace | None = None,
    ) -> ClusterResult:
        """Execute ``spmd_fn`` on every rank and harvest results.

        The function runs once per rank on its own stack, one rank at a
        time from collective to collective; ranks interact only through
        ``ctx.comm``.  If any rank raises, the job is aborted (parked peers
        are resumed to unwind) and the first exception is re-raised on the
        caller — with every *other* genuine rank failure attached as
        ``.secondary_errors`` (and as notes).  A rank finishing while a
        peer waits in a collective is a deadlock, raised at once.  No rank
        thread outlives the call.

        ``trace`` is the event store the job records into; stage recovery
        passes one created under the execution's trace context and keeps
        it if the job aborts.  Left ``None``, a tracing cluster creates a
        bare one and a non-tracing cluster records nothing.

        ``faults`` arms deterministic fault injection for this job: each
        call draws a fresh per-job fault state from the injector, so
        re-running a failed stage retries under fresh (but reproducible)
        transient faults.

        Each call builds a fresh ``CommWorld`` and per-rank contexts, so
        concurrent ``run`` calls from different threads are fully
        isolated.
        """
        cluster_trace = trace
        if cluster_trace is None and self.trace:
            cluster_trace = ClusterTrace(self.n_ranks)
        contexts = self.job_contexts(faults, cluster_trace)
        world = contexts[0].comm.world
        results: list = [None] * self.n_ranks
        errors: list[BaseException] = []  # genuine rank failures, oldest first

        def worker(rank: int) -> None:
            world.wait_turn(rank)
            try:
                results[rank] = spmd_fn(contexts[rank])
            except _JobAborted:
                pass  # stopped by the abort; `world.failure` is why
            except BaseException as exc:  # noqa: BLE001 - must not hang peers
                exc.add_note(f"raised on rank {rank}")
                errors.append(exc)
                world.abort(exc)
            finally:
                world.hand_off()

        threads = [
            threading.Thread(target=worker, args=(rank,), name=f"sim-rank-{rank}")
            for rank in range(self.n_ranks)
        ]
        for thread in threads:
            thread.start()
        world.hand_off()
        try:
            for thread in threads:
                thread.join()
        except BaseException as exc:
            # The *caller* was interrupted (e.g. KeyboardInterrupt): abort,
            # so the running rank's next hand-off drains every parked peer,
            # and leave no thread behind.
            world.abort(exc)
            for thread in threads:
                thread.join()
            raise

        if world.failure is not None:
            # The root cause: the first error a rank raised, or the
            # world's own deadlock report.  Several ranks can fail for
            # independent reasons (e.g. two genuine window violations in
            # one epoch); keep every one on the raised error.
            primary = world.failure
            primary.secondary_errors = tuple(e for e in errors if e is not primary)
            for other in primary.secondary_errors:
                primary.add_note(
                    f"secondary rank failure: {type(other).__name__}: {other}"
                )
            raise primary

        return ClusterResult.of(contexts, results, cluster_trace)

    def job_contexts(
        self, faults: "FaultInjector | None" = None, trace: ClusterTrace | None = None
    ) -> list[RankContext]:
        """The rank contexts of one fresh job: a new ``CommWorld`` recording
        into ``trace``, and per rank its jittered clock, communicator and
        fault handle (a job drawn from ``faults``)."""
        world = CommWorld(self.n_ranks, self.cost_model, trace=trace)
        job = faults.job(self.n_ranks) if faults is not None else None
        contexts: list[RankContext] = []
        for rank in range(self.n_ranks):
            jitter = float(self._jitters[rank])
            if job is not None:
                slowdown = job.slowdown(rank)
                if slowdown != 1.0:
                    jitter *= slowdown
                    if trace is not None:
                        trace.emit(
                            rank, "fault", "straggler", 0.0, 0.0,
                            FaultDetail(fault="straggler", target=rank),
                        )
            clock = SimClock(jitter_factor=jitter)
            comm = SimComm(world, rank, clock)
            if job is not None:
                comm.faults = job.rank_faults(rank)
            contexts.append(
                RankContext(rank, self.n_ranks, comm, clock, self.cost_model, self.seed)
            )
        return contexts
