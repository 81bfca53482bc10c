"""Pipeline-level stage recovery for :class:`MpiExecutor` dispatch waves.

The paper's pipelines-cut-at-materialization-points structure makes an
``MpiExecutor`` wave the natural recovery unit: the driver owns a
:class:`~repro.faults.checkpoint.CheckpointStore` that worker
materialization points deposit into, and when a rank crash or an
exhausted retry budget aborts a wave, the driver charges the wasted
simulated time, re-executes *only that wave* (sealed materializations
are served from their checkpoints), and — for a permanent crash over a
replicated input — degrades onto a survivor cluster one rank smaller.

This module is the driver-side half of that story, kept out of the
operator so ``MpiExecutor`` stays a launch mechanism (§3.3.3) and the
escalation ladder lives with the rest of :mod:`repro.faults`:

1. transient comm faults retry inside the substrate (``repro.mpi``);
2. a crash / exhausted budget aborts the wave and re-executes it here,
   up to ``FaultPolicy.max_stage_retries`` times;
3. a *permanent* crash degrades to the survivors via
   ``SimCluster.with_ranks`` when the input is replicated.

A completed wave appends its ``ClusterResult`` to the execution's record
(:mod:`repro.observability.record`); an aborted attempt leaves only its
injected fault/retry events and the driver-side ``recovery`` action
taken, surfaced as ``ExecutionReport.recovery_events``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.context import ExecutionContext
from repro.errors import MpiSemanticsError, RankCrashError, RetryBudgetExceeded
from repro.faults.checkpoint import CheckpointStore
from repro.mpi.trace import ClusterTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.operators.mpi_executor import MpiExecutor
    from repro.mpi.cluster import ClusterResult, SimCluster

__all__ = ["run_wave"]


def run_wave(
    executor: "MpiExecutor",
    ctx: ExecutionContext,
    wave: list[tuple],
    replicated: bool,
) -> "ClusterResult":
    """One dispatch wave: run, and recover from injected stage failures."""
    # Lazy: keeps repro.faults free of an import-time repro.core.lockstep edge.
    from repro.core.lockstep import run_job

    cluster = executor.cluster
    record, profiler, metrics = ctx.record, ctx.profiler, ctx.registry
    injector = ctx.fault_injector
    policy = injector.policy if injector is not None else None
    recoverable = policy is not None and (
        policy.crash is not None
        or policy.put_drop_rate > 0
        or policy.collective_drop_rate > 0
    )
    checkpoints = None
    if recoverable:
        checkpoints = CheckpointStore(cluster.n_ranks, executor.slot.id)

    attempt = 0
    while True:
        attempt += 1
        if checkpoints is not None:
            checkpoints.seal()
        trace = _job_trace(cluster, record, profiler, injector)
        # One sanitizer job per dispatch attempt: the MOD05x recorders are
        # scoped to a single MPI job, and jobs are created sequentially on
        # the driver so window keys stay deterministic across replays.
        san_job = (
            ctx.sanitizer.job(cluster.n_ranks) if ctx.sanitizer is not None else None
        )
        try:
            result, lanes = run_job(
                executor, ctx, wave, cluster, trace, injector, checkpoints, san_job
            )
        except (RankCrashError, RetryBudgetExceeded) as exc:
            if policy is None or attempt > policy.max_stage_retries:
                raise
            # Keep the aborted attempt's injected-fault evidence: its trace
            # dies with the attempt, but the faults explain the recovery.
            record.recovery_events.extend(
                trace.events(kind="fault") + trace.events(kind="retry")
            )
            injector, cluster, wave = _recover(
                executor, ctx, exc, attempt, injector, cluster, wave,
                replicated, checkpoints,
            )
            continue
        except MpiSemanticsError as exc:
            # The substrate enforced MOD050; the sanitizer only
            # names the operators it recorded (unless one suppresses it).
            if san_job is not None:
                san_job.translate(exc)
            raise
        if san_job is not None:
            san_job.close()
        record.cluster_results.append(result)
        # Each rank's child profiler and metrics registry: only the
        # successful attempt's reach the driver's, so spans and work counts
        # tell the true story of what the surviving execution actually ran.
        for lane in lanes:
            if profiler is not None:
                profiler.absorb(lane.profiler)
            if metrics is not None:
                metrics.absorb(lane.registry)
        return result


def _job_trace(cluster, record, profiler, injector) -> ClusterTrace | None:
    """The job's one substrate recorder, born with the execution's trace
    context: armed by a tracing cluster, an observed run (whose comm and
    fault metrics are folded from its events) or a fault injector (whose
    faults are the evidence its recoveries answer, traced or not)."""
    if cluster.trace or profiler is not None or injector is not None:
        return ClusterTrace(cluster.n_ranks, record.trace)
    return None


def _recover(
    executor: "MpiExecutor",
    ctx: ExecutionContext,
    exc: Exception,
    attempt: int,
    injector,
    cluster: "SimCluster",
    wave: list[tuple],
    replicated: bool,
    checkpoints: CheckpointStore | None,
):
    """Account for one aborted attempt and prepare the next one."""
    # The failed attempt's work is wasted but not free: charge the
    # simulated time the failing rank had accumulated to the driver.
    start = ctx.clock.now
    ctx.set_phase("recovery")
    ctx.clock.advance(exc.sim_time)
    permanent = isinstance(exc, RankCrashError) and exc.permanent
    lost_rank = exc.rank if isinstance(exc, RankCrashError) else -1
    if permanent:
        if not replicated or cluster.n_ranks <= 1:
            raise exc
        # Graceful degradation: the dead rank stays dead; re-dispatch the
        # (replicated) input onto one rank fewer, re-sharding the work
        # onto the survivors.  Full-width checkpoints no longer apply,
        # and the crash must not re-fire in the degraded world.
        cluster = cluster.with_ranks(cluster.n_ranks - 1)
        wave = wave[: cluster.n_ranks]
        injector = injector.without_crash()
        if checkpoints is not None:
            checkpoints.resize(cluster.n_ranks)
        action = "degrade_cluster"
        # A runtime rewrite is a new plan: the degraded re-shard must pass
        # the same static verification a user-built plan would, *before*
        # the survivors re-execute it (machine-made rewrites need
        # machine-checked proofs).  The import is local to keep
        # repro.faults free of an analysis dependency on the happy path.
        from repro.analysis import verify

        verify(executor, name=f"{executor.label()} (degraded to "
                               f"{cluster.n_ranks} ranks)")
    else:
        action = "stage_retry"
    # The one write of this action; ``recovery_actions`` is folded from it.
    ctx.record.recovery(
        action, start, ctx.clock.now, span=f"recover{attempt}",
        stage=executor.label(), attempt=attempt, lost_rank=lost_rank,
    )
    return injector, cluster, wave
