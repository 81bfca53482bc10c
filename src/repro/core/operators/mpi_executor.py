"""MpiExecutor: run a nested plan data-parallel on an MPI cluster (§3.3.3).

The driver-side operator that owns all knowledge of the distributed
platform's *launch* mechanics (the paper's ``mpirun`` + worker executables
loading the JiT-compiled nested plan).  Semantics match ``NestedMap`` —
one nested-plan invocation per input tuple, one output tuple each — except
that invocations are guaranteed to run concurrently on different ranks.

The reproduction dispatches onto a :class:`~repro.mpi.cluster.SimCluster`.
A wave walks the nested plan once for every rank, in lockstep on the
driver's thread (:mod:`repro.core.lockstep`); a wave whose plan holds an
operator without a lockstep runner, or a ``Limit`` above a collective,
gives each rank a thread to execute the nested plan on its input tuple.
Either way results are collected in rank order.  The driver's clock
advances by the job's makespan (the slowest rank); each completed wave's
:class:`~repro.mpi.cluster.ClusterResult` (per-rank phase breakdowns,
substrate trace) is appended to the *execution's* record, never kept on
this plan node, so one plan object can serve interleaved executions.

This operator is also the seat of *pipeline-level recovery* under fault
injection: a dispatch wave is the recovery unit, re-executed from its
checkpoints when a crash or an exhausted retry budget aborts it.  The
escalation ladder itself lives in :mod:`repro.faults.stage_recovery`;
this operator only provides the seam (the wave loop).
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.core.context import ExecutionContext
from repro.core.lockstep import ONE_LANE, Lockstep, Step, drained_rows, steps
from repro.core.operator import Operator
from repro.core.operators.nested_map import build_nested_plan, nested_plan_type
from repro.core.operators.parameter_lookup import ParameterSlot
from repro.errors import ExecutionError
from repro.mpi.cluster import ClusterResult, SimCluster
from repro.types.collections import RowVector

__all__ = ["MpiExecutor"]


class MpiExecutor(Operator):
    """Execute a nested plan once per input tuple, one rank per tuple.

    Args:
        upstream: Driver-side producer of the input tuples.  It must yield
            either exactly one tuple (replicated to every rank — the common
            case where each worker derives its share from its rank id) or
            exactly ``cluster.n_ranks`` tuples (one per rank).
        build_inner: Callback building the nested plan from a
            :class:`ParameterSlot`, as for ``NestedMap``.
        cluster: The simulated MPI cluster to dispatch onto.
    """

    abbreviation = "ME"
    phase_name = "mpi_executor"
    breaks_pipeline = True
    row_native = True

    def __init__(
        self,
        upstream: Operator,
        build_inner: Callable[[ParameterSlot], Operator],
        cluster: SimCluster,
    ) -> None:
        self.cluster = cluster
        self.slot, self.inner = build_nested_plan("MpiExecutor", upstream, build_inner)
        super().__init__(upstreams=(upstream,))

    def infer_type(self, upstream_types):
        return nested_plan_type("MpiExecutor", self.slot, self.inner, upstream_types[0])

    def signature(self) -> tuple:
        return (self.slot.id,)

    def nested_roots(self) -> tuple[Operator, ...]:
        return (self.inner,)

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        # The driver walks one lane; a walk of several is inside a job,
        # refused below.  The rows are a few control tuples holding whole
        # collections, each yielded as its own morsel.
        inputs = drained_rows(steps(self.upstreams[0], lx), lx)[0]
        ctx = lx.ctxs[0]
        n_ranks = self.cluster.n_ranks
        replicated = len(inputs) == 1
        if replicated:
            inputs = inputs * n_ranks
        if len(inputs) % n_ranks:
            raise ExecutionError(
                f"MpiExecutor got {len(inputs)} input tuples for {n_ranks} ranks; "
                "expected 1 (replicated) or a multiple of the rank count"
            )
        if ctx.rank_ctx is not None:
            raise ExecutionError("MpiExecutor cannot run inside another MPI job")

        # More inputs than ranks run as successive waves of one job each —
        # the guarantee the paper states is only that instances *within* a
        # dispatch run concurrently on different ranks.
        for wave_start in range(0, len(inputs), n_ranks):
            wave = inputs[wave_start : wave_start + n_ranks]
            result = self._run_wave(ctx, wave, replicated)
            # The driver waits for each data-parallel wave.
            ctx.set_phase(self.assigned_phase)
            ctx.clock.advance(result.makespan)
            for rank_output in result.per_rank:
                for row in rank_output:
                    yield Step(ONE_LANE, [RowVector.of_row(self.output_type, row)])

    def _run_wave(
        self, ctx: ExecutionContext, wave: list[tuple], replicated: bool
    ) -> ClusterResult:
        # Lazy: keeps repro.core free of an import-time repro.faults edge.
        from repro.faults.stage_recovery import run_wave

        return run_wave(self, ctx, wave, replicated)
