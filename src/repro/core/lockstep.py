"""Lockstep walks: one walk of a plan for every rank (every *lane*) at once.

The paper runs one compiled plan per machine, all in parallel (§3.3.3).
Simulated on one CPU, walking one copy of the plan per rank would pay the
interpretation of the same skeleton once per rank.  A lockstep walk pays
it once: each operator's :meth:`~repro.core.operator.Operator.lanes`
generator runs once per *lockstep morsel*, a :class:`Step` carrying the
morsel of every lane that has one at that point.  That generator is the
operator's one data path: a walk on the driver's context is the one-lane
case, and an ``MpiExecutor`` wave is the walk over all of its ranks, on
the driver's thread (:func:`run_job`).

Simulated time stays exactly what each rank would charge on its own.  An
operator charges each lane's own clock from that lane's rows, at the point
where a one-lane walk charges it, so every clock makes the same float
additions in the same order.  A lane without a k-th morsel is absent from
step k rather than charged a zero, and an upstream step is pulled only
once every lane has consumed the previous one.  Kernels run on each
lane's morsel: the Python around them (generator frames, dispatch, the
operator's setup) runs once per step, and each lane's data decides its
own kernel path (join, group-by, scatter); lanes whose join build sides
hold equal keys share one build.  A collective is one group
call that sees every lane's contribution (:class:`~repro.mpi.comm.
CommGroup`); puts still go through each rank's ``Window``.

Metrics, profiles (timed ones split a step's wall time evenly over the
lanes it served), the sanitizer, substrate traces, fault injection and
stage recovery all see each lane as its rank: each lane keeps its rank's
counters, faults strike at its rank's comm operations, and a crash halts
the rank there while its peers run on to the next collective, where the
wave aborts at the crashing rank's clock.  The monolithic baselines walk
their ranks in lockstep too.  No plan runs on a rank thread: those carry
SPMD functions written against one rank's communicator
(:meth:`~repro.mpi.cluster.SimCluster.run`).  A ``Limit``, whose lanes
each stop pulling at their own point, walks its upstream lane by lane,
so no collective may sit below it (MOD013).

:func:`steps` is the one place a run is observed.  Every walk goes
through it, the one-lane walks of ``Operator.stream``, ``stream_batches``
and ``drain`` included.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

from repro.core.context import ExecutionContext
from repro.errors import ExecutionError
from repro.mpi.cluster import ClusterResult
from repro.mpi.comm import CommGroup
from repro.observability.profile import OperatorStats
from repro.types.collections import RowVector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.operator import Operator

__all__ = ["Step", "Lockstep", "steps", "pulled", "run_job"]


class Step:
    """One lockstep morsel: the morsels (``parts``) of the ``lanes``
    present, in lane order."""

    __slots__ = ("lanes", "parts")

    def __init__(self, lanes, parts: list[RowVector]) -> None:
        self.lanes = lanes
        self.parts = parts

    def sizes(self) -> list[int]:
        return [len(part) for part in self.parts]

    def map(self, kernel: Callable[[RowVector], RowVector]) -> "Step":
        """``kernel`` over each lane's morsel."""
        return Step(self.lanes, [kernel(part) for part in self.parts])


#: The lanes of a one-lane step.
ONE_LANE = (0,)


class Lockstep:
    """The lanes of one walk: each lane's execution context (its rank's,
    with that rank's parameter bindings and shared-scan cache) and the
    group issuing the lanes' collectives (``None`` outside an MPI job)."""

    __slots__ = ("ctxs", "group")

    def __init__(self, ctxs: list[ExecutionContext], group=None) -> None:
        self.ctxs = ctxs
        self.group = group

    @classmethod
    def solo(cls, ctx: ExecutionContext) -> "Lockstep":
        """The one-lane walk on ``ctx`` alone, which issues no collective."""
        return cls([ctx])

    def nested(self, lanes: list[int]) -> "Lockstep":
        """The walk of one nested-plan invocation over ``lanes``.  It issues
        collectives only if every lane takes part, as a collective needs
        every rank of the job."""
        if len(lanes) == len(self.ctxs):
            return self
        return Lockstep([self.ctxs[i] for i in lanes])

    def lane(self, i: int) -> "Lockstep":
        """Lane ``i`` walked on its own, which issues no collective."""
        return Lockstep([self.ctxs[i]])

    def collectives(self):
        """The group issuing this walk's collectives."""
        if self.group is None:
            if self.ctxs[0].rank_ctx is None:
                raise ExecutionError(
                    "this operator needs an MPI cluster; wrap the plan in MpiExecutor"
                )
            raise ExecutionError(
                "a collective needs every rank of the job, but this plan part runs "
                "on some ranks only (a nested plan some ranks do not invoke, or "
                "the upstream of a Limit)"
            )
        return self.group

    def charge(self, op: "Operator", kind: str, step: Step) -> None:
        for lane, n_rows in zip(step.lanes, step.sizes()):
            self.ctxs[lane].charge_cpu(op, kind, n_rows)

    def set_phase(self, phase: str) -> None:
        for ctx in self.ctxs:
            ctx.set_phase(phase)


# -- walking -------------------------------------------------------------------


def steps(op: "Operator", lx: Lockstep) -> Iterator[Step]:
    """The walk of ``op`` over the lanes of ``lx``: what ``op.stream`` (or
    ``drain``) gives each lane.  The one place a run is observed: the
    lanes' profilers count (and, when timed, time) each activation, and
    the sanitizer names ``op`` while it runs."""
    run = op.lanes(lx)
    ctx = lx.ctxs[0]
    if ctx.profiler is not None:
        run = _observed(op, run, lx)
    if ctx.sanitizer is not None:
        run = ctx.sanitizer.track(op, run)
    return run


def pulled(op: "Operator", lx: Lockstep) -> Iterator[Step]:
    """``op``'s steps as ``op.stream_batches`` gives them to each lane: with
    metrics on, each lane counts the morsels it drains."""
    if lx.ctxs[0].registry is None:
        return steps(op, lx)
    counters = [
        ctx.registry.counter("morsels_drained", op=type(op).__name__) for ctx in lx.ctxs
    ]
    return _drained(steps(op, lx), counters)


def _drained(run: Iterator[Step], counters: list) -> Iterator[Step]:
    for step in run:
        for lane in step.lanes:
            counters[lane].inc()
        yield step


def _observed(op: "Operator", run: Iterator[Step], lx: Lockstep) -> Iterator[Step]:
    """One activation of ``op`` on every lane, in each lane's profiler: a
    call, and the rows and batches the lane yields; when timed, the self
    time of each pull (each lane's simulated time on its own clock, the
    wall time split evenly over the lanes) and one span per lane."""
    profilers = [ctx.profiler for ctx in lx.ctxs]
    records = []
    for profiler in profilers:
        record = profiler.stats.get(id(op))
        if record is None:
            record = profiler.stats[id(op)] = OperatorStats()
            profiler.ops[id(op)] = op
        record.calls += 1
        records.append(record)
    batched = not op.row_native
    timed = profilers[0].timed
    if timed:
        clocks = [ctx.clock for ctx in lx.ctxs]
        starts = [clock.now for clock in clocks]
        rows, batches = [0] * len(records), [0] * len(records)
        frames = profilers[0]
    try:
        while True:
            if timed:
                frames._push(records, clocks)
            try:
                step = next(run)
            except StopIteration:
                return
            finally:
                if timed:
                    frames._pop()
            for lane, n_rows in zip(step.lanes, step.sizes()):
                records[lane].rows_out += n_rows
                records[lane].batches_out += batched
                if timed:
                    rows[lane] += n_rows
                    batches[lane] += batched
            yield step
    finally:
        if timed:
            mode = lx.ctxs[0].options.mode
            for i, profiler in enumerate(profilers):
                profiler._record_span(
                    op, starts[i], clocks[i].now, rows[i], batches[i], mode
                )


def one_lane(op: "Operator", ctx: ExecutionContext) -> Iterator[RowVector]:
    """``op``'s data path on ``ctx`` alone: the one-lane walk's morsels."""
    for step in steps(op, Lockstep.solo(ctx)):
        yield step.parts[0]


def lane_by_lane(lx: Lockstep, run: Callable[[Lockstep], Iterator[RowVector]]) -> Iterator[Step]:
    """``run`` on each lane walked on its own, its k-th morsels as step k:
    for an operator whose lanes may each stop pulling at their own point.
    A one-lane walk is its own lane."""
    if len(lx.ctxs) == 1:
        runs = [run(lx)]
    else:
        runs = [run(lx.lane(i)) for i in range(len(lx.ctxs))]
    live = list(range(len(runs)))
    while live:
        lanes, parts = [], []
        for lane in live:
            part = next(runs[lane], None)
            if part is not None:
                lanes.append(lane)
                parts.append(part)
        if lanes:
            yield Step(lanes, parts)
        live = lanes


def scanned(
    op: "Operator", lx: Lockstep, read: Callable[[ExecutionContext, object], tuple]
) -> Iterator[Step]:
    """The morsels of each collection arriving at the scan ``op`` (field
    ``op._position`` of its upstream's tuples), collection by collection:
    ``read(ctx, collection)`` gives a lane's rows to charge and its morsels,
    and each lane is charged for a collection as it reaches it."""
    for step in steps(op.upstreams[0], lx):
        scans = [
            (lane, [read(lx.ctxs[lane], c) for c in part.columns[op._position]])
            for lane, part in zip(step.lanes, step.parts)
        ]
        for index in range(max((len(c) for _, c in scans), default=0)):
            morsels = []
            for lane, collections in scans:
                if len(collections) > index:
                    n_rows, pieces = collections[index]
                    lx.ctxs[lane].charge_cpu(op, "scan", n_rows * op._scan_weight)
                    morsels.append((lane, pieces))
            for k in range(max(len(pieces) for _, pieces in morsels)):
                present = [(lane, pieces[k]) for lane, pieces in morsels if len(pieces) > k]
                if present:
                    yield Step([lane for lane, _ in present],
                               [piece for _, piece in present])


# -- draining ------------------------------------------------------------------


def drained_parts(run: Iterator[Step], lx: Lockstep) -> list[list[RowVector]]:
    """Drain ``run``: each lane's morsels."""
    parts: list[list[RowVector]] = [[] for _ in lx.ctxs]
    for step in run:
        for lane, part in zip(step.lanes, step.parts):
            parts[lane].append(part)
    return parts


def drained_vectors(op: "Operator", run: Iterator[Step], lx: Lockstep) -> list[RowVector]:
    """Drain ``run`` of ``op``: each lane's rows as one vector."""
    return [RowVector.concat(op.output_type, parts) for parts in drained_parts(run, lx)]


def drained_rows(run: Iterator[Step], lx: Lockstep) -> list[list[tuple]]:
    """Drain ``run``: each lane's rows as tuples."""
    return [
        [row for part in parts for row in part.iter_rows()]
        for parts in drained_parts(run, lx)
    ]


def each_lane(vectors: list[RowVector]) -> Step:
    """One step holding ``vectors[lane]`` for every lane."""
    return Step(range(len(vectors)), vectors)


# -- MPI jobs ------------------------------------------------------------------


def run_job(
    executor, ctx: ExecutionContext, wave: list[tuple], cluster, trace=None,
    faults=None, checkpoints=None, sanitizer_job=None,
) -> tuple[ClusterResult, list[ExecutionContext]]:
    """One attempt at a wave of ``executor`` on ``cluster``: ``wave[rank]``
    bound on each rank's lane, a job drawn from the injector ``faults``,
    materializations checkpointed into ``checkpoints``, the substrate
    recording into ``trace`` and reporting to ``sanitizer_job``.  Returns
    the result and the lanes' contexts, whose profilers and metrics join
    the driver's only if the wave completes.

    The wave walks its nested plan in lockstep on this thread.
    """
    profiler, metrics = ctx.profiler, ctx.registry
    contexts = cluster.job_contexts(faults, trace)
    lanes = []
    for rank_ctx in contexts:
        # Worker contexts run under the driver's RunOptions object, whole: a
        # knob the driver ran with is a knob every stage retry re-executes with.
        rank_ctx.comm.sanitizer = sanitizer_job
        lane_ctx = ExecutionContext.for_rank(
            rank_ctx, ctx.options,
            profiler=profiler.child(rank_ctx.clock, rank_ctx.rank) if profiler else None,
            registry=metrics.child(rank_ctx.rank) if metrics else None,
            checkpoints=checkpoints, sanitizer=ctx.sanitizer,
        )
        lane_ctx.push_parameter(executor.slot.id, wave[rank_ctx.rank])
        if profiler is not None:
            # One thread walks every lane, inside the driver's frame: the
            # driver's frame stack times them all.
            lane_ctx.profiler._stack = profiler._stack
        lanes.append(lane_ctx)
    lx = Lockstep(lanes, CommGroup([rank_ctx.comm for rank_ctx in contexts]))
    rows = drained_rows(steps(executor.inner, lx), lx)
    lx.group.check()
    return ClusterResult.of(contexts, rows, trace), lanes
