"""Simulated MPI communicator with one-sided RMA operations.

Each rank owns a :class:`SimComm` handle.  The handles share a
:class:`CommWorld`, which implements collectives as rendezvous points:
every rank deposits its contribution and its *simulated* arrival time; when
the last rank arrives the result is computed and every participant's clock
jumps to ``max(arrival times) + collective cost``.  The stall each rank
experiences is exactly the paper's tail-latency effect — a rank that was
slow in a preceding phase delays everybody at the next ``MPI_Allreduce`` or
``MPI_Win_create``.

A plan's waves walk every rank in lockstep and issue each collective once
for all ranks through :class:`CommGroup`.  The rendezvous serves SPMD
functions on rank threads (:meth:`~repro.mpi.cluster.SimCluster.run`).
Ranks meet only at collectives, so a rank's thread is just its stack: one
rank of a job holds the *baton* and runs until it parks in
:meth:`CommWorld.rendezvous` or finishes, then hands it on.  Only the
holder touches world state (no lock), in a deterministic interleaving.

MPI semantics enforced, here and in :mod:`repro.mpi.window` only
(violations raise :class:`~repro.errors.MpiSemanticsError` rather than
deadlocking; each put and collective contribution is recorded with an
opaque ``origin``, the issuing operator when the sanitizer is armed):

* MOD051: all ranks issue the same sequence of collective calls, to its end,
* MOD050: one-sided puts match their window's element type and bounds, and
  puts from different ranks within one epoch do not overlap.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.errors import (
    MpiSemanticsError, RankCrashError, RetryBudgetExceeded, SimulationError,
)
from repro.mpi.clock import SimClock
from repro.mpi.costmodel import CostModel
from repro.mpi.trace import ClusterTrace
from repro.observability.events import (
    CollectiveDetail,
    FaultDetail,
    PutDetail,
    RetryDetail,
    WindowDetail,
)
from repro.mpi.window import Window
from repro.types.collections import RowVector
from repro.types.tuples import TupleType

if TYPE_CHECKING:
    from repro.analysis.sanitizer import SanitizerJob
    from repro.faults.injector import RankFaults

__all__ = ["CommGroup", "CommWorld", "SimComm", "WindowSet"]


class _JobAborted(SimulationError):
    """A rank met its job's abort at a collective; chained to the root cause."""


def _in_rank_order(values: dict[int, object]) -> list:
    return [values[r] for r in range(len(values))]


def _reducer(op: str) -> Callable[[dict[int, object]], np.ndarray]:
    """The combine of ``allreduce:op``: element-wise over the ranks' arrays."""

    def combine(values: dict[int, object]) -> np.ndarray:
        stack = np.stack(_in_rank_order(values))
        if op == "sum":
            return stack.sum(axis=0)
        if op == "max":
            return stack.max(axis=0)
        if op == "min":
            return stack.min(axis=0)
        raise SimulationError(f"unsupported allreduce op {op!r}")

    return combine


class _Slot:
    """Rendezvous state for one collective call index."""

    __slots__ = (
        "tag", "values", "origins", "result", "result_time", "done", "retrieved"
    )

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.values: dict[int, object] = {}
        #: rank -> origin of its contribution, in arrival order.
        self.origins: dict[int, object] = {}
        self.result: object = None
        #: The latest arrival so far; plus the collective's cost once done.
        self.result_time = 0.0
        self.done = False
        self.retrieved = 0


class CommWorld:
    """Shared state of one simulated MPI job (one communicator)."""

    def __init__(
        self,
        n_ranks: int,
        cost_model: CostModel,
        trace: ClusterTrace | None = None,
    ) -> None:
        self.n_ranks = n_ranks
        self.cost = cost_model
        self.trace = trace
        #: The root cause the job was aborted with, if it was.
        self.failure: BaseException | None = None
        self._slots: dict[int, _Slot] = {}
        #: One closed gate per rank; opening it grants that rank the baton.
        self._gates = [threading.Lock() for _ in range(n_ranks)]
        for gate in self._gates:
            gate.acquire()
        self._runnable = set(range(n_ranks))
        #: Ranks waiting in an incomplete collective: rank -> call index.
        self._parked: dict[int, int] = {}
        self._holder = -1  # the rank granted last; the caller holds the baton first

    # -- the baton -------------------------------------------------------------

    def next_rank(self, runnable: list[int]) -> int:
        """The grant policy: which of ``runnable`` (ascending) runs next —
        round-robin from the holder.  Nothing observable may depend on the
        choice; tests substitute it to check that."""
        return next((r for r in runnable if r > self._holder), runnable[0])

    def hand_off(self) -> None:
        """Pass the baton on; called by its holder when it parks or finishes."""
        if self.failure is None and self._parked and not self._runnable:
            self.failure = self._deadlock()
        if self.failure is not None:
            # An aborted job completes no collective, so its parked ranks
            # become runnable: each is resumed in turn, sees the abort and
            # unwinds its own stack.
            self._runnable.update(self._parked)
            self._parked.clear()
        if self._runnable:
            self._holder = self.next_rank(sorted(self._runnable))
            self._runnable.remove(self._holder)
            self._gates[self._holder].release()

    def _deadlock(self) -> MpiSemanticsError:
        """Every unfinished rank is parked: a finished peer never matched
        their collective (one call index: the finished ranks' call count)."""
        ranks = sorted(self._parked)
        slots = [self._slots[self._parked[rank]] for rank in ranks]
        waiting = ", ".join(
            f"rank {rank} in {slot.tag!r} (call {self._parked[rank]})"
            for rank, slot in zip(ranks, slots)
        )
        return MpiSemanticsError(
            "MOD051", "deadlock",
            f"deadlock: a finished peer never matched the collective of {waiting}",
            tuple(ranks), tuple(s.origins[r] for r, s in zip(ranks, slots)),
            call_index=self._parked[ranks[0]], tags=tuple(s.tag for s in slots),
        )

    def wait_turn(self, rank: int) -> None:
        """Block ``rank``'s thread until it is granted the baton."""
        self._gates[rank].acquire()

    # -- failure propagation -------------------------------------------------

    def abort(self, exc: BaseException) -> None:
        """Mark the job failed; the next hand-off releases every parked rank."""
        # Only sets a flag, so a thread that does not hold the baton may call it.
        if self.failure is None:
            self.failure = exc

    def _check_abort(self) -> None:
        if self.failure is not None:
            raise _JobAborted("peer rank failed; aborting collective") from self.failure

    # -- the generic rendezvous -----------------------------------------------

    def rendezvous(
        self,
        call_index: int,
        tag: str,
        rank: int,
        value: object,
        arrival_time: float,
        combine: Callable[[dict[int, object]], object],
        op_cost: float,
        origin: object = None,
    ) -> tuple[object, float]:
        """Deposit ``value`` (recorded with ``origin``) for collective
        ``call_index`` and await the result.

        Returns ``(result, result_time)`` where ``result_time`` is the
        simulated completion instant shared by all participants.  The last
        arrival computes the result, marks its parked peers runnable and
        keeps the baton; every other arrival parks and hands it off.
        """
        self._check_abort()
        slot = self._slots.setdefault(call_index, _Slot(tag))
        if slot.tag != tag:
            first, first_origin = next(iter(slot.origins.items()))
            raise MpiSemanticsError(
                "MOD051", "mismatch",
                f"collective mismatch at call {call_index}: rank {rank} issued "
                f"{tag!r} but another rank issued {slot.tag!r}",
                (rank, first), (origin, first_origin),
                call_index=call_index, tags=(tag, slot.tag),
            )
        if rank in slot.values:
            raise MpiSemanticsError(
                "MOD051", "twice",
                f"rank {rank} issued collective call {call_index} twice",
                (rank,), (origin,), call_index=call_index, tags=(tag,),
            )
        slot.values[rank] = value
        slot.origins[rank] = origin
        slot.result_time = max(slot.result_time, arrival_time)
        if len(slot.values) == self.n_ranks:
            slot.result = combine(slot.values)
            slot.result_time += op_cost
            slot.done = True
            for peer in slot.values.keys() - {rank}:
                del self._parked[peer]
                self._runnable.add(peer)
        else:
            self._parked[rank] = call_index
            self.hand_off()
            self.wait_turn(rank)
            if not slot.done:  # released by an abort, not by the last arrival
                self._check_abort()
        slot.retrieved += 1
        if slot.retrieved == self.n_ranks:
            del self._slots[call_index]
        return slot.result, slot.result_time


class WindowSet:
    """The windows created by one collective ``win_create`` call.

    Gives a rank one-sided access to every peer's window while charging the
    sender's clock for the transfer, exactly like an RDMA put: the receiving
    CPU is not involved.
    """

    __slots__ = ("_windows", "_comm")

    def __init__(self, windows: Sequence[Window], comm: "SimComm") -> None:
        self._windows = tuple(windows)
        self._comm = comm

    @property
    def local(self) -> Window:
        """The window registered by the calling rank."""
        return self._windows[self._comm.rank]

    def put(self, target_rank: int, offset: int, data: RowVector, rows=None) -> None:
        """One-sided write of ``data`` — or only its rows at positions
        ``rows``, a gathering put — at ``offset`` on ``target_rank``.

        The sender's clock is charged ``transfer_cost × (1 − overlap)``;
        the overlap discount models asynchronous RDMA writes hidden behind
        the partitioning loop (paper Section 4.1.1).

        Under fault injection a network put may be dropped in transit: the
        failed attempt charges the full transfer cost plus an exponential
        backoff wait before re-sending, and an exhausted retry budget
        raises :class:`~repro.errors.RetryBudgetExceeded`.  Self-puts are
        local memcpys and never fail.
        """
        comm = self._comm
        if comm.halted is not None:
            return
        n_rows = len(data) if rows is None else len(rows)
        payload = n_rows * data.element_type.row_size_bytes()
        cost = comm.cost.transfer_cost(payload)
        if target_rank == comm.rank:
            cost = comm.cost.copy_cost(payload)
        else:
            cost *= 1.0 - comm.cost.network_overlap
            faults = comm.faults
            if faults is not None:
                comm._inject_faults(
                    faults.put_drops, f"put->{target_rank}", "put_drop", cost,
                    f"put to rank {target_rank} from rank {comm.rank}",
                    target_rank,
                )
                if comm.halted is not None:
                    return
        window = self._windows[target_rank]
        origin = None
        sanitizer = comm.sanitizer
        if sanitizer is not None:  # it digests the rows as they travel
            sent = data if rows is None else data.take(rows)
            origin = sanitizer.on_put(window, offset, sent, comm.rank)
        window.write(offset, data, comm.rank, rows, origin)
        start = comm.clock.now
        comm.clock.advance(cost)
        trace = comm.world.trace
        if trace is not None:
            trace.emit(
                comm.rank, "put", f"put->{target_rank}", start, comm.clock.now,
                PutDetail(
                    target=target_rank, rows=n_rows, bytes=payload, seconds=cost
                ),
            )

    def get(self, target_rank: int, start: int, stop: int) -> RowVector:
        """One-sided read of rows ``[start, stop)`` from ``target_rank``."""
        data = self._windows[target_rank].read(start, stop)
        if target_rank != self._comm.rank:
            self._comm.clock.advance(self._comm.cost.transfer_cost(data.size_bytes()))
        return data

    def flush(self) -> None:
        """Complete this rank's outstanding puts (``MPI_Win_flush``).

        Passive-target synchronization: unlike ``fence`` this is *not*
        collective — only the calling rank's transfers are forced out, and
        its buffers may be reused afterwards.  The simulation performs puts
        eagerly, so flushing charges only the residual network time the
        overlap discount deferred.
        """
        self._comm.clock.advance(self._comm.cost.net_latency)

    def fence(self) -> None:
        """Collective epoch boundary: all outstanding puts complete here."""
        self._comm.fence(self)

    def _end_epochs(self) -> None:
        sanitizer = self._comm.sanitizer
        for window in self._windows:
            if sanitizer is not None:
                sanitizer.on_fence(window)
            window.end_epoch()


class SimComm:
    """Per-rank communicator handle (the simulation's ``MPI_COMM_WORLD``)."""

    def __init__(self, world: CommWorld, rank: int, clock: SimClock) -> None:
        self.world = world
        self.rank = rank
        self.clock = clock
        #: Per-rank fault-decision handle, or None when no faults can fire
        #: (the hot comm paths then pay a single ``is None`` check).
        self.faults: "RankFaults | None" = None
        #: Runtime-sanitizer job (MOD05x) shared by every rank of this MPI
        #: job, or None on unsanitized runs (same ``is None`` discipline).
        self.sanitizer: "SanitizerJob | None" = None
        #: The lockstep job's group issuing this rank's collectives, or None
        #: when the rank runs an SPMD function on its own thread.
        self.group: "CommGroup | None" = None
        #: In a lockstep job, the abort this rank met (see :meth:`_halt`).
        self.halted: SimulationError | None = None
        self._call_index = 0

    @property
    def n_ranks(self) -> int:
        return self.world.n_ranks

    @property
    def cost(self) -> CostModel:
        return self.world.cost

    # -- fault injection hooks -------------------------------------------------

    def _inject_faults(
        self,
        drops: Callable[[], bool],
        op: str,
        fault: str,
        lost_cost: float,
        what: str,
        target: int = -1,
    ) -> None:
        """The fault-injection hook of one comm operation ``op``.

        Fires a due rank crash, then charges every injected drop — the
        lost attempt plus its backoff wait, traced as one ``fault`` and
        one ``retry`` event — until the operation gets through or the
        retry budget is spent.
        """
        faults, clock, trace = self.faults, self.clock, self.world.trace
        try:
            faults.check_crash(clock.now)
        except RankCrashError as exc:
            if trace is not None:
                trace.emit(
                    self.rank, "fault", "crash", clock.now, clock.now,
                    FaultDetail(fault="crash", target=self.rank),
                )
            self._halt(exc)
            return
        attempt = 1
        while drops():
            fault_start = clock.now
            clock.advance(lost_cost)
            retry_start = clock.now
            backoff = faults.backoff(attempt)
            clock.advance(backoff)
            if trace is not None:
                trace.emit(
                    self.rank, "fault", fault, fault_start, retry_start,
                    FaultDetail(fault=fault, attempt=attempt, target=target),
                )
                trace.emit(
                    self.rank, "retry", op, retry_start, clock.now,
                    RetryDetail(op=op, attempt=attempt, backoff=backoff),
                )
            if attempt >= faults.max_attempts:
                self._halt(RetryBudgetExceeded(
                    f"{what} dropped {attempt} times; retry budget exhausted",
                    sim_time=clock.now,
                ))
                return
            attempt += 1

    def _halt(self, exc: SimulationError) -> None:
        """This rank meets ``exc``, which aborts its job.  On the rank's own
        thread it raises.  In a lockstep job the rank issues nothing more,
        and its group raises ``exc`` once every peer has reached the next
        collective, as the peers of a rank thread run on until they meet
        the abort there."""
        if self.group is None:
            raise exc
        exc.add_note(f"raised on rank {self.rank}")
        self.halted = exc
        self.group.halts.append(exc)

    def _collect(
        self,
        tag: str,
        value: object,
        combine: Callable[[dict[int, object]], object],
        op_cost: float,
    ) -> object:
        index, origin, arrival = self._arrive(tag)
        result, result_time = self.world.rendezvous(
            index, tag, self.rank, value, arrival, combine, op_cost, origin
        )
        self._leave(tag, arrival, result_time, op_cost)
        return result

    def _arrive(self, tag: str) -> tuple[int, object, float]:
        """This rank reaching collective ``tag``: ⟨call index, origin, arrival⟩."""
        faults = self.faults
        if faults is not None:
            # Retry a lost *contribution* before the single rendezvous call,
            # keeping the collective call-index protocol identical across
            # ranks; the delayed arrival time stalls peers naturally.
            self._inject_faults(
                faults.collective_drops, tag, "collective_drop",
                self.cost.net_latency,
                f"contribution of rank {self.rank} to collective {tag!r}",
            )
            if self.halted is not None:
                return self._call_index, None, self.clock.now
        index = self._call_index
        self._call_index += 1
        sanitizer = self.sanitizer
        origin = None if sanitizer is None else sanitizer.on_collective()
        return index, origin, self.clock.now

    def _leave(self, tag: str, arrival: float, result_time: float, op_cost: float) -> None:
        """This rank leaving the completed collective ``tag``."""
        self.clock.advance_to(result_time)
        if self.world.trace is not None:
            self.world.trace.emit(
                self.rank, "collective", tag, arrival, result_time,
                CollectiveDetail(stall=max(0.0, result_time - op_cost - arrival)),
            )

    # -- collectives -----------------------------------------------------------

    def barrier(self) -> None:
        """Synchronize all ranks (no data)."""
        self._collect(
            "barrier", None, lambda values: None, self.cost.collective_cost(self.n_ranks)
        )

    def allreduce(self, array: np.ndarray, op: str = "sum") -> np.ndarray:
        """Element-wise reduction of ``array`` across ranks (``MPI_Allreduce``).

        This is what ``MpiHistogram`` uses to turn local histograms into the
        global one (paper Section 3.3.3).
        """
        array = np.asarray(array)
        cost = self.cost.collective_cost(self.n_ranks, array.nbytes)
        return self._collect(f"allreduce:{op}", array, _reducer(op), cost)

    def allgather(self, value: object, payload_bytes: int = 64) -> list:
        """Gather one value from every rank, delivered to all ranks."""

        cost = self.cost.collective_cost(self.n_ranks, payload_bytes * self.n_ranks)
        return self._collect("allgather", value, _in_rank_order, cost)

    def win_create(self, element_type: TupleType, capacity: int) -> WindowSet:
        """Collectively register one RMA window per rank (``MPI_Win_create``).

        Each rank pays the registration (pinning) cost of its own window
        *before* the collective synchronization, so a rank registering a
        large window stalls everyone — the window-allocation tail latency
        the paper observes in the network-partitioning phase.
        """
        window = self._register(element_type, capacity)
        windows = self._collect(
            "win_create", window, _in_rank_order, self.cost.collective_cost(self.n_ranks)
        )
        return WindowSet(windows, self)

    def _register(self, element_type: TupleType, capacity: int) -> Window:
        """This rank's window, its registration charged and traced."""
        window = Window(self.rank, element_type, capacity)
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.on_win_create(window, self.rank)
        start = self.clock.now
        self.clock.advance(self.cost.window_registration_cost(window.size_bytes()))
        if self.world.trace is not None:
            self.world.trace.emit(
                self.rank, "win_create", repr(element_type), start, self.clock.now,
                WindowDetail(bytes=window.size_bytes(), rows=capacity),
            )
        return window

    def fence(self, window_set: WindowSet) -> None:
        """Collective RMA epoch boundary (``MPI_Win_fence``)."""

        def combine(values: dict[int, object]) -> None:
            window_set._end_epochs()
            return None

        self._collect("fence", None, combine, self.cost.collective_cost(self.n_ranks))


class CommGroup:
    """Every rank's communicator of one job, issuing each collective at once.

    The lockstep counterpart of the rendezvous: one call takes every rank's
    contribution, and each rank's clock, call index, faults, sanitizer
    record and trace move exactly as if that rank had issued the collective
    itself (each arrives at its own clock, all leave at the latest arrival
    plus the collective's cost).
    A collective of a plan is rank-uniform by construction, so no rank can
    issue another one: the origins the rendezvous keeps to name the two
    sides of a MOD051 mismatch have nothing to name here.
    """

    def __init__(self, comms: Sequence[SimComm]) -> None:
        self.comms = tuple(comms)
        self.cost = self.comms[0].cost
        #: The aborts ranks of the job met, oldest first (``SimComm._halt``).
        self.halts: list[SimulationError] = []
        for comm in self.comms:
            comm.group = self

    def check(self) -> None:
        """Raise the first abort a rank met, now that every rank has run up
        to the collective where a rank thread meets it."""
        if self.halts:
            primary, *others = self.halts
            primary.secondary_errors = tuple(others)
            for other in others:
                primary.add_note(f"secondary rank failure: {type(other).__name__}: {other}")
            raise primary

    def _collect(self, tag: str, values: list, combine, op_cost: float) -> object:
        # Each rank arrives in rank order (a fault may delay it, or abort the
        # job at that rank's clock); all leave at the latest arrival.
        arrivals = [
            comm._arrive(tag)[2] if comm.halted is None else 0.0 for comm in self.comms
        ]
        self.check()
        result = combine(dict(enumerate(values)))
        result_time = max(0.0, *arrivals) + op_cost
        for comm, arrival in zip(self.comms, arrivals):
            comm._leave(tag, arrival, result_time, op_cost)
        return result

    def allreduce(self, arrays: list[np.ndarray], op: str = "sum") -> np.ndarray:
        arrays = [np.asarray(array) for array in arrays]
        cost = self.cost.collective_cost(len(arrays), arrays[-1].nbytes)
        return self._collect(f"allreduce:{op}", arrays, _reducer(op), cost)

    def allgather(self, values: list, payload_bytes: int = 64) -> list:
        cost = self.cost.collective_cost(len(values), payload_bytes * len(values))
        return self._collect("allgather", values, _in_rank_order, cost)

    def win_create(self, element_type: TupleType, capacities: list[int]) -> list[WindowSet]:
        windows = [
            comm._register(element_type, capacity) if comm.halted is None else None
            for comm, capacity in zip(self.comms, capacities)
        ]
        shared = self._collect(
            "win_create", windows, _in_rank_order,
            self.cost.collective_cost(len(windows)),
        )
        return [WindowSet(shared, comm) for comm in self.comms]

    def fence(self, window_sets: list[WindowSet]) -> None:
        self._collect(
            "fence", [None] * len(window_sets),
            lambda values: window_sets[0]._end_epochs(),
            self.cost.collective_cost(len(window_sets)),
        )

