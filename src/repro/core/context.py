"""Execution contexts: what flows *alongside* the data path.

An :class:`ExecutionContext` carries everything a sub-operator needs beyond
its upstream iterators: the simulated clock and cost model to charge, the
communicator when running inside an MPI rank, the run's
:class:`~repro.core.options.RunOptions` (its one source of knobs, the
execution mode among them), and the parameter stack that connects
``NestedMap`` invocations to the ``ParameterLookup`` operators of their
nested plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.options import RunOptions
from repro.errors import ExecutionError
from repro.mpi.clock import SimClock
from repro.mpi.cluster import RankContext
from repro.mpi.comm import SimComm
from repro.mpi.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.observability.record import ExecutionRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.sanitizer import Sanitizer
    from repro.faults.checkpoint import CheckpointStore
    from repro.faults.injector import FaultInjector
    from repro.observability.metrics import MetricsRegistry
    from repro.observability.profile import Profiler
    from repro.observability.tracing import TraceContext

__all__ = ["ExecutionContext"]

#: Morsel auto-tuning bounds: never below a vectorization-worthy batch,
#: never above the PR-2 default that every existing plan was sized for.
_MORSEL_MIN_ROWS = 1 << 10
_MORSEL_MAX_ROWS = 1 << 16


@dataclass
class ExecutionContext:
    """Mutable per-execution state shared by all operators of one plan run."""

    #: The cost model charged: ``options.cost_model`` on the driver, the
    #: cluster's own on a rank.
    cost: CostModel = field(default_factory=lambda: DEFAULT_COST_MODEL)
    clock: SimClock = field(default_factory=SimClock)
    rank_ctx: RankContext | None = None
    #: The :class:`~repro.core.options.RunOptions` this execution runs
    #: under: the one place the data path reads its knobs from (``mode``
    #: in :meth:`overhead_for`, ``morsel_rows`` in :meth:`morsel_rows_for`,
    #: ``join_kernel`` in ``BuildProbe``), and what stage-recovery ranks and
    #: the sanitizer replay are handed whole, so a retry or a replay runs
    #: with every knob the driver ran with.
    options: RunOptions = field(default_factory=RunOptions)
    #: Per-operator profiler (:mod:`repro.observability`), the data
    #: path's one observer: timed under ``profile=True``, counts-only when
    #: only metrics are recorded.  ``None`` — the default — disables it;
    #: the data path then pays one attribute read per operator activation
    #: and allocates nothing.
    profiler: "Profiler | None" = None
    #: Work-accounting metrics registry (:mod:`repro.observability.metrics`).
    #: ``None`` — the default — disables all metric recording; the data
    #: path then pays one attribute read per operator activation.
    registry: "MetricsRegistry | None" = None
    #: Runtime sanitizer (:mod:`repro.analysis.sanitizer`) naming the
    #: operators of MOD05x findings; ``None`` — the default — keeps every
    #: sanitizer hook cold (one attribute read per operator activation).
    sanitizer: "Sanitizer | None" = None
    #: The per-execution injector realizing ``options.faults``; created
    #: fresh by ``execute`` so its crash ledger and job counter span every
    #: MPI job (and recovery attempt) of one plan run.  ``None`` — no fault
    #: policy — keeps the fault paths entirely cold.
    fault_injector: "FaultInjector | None" = None
    #: Worker-side checkpoint store of the enclosing MPI stage; deposits
    #: and lookups happen at materialization points
    #: (:class:`~repro.core.operators.materialize.MaterializeRowVector`).
    checkpoints: "CheckpointStore | None" = None
    #: Parameter bindings of active NestedMap invocations, keyed by slot id.
    _params: dict[int, tuple] = field(default_factory=dict)
    #: Bumped on every NestedMap invocation; invalidates pipeline caches.
    invocation_epoch: int = 0
    #: Materialized results of shared (multi-consumer) operators, keyed by
    #: the wrapped operator's id; see ``repro.core.plan.SharedScan``.
    shared_cache: dict[int, tuple] = field(default_factory=dict)
    #: The execution's one append-only record
    #: (:mod:`repro.observability.record`), holding the serving attempt's
    #: trace context when there is one.  Created with the driver context;
    #: ``None`` on rank contexts, whose evidence the driver appends when
    #: their wave completes.  The data path never reads it.
    record: ExecutionRecord | None = field(default_factory=ExecutionRecord)

    # -- distributed facets -------------------------------------------------

    @property
    def comm(self) -> SimComm:
        """The rank's communicator; only available inside an MPI worker."""
        if self.rank_ctx is None:
            raise ExecutionError(
                "this operator needs an MPI cluster; wrap the plan in MpiExecutor"
            )
        return self.rank_ctx.comm

    @property
    def rank(self) -> int:
        return self.rank_ctx.rank if self.rank_ctx is not None else 0

    @property
    def n_ranks(self) -> int:
        return self.rank_ctx.n_ranks if self.rank_ctx is not None else 1

    # -- morsel granularity ---------------------------------------------------

    def morsel_rows_for(self, element_type) -> int:
        """Rows per morsel for an operator producing ``element_type``.

        An explicit ``options.morsel_rows`` pins the size.  Otherwise the size
        is tuned so one morsel of this row width fills half the machine's
        L3 cache (leaving the other half for the consumer's state), clamped
        to sane bounds — wide rows get smaller morsels, narrow rows larger
        ones, and the batch working set stays cache-resident either way.
        """
        if self.options.morsel_rows is not None:
            return self.options.morsel_rows
        row_bytes = max(1, element_type.row_size_bytes())
        budget = self.cost.cache_budget_bytes
        return max(_MORSEL_MIN_ROWS, min(_MORSEL_MAX_ROWS, budget // row_bytes))

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_options(
        cls, options: RunOptions, trace: "TraceContext | None" = None
    ) -> "ExecutionContext":
        """A fresh driver context running under ``options``, charging at
        their cost model and recording under ``trace`` (the serving
        attempt's span, if any)."""
        return cls(
            record=ExecutionRecord(trace), cost=options.cost_model, options=options
        )

    @classmethod
    def for_rank(
        cls,
        rank_ctx: RankContext,
        options: RunOptions = RunOptions(),
        profiler: "Profiler | None" = None,
        registry: "MetricsRegistry | None" = None,
        checkpoints: "CheckpointStore | None" = None,
        sanitizer: "Sanitizer | None" = None,
    ) -> "ExecutionContext":
        """The context a worker uses to execute a nested plan on its rank.

        It runs under the driver's ``options`` object, whole, and charges
        at its cluster's cost model on the rank's own clock.
        """
        return cls(
            cost=rank_ctx.cost,
            clock=rank_ctx.clock,
            rank_ctx=rank_ctx,
            options=options,
            profiler=profiler,
            registry=registry,
            checkpoints=checkpoints,
            sanitizer=sanitizer,
            record=None,
        )

    # -- cost charging --------------------------------------------------------

    def overhead_for(self, pipeline_size: int) -> float:
        """Execution-layer multiplier on CPU work for one operator.

        Mirrors the paper's observation (§5.1): operators isolated in small
        pipelines compile to code as good as (or better than) hand-written
        loops, while operators buried in long pipelines keep some abstraction
        overhead that the compiler cannot remove.
        """
        if self.options.mode == "interpreted":
            return self.cost.interpreted_overhead
        if pipeline_size <= self.cost.small_pipeline_max_ops:
            return self.cost.small_pipeline_overhead
        return self.cost.fused_overhead

    def set_phase(self, phase: str) -> None:
        """Attribute subsequent clock advances (incl. comm costs) to ``phase``."""
        self.clock.phase = phase

    def charge_cpu(self, op, kind: str, tuples: int) -> None:
        """Charge per-tuple CPU work of class ``kind`` on behalf of ``op``.

        The operator supplies the phase label and its pipeline size (which
        determines the abstraction-overhead multiplier).
        """
        if tuples <= 0:
            return
        self.set_phase(op.assigned_phase)
        seconds = self.cost.cpu_cost(kind, tuples, self.overhead_for(op.pipeline_size))
        self.clock.advance(seconds, jitter=True)

    def charge_materialize(self, op, payload_bytes: int) -> None:
        if payload_bytes > 0:
            self.set_phase(op.assigned_phase)
            self.clock.advance(self.cost.materialize_cost(payload_bytes), jitter=True)

    # -- memory accounting ----------------------------------------------------

    def account_memory(self, payload_bytes: int) -> None:
        """Record that a materialized collection of ``payload_bytes`` exists.

        The storage layer calls this wherever a whole ``RowVector`` is
        resident (materialization points, checkpoint re-reads); with
        metrics enabled it feeds the ``materialized_bytes`` counter and
        the ``rowvector_peak_bytes`` high-water gauge, otherwise it is a
        single attribute read.
        """
        registry = self.registry
        if registry is not None and payload_bytes > 0:
            registry.account_memory(payload_bytes)

    # -- nested-plan parameters -----------------------------------------------

    def push_parameter(self, slot_id: int, value: tuple) -> None:
        if slot_id in self._params:
            raise ExecutionError(f"parameter slot {slot_id} is already bound")
        self._params[slot_id] = value
        self.invocation_epoch += 1

    def pop_parameter(self, slot_id: int) -> None:
        if slot_id not in self._params:
            raise ExecutionError(f"parameter slot {slot_id} is not bound")
        binding = (slot_id, id(self._params[slot_id]))
        del self._params[slot_id]
        # Drop shared-result caches that depended on this binding: the bound
        # tuple may be garbage collected and its id reused, which would
        # otherwise let a later invocation read a stale materialization.
        stale = [
            key
            for key, (binding_key, _vector) in self.shared_cache.items()
            if binding in binding_key
        ]
        for key in stale:
            del self.shared_cache[key]

    def single_binding_slot(self) -> int | None:
        """Slot id of the only active parameter binding, else ``None``.

        Checkpointing uses this to recognize the worker's *top scope*:
        exactly the MPI executor's own input binding active, no nested
        ``NestedMap`` invocation on the stack.
        """
        if len(self._params) != 1:
            return None
        return next(iter(self._params))

    def parameter_binding_key(self) -> tuple:
        """Identity of the current nested-plan bindings, for result caching."""
        return tuple(sorted((k, id(v)) for k, v in self._params.items()))

    def lookup_parameter(self, slot_id: int) -> tuple:
        try:
            return self._params[slot_id]
        except KeyError:
            raise ExecutionError(
                f"ParameterLookup for slot {slot_id} executed outside its NestedMap"
            ) from None
