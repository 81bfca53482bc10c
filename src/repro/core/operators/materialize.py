"""MaterializeRowVector: collect a stream into one collection (§3.3.4).

The counterpart of ``RowScan`` and the operator that ends every nested
plan: it consumes the whole upstream, builds a ``RowVector``, and returns a
*single* tuple whose one field holds that collection.  It charges the
memory-bandwidth cost of the copy (with the realloc growth amplification
the paper observes in §5.1.2).

Materialization points are also the engine's recovery boundaries: when a
worker runs under pipeline-level recovery (:mod:`repro.faults`), each
finished collection is deposited into the stage's
:class:`~repro.faults.checkpoint.CheckpointStore`, and a stage
re-execution serves sealed checkpoints instead of recomputing the
upstream pipeline — paying only the copy cost of re-reading them.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.context import ExecutionContext
from repro.core.lockstep import Lockstep, Step, drained_parts, each_lane, pulled
from repro.core.operator import Operator
from repro.observability.events import RecoveryDetail
from repro.types.collections import RowVector, RowVectorBuilder, row_vector_type
from repro.types.tuples import TupleType

__all__ = ["MaterializeRowVector"]


class MaterializeRowVector(Operator):
    """Materialize upstream tuples into a RowVector, returned as one tuple.

    Args:
        upstream: The stream to materialize.
        field: Name of the single output field holding the collection.
    """

    abbreviation = "MR"
    phase_name = "materialize"
    breaks_pipeline = True
    cardinality = "one"

    def __init__(self, upstream: Operator, field: str = "data") -> None:
        self.field = field
        super().__init__(upstreams=(upstream,))

    def infer_type(self, upstream_types):
        return TupleType.of(**{self.field: row_vector_type(upstream_types[0])})

    def signature(self) -> tuple:
        return (self.field,)

    # -- checkpointing (pipeline-level recovery) ------------------------------

    def _checkpoint_store(self, ctx: ExecutionContext):
        """The stage's checkpoint store, or None outside the worker top scope.

        Eligibility requires exactly the enclosing MPI executor's own input
        binding to be active: nested ``NestedMap`` invocations run once per
        input tuple and have no stable cross-attempt identity to key on.
        """
        store = ctx.checkpoints
        if store is None or store.slot_id != ctx.single_binding_slot():
            return None
        return store

    def _serve_checkpoint(
        self, ctx: ExecutionContext, vector: RowVector
    ) -> RowVector:
        """Charge the re-read of a sealed checkpoint and trace the hit."""
        start = ctx.clock.now
        ctx.charge_materialize(self, vector.size_bytes())
        ctx.account_memory(vector.owned_bytes())
        # A store exists only inside an MPI stage, so there is a comm; the
        # ``checkpoint_hits`` metric is folded from this one event.
        trace = ctx.comm.world.trace
        if trace is not None:
            trace.emit(
                ctx.rank, "recovery", "checkpoint_hit", start, ctx.clock.now,
                RecoveryDetail(action="checkpoint_hit", stage=self.label()),
            )
        return vector

    # -- data path -------------------------------------------------------------

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        # A stage's checkpoints serve every lane of the job or none: each
        # rank deposits at the same materialization point.
        store = self._checkpoint_store(lx.ctxs[0])
        sealed = [store.lookup(id(self), ctx.rank) for ctx in lx.ctxs] if store else []
        if sealed and all(vector is not None for vector in sealed):
            for ctx, vector in zip(lx.ctxs, sealed):
                self._serve_checkpoint(ctx, vector)
        else:
            sealed = []
            parts = drained_parts(pulled(self.upstreams[0], lx), lx)
            for ctx, lane_parts in zip(lx.ctxs, parts):
                # Bulk-append drain: whole morsels flow into the builder via
                # extend_vector, so no row is ever pythonized on this path
                # (and adjacent slice morsels re-merge zero-copy in finish()).
                builder = RowVectorBuilder(self.upstreams[0].output_type)
                for part in lane_parts:
                    builder.extend_vector(part)
                vector = builder.finish()
                ctx.charge_materialize(self, vector.size_bytes())
                # Accounting uses owned_bytes: when finish() re-merged the
                # morsel stream into a zero-copy view of upstream storage,
                # no new resident bytes exist to count.
                ctx.account_memory(vector.owned_bytes())
                if store is not None:
                    store.deposit(id(self), ctx.rank, vector)
                sealed.append(vector)
        yield each_lane([
            RowVector.of_row(self.output_type, (vector,)) for vector in sealed
        ])
