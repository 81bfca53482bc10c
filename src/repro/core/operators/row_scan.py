"""RowScan: unnest a collection field into a stream of tuples (§3.3.4).

The basic input-reading operator of Modularis.  Its upstream produces
tuples that contain a ``RowVector`` collection; RowScan yields the rows of
each such collection as zero-copy morsels.  Together with
``MaterializeRowVector`` it is the *only* data processing operator that
knows the physical layout of a RowVector — design principle 2 of
Section 3.1.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.context import ExecutionContext
from repro.core.lockstep import Lockstep, Step, scanned
from repro.core.operator import Operator, scanned_collection
from repro.errors import ExecutionError
from repro.mpi.cluster import block_share
from repro.types.collections import RowVector
from repro.types.tuples import TupleType

__all__ = ["RowScan"]


class RowScan(Operator):
    """Yield the element tuples of each collection arriving from upstream.

    Args:
        upstream: Operator producing tuples with a collection field.
        field: Name of the collection field; may be omitted when the
            upstream tuples have exactly one field.
        shard_by_rank: When executing inside an MPI worker, scan only this
            rank's contiguous block of each collection — the paper's "each
            process reads its part of the input" for base tables that every
            worker can reach (shared file system / NFS in the paper).
    """

    abbreviation = "RS"

    def __init__(
        self,
        upstream: Operator,
        field: str | None = None,
        shard_by_rank: bool = False,
    ) -> None:
        self.field = field
        self.shard_by_rank = shard_by_rank
        super().__init__(upstreams=(upstream,))
        if field is None:
            self.field = self._scanned(upstream.output_type)[0]
        self._position = upstream.output_type.position(self.field)
        # Wide rows cost proportionally more to stream through memory; the
        # cost model's per-tuple scan rate is calibrated for the paper's
        # 16-byte workload tuples.
        self._scan_weight = max(1, round(self._output_type.row_size_bytes() / 16))

    def _scanned(self, upstream_type: TupleType):
        return scanned_collection("RowScan", upstream_type, self.field, "RowVector")

    def infer_type(self, upstream_types):
        return self._scanned(upstream_types[0])[1].element_type

    def signature(self) -> tuple:
        return (self.field, self.shard_by_rank)

    def _shard(self, ctx: ExecutionContext, collection: RowVector) -> RowVector:
        if not self.shard_by_rank or ctx.n_ranks == 1:
            return collection
        return collection.slice(*block_share(len(collection), ctx.n_ranks, ctx.rank))

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        return scanned(self, lx, self._read)

    def _read(self, ctx: ExecutionContext, collection: RowVector):
        """``collection`` as ``ctx``'s rank reads it: type-checked, sharded,
        counted, in morsels."""
        if collection.element_type != self.output_type:
            # Cannot happen for plans that passed type checking over checked
            # inputs, but a corrupted collection must not silently mis-scan.
            raise ExecutionError(
                f"RowScan expected {self.output_type!r} elements, "
                f"found {collection.element_type!r}"
            )
        sharded = self._shard(ctx, collection)
        metrics = ctx.registry
        if metrics is not None:
            metrics.counter("scan_rows", op=type(self).__name__).add(len(sharded))
            metrics.counter("scan_bytes", op=type(self).__name__).add(
                sharded.size_bytes()
            )
        morsel_rows = ctx.morsel_rows_for(self.output_type)
        if len(sharded) <= morsel_rows:
            return len(sharded), [sharded]
        return len(sharded), [
            sharded.slice(start, min(start + morsel_rows, len(sharded)))
            for start in range(0, len(sharded), morsel_rows)
        ]
