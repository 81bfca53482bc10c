"""Scan/materialize sub-operators for the ChunkedRowVector format.

Design principle 2 of the paper (§3.1): *"Each physical (in-memory)
materialization format is handled by a dedicated set of
read/write/build/... sub-operators.  This decouples the processing of data
from where and how it is stored."*  The worked example in the paper is
that "a single partitioning sub-operator implementation can consume inputs
of two different scan operators".

These two operators are the dedicated set for the chunked format: nothing
else in the library knows what a :class:`ChunkedRowVector` looks like
inside, and any operator that consumes tuples (histograms, filters, joins,
partitioners) works identically behind a ``ChunkScan`` or a ``RowScan`` —
the property ``tests/test_operators_chunks.py`` demonstrates.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.context import ExecutionContext
from repro.core.lockstep import Lockstep, Step, drained_parts, each_lane, pulled, scanned
from repro.core.operator import Operator, scanned_collection
from repro.errors import ExecutionError, TypeCheckError
from repro.types.collections import ChunkedRowVector, RowVector, chunked_type
from repro.types.tuples import TupleType

__all__ = ["ChunkScan", "MaterializeChunks"]


class ChunkScan(Operator):
    """Yield the element tuples of chunked collections arriving upstream.

    It emits each stored chunk directly as a batch — the chunked format is
    its own natural morsel source.
    """

    abbreviation = "CS"

    def __init__(self, upstream: Operator, field: str | None = None) -> None:
        self.field = field
        super().__init__(upstreams=(upstream,))
        if field is None:
            self.field = self._scanned(upstream.output_type)[0]
        self._position = upstream.output_type.position(self.field)
        self._scan_weight = max(1, round(self._output_type.row_size_bytes() / 16))

    def _scanned(self, upstream_type: TupleType):
        return scanned_collection(
            "ChunkScan", upstream_type, self.field, "ChunkedRowVector"
        )

    def infer_type(self, upstream_types):
        return self._scanned(upstream_types[0])[1].element_type

    def signature(self) -> tuple:
        return (self.field,)

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        return scanned(self, lx, self._read)

    def _read(self, ctx: ExecutionContext, collection: ChunkedRowVector):
        if collection.element_type != self.output_type:
            raise ExecutionError(
                f"ChunkScan expected {self.output_type!r} elements, found "
                f"{collection.element_type!r}"
            )
        return len(collection), collection.chunks


class MaterializeChunks(Operator):
    """Collect the upstream stream into a ChunkedRowVector of bounded chunks.

    The counterpart of :class:`ChunkScan`; like ``MaterializeRowVector`` it
    returns a single tuple whose one field holds the collection, and it
    charges the memory-bandwidth cost of the copy (without the realloc
    amplification: bounded chunks are allocated at their final size — the
    structural advantage of a paged format).
    """

    abbreviation = "MC"
    phase_name = "materialize"
    breaks_pipeline = True
    cardinality = "one"

    def __init__(self, upstream: Operator, chunk_rows: int, field: str = "data") -> None:
        if chunk_rows < 1:
            raise TypeCheckError(f"chunk size must be positive, got {chunk_rows}")
        self.chunk_rows = chunk_rows
        self.field = field
        super().__init__(upstreams=(upstream,))

    def infer_type(self, upstream_types):
        return TupleType.of(**{self.field: chunked_type(upstream_types[0])})

    def signature(self) -> tuple:
        return (self.field, self.chunk_rows)

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        element_type = self.upstreams[0].output_type
        outputs = []
        for ctx, parts in zip(lx.ctxs, drained_parts(pulled(self.upstreams[0], lx), lx)):
            data = RowVector.concat(element_type, parts)
            collection = ChunkedRowVector.from_row_vector(data, self.chunk_rows)
            ctx.set_phase(self.assigned_phase)
            ctx.clock.advance(ctx.cost.copy_cost(collection.size_bytes()), jitter=True)
            outputs.append(RowVector.of_row(self.output_type, (collection,)))
        yield each_lane(outputs)
