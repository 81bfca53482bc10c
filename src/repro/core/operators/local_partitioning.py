"""LocalPartitioning: split a stream into materialized partitions (§3.3.4).

Consumes the data to partition and its (local) histogram; the histogram
provides the exact per-partition sizes, so the operator computes prefix
offsets once and then scatters tuples into pre-sized partition buffers —
the cache-conscious radix-partitioning routine of the monolithic joins,
factored out as a reusable building block (design principle 1).

Yields one ⟨partitionID, partitionData⟩ pair per partition, in increasing
partition order (the dense, ordered sequence that ``Zip`` relies on).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.context import ExecutionContext
from repro.core.functions import PartitionFunction
from repro.core.kernels.scatter import partition_layout
from repro.core.lockstep import Lockstep, Step, drained_vectors, each_lane, pulled
from repro.core.operator import Operator
from repro.core.operators.local_histogram import read_histograms, require_histogram
from repro.errors import ExecutionError
from repro.types.atoms import INT64
from repro.types.collections import RowVector, row_vector_type
from repro.types.tuples import TupleType

__all__ = ["LocalPartitioning"]


class LocalPartitioning(Operator):
    """Partition upstream tuples using a histogram for exact pre-sizing.

    Args:
        data: Upstream producing the tuples to partition.
        histogram: Upstream producing ⟨bucketID, count⟩ pairs (usually a
            ``LocalHistogram`` over the same input, isolated in its own
            pipeline because the input has two consumers).
        partition_fn: The same function object the histogram used.
        id_field / data_field: Output field names, so plans can give the two
            join sides distinct names before zipping them.
    """

    abbreviation = "LP"
    phase_name = "local_partition"
    breaks_pipeline = True
    side_inputs = frozenset({1})
    heavy_loop = True

    def __init__(
        self,
        data: Operator,
        histogram: Operator,
        partition_fn: PartitionFunction,
        id_field: str = "partition",
        data_field: str = "data",
    ) -> None:
        self.partition_fn = partition_fn
        self.id_field = id_field
        self.data_field = data_field
        super().__init__(upstreams=(data, histogram))
        partition_fn.bind(data.output_type)

    def infer_type(self, upstream_types):
        data_type, histogram_type = upstream_types
        require_histogram("LocalPartitioning", "local", histogram_type)
        self.partition_fn.check(data_type)
        return TupleType.of(
            **{self.id_field: INT64, self.data_field: row_vector_type(data_type)}
        )

    def signature(self) -> tuple:
        return (self.partition_fn.signature(), self.id_field, self.data_field)

    @property
    def n_partitions(self) -> int:
        return self.partition_fn.n_partitions

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        counts = read_histograms(lx, self.upstreams[1], self.n_partitions)
        data = self.upstreams[0]
        vectors = drained_vectors(data, pulled(data, lx), lx)
        yield each_lane([
            self.partition(ctx, vector, lane_counts)
            for ctx, vector, lane_counts in zip(lx.ctxs, vectors, counts)
        ])

    def partition(self, ctx: ExecutionContext, data: RowVector, counts) -> RowVector:
        """Charge and scatter ``data`` into the partitions ``counts`` sized."""
        ctx.charge_cpu(self, "partition", len(data))

        buckets = (
            self.partition_fn.map_batch(data)
            if len(data)
            else np.empty(0, dtype=np.int64)
        )
        order, observed, offsets = partition_layout(buckets, self.n_partitions)
        if not np.array_equal(observed, counts):
            raise ExecutionError(
                "partition sizes diverge from the histogram; data and histogram "
                "upstreams were not computed over the same input"
            )
        # One stable linear-time scatter: a single gather lays every
        # partition out as one contiguous region, and each emitted
        # partition is a zero-copy slice view of that region.
        scattered = data.take(order)

        partitions = np.empty(self.n_partitions, dtype=object)
        for pid in range(self.n_partitions):
            vector = scattered.slice(int(offsets[pid]), int(offsets[pid + 1]))
            ctx.charge_materialize(self, vector.size_bytes())
            partitions[pid] = vector
        return RowVector(
            self.output_type,
            [np.arange(self.n_partitions, dtype=np.int64), partitions],
        )
