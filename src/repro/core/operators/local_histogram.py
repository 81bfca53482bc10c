"""LocalHistogram: bucket counts of a stream (§3.3.2).

The first phase of every partitioned algorithm in the paper: count how many
tuples fall into each of ``n`` buckets so that the partitioning operators
can compute exact offsets and write without synchronization.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.functions import PartitionFunction
from repro.core.kernels.scatter import bucket_counts
from repro.core.lockstep import Lockstep, Step, each_lane, pulled
from repro.core.operator import Operator
from repro.errors import ExecutionError, TypeCheckError
from repro.types.atoms import INT64
from repro.types.collections import RowVector
from repro.types.tuples import TupleType

__all__ = [
    "HISTOGRAM_TYPE", "LocalHistogram", "histogram_step", "read_histograms",
    "require_histogram",
]

#: ⟨bucketID, count⟩ — the type both histogram operators produce.
HISTOGRAM_TYPE = TupleType.of(bucket=INT64, count=INT64)


def require_histogram(op_name: str, role: str, got: TupleType) -> None:
    """Fail unless a histogram-consuming operator's side input is a histogram."""
    if got != HISTOGRAM_TYPE:
        raise TypeCheckError(
            f"{op_name}'s {role} histogram upstream must produce "
            f"{HISTOGRAM_TYPE!r}, got {got!r}",
            "MOD004",
        )


def read_histograms(lx: Lockstep, upstream: Operator, n_partitions: int) -> np.ndarray:
    """Drain a ⟨bucket, count⟩ upstream into a dense ``[lane, partition]``
    array of counts.

    The one consumer-side histogram reader, shared by ``LocalPartitioning``,
    ``MpiExchange`` and ``MpiHistogram``: empty morsels are skipped *before*
    the bucket range is validated, so a histogram delivered as (or padded
    with) empty morsels never trips ``min()`` on an empty column.
    """
    counts = np.zeros((len(lx.ctxs), n_partitions), dtype=np.int64)
    for step in pulled(upstream, lx):
        for lane, batch in zip(step.lanes, step.parts):
            if len(batch) == 0:
                continue
            buckets = batch.column("bucket")
            if not (0 <= int(buckets.min()) and int(buckets.max()) < n_partitions):
                raise ExecutionError(f"histogram bucket outside [0, {n_partitions})")
            np.add.at(counts[lane], buckets, batch.column("count"))
    return counts


def histogram_step(counts: np.ndarray) -> Step:
    """⟨bucket, count⟩ rows of each lane's histogram (``counts[lane]``)."""
    buckets = np.arange(counts.shape[1], dtype=np.int64)
    return each_lane([RowVector(HISTOGRAM_TYPE, [buckets, lane]) for lane in counts])


class LocalHistogram(Operator):
    """Count upstream tuples per bucket; yields one ⟨bucketID, count⟩ per bucket.

    The bucket function must return integers in ``[0, n_buckets)``; every
    bucket id is emitted (with count 0 if empty) in increasing order, which
    is what lets downstream operators rely on dense, ordered histograms.
    """

    abbreviation = "LH"
    phase_name = "local_histogram"
    breaks_pipeline = True

    def __init__(self, upstream: Operator, bucket_fn: PartitionFunction) -> None:
        self.bucket_fn = bucket_fn
        super().__init__(upstreams=(upstream,))
        bucket_fn.bind(upstream.output_type)

    def infer_type(self, upstream_types):
        self.bucket_fn.check(upstream_types[0])
        return HISTOGRAM_TYPE

    def signature(self) -> tuple:
        return (self.bucket_fn.signature(),)

    @property
    def n_buckets(self) -> int:
        return self.bucket_fn.n_partitions

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        counts = np.zeros((len(lx.ctxs), self.n_buckets), dtype=np.int64)
        totals = [0] * len(lx.ctxs)
        # A one-way function puts every row in bucket 0: count rows, not ids.
        one_way = self.bucket_fn.one_way
        for step in pulled(self.upstreams[0], lx):
            for lane, batch in zip(step.lanes, step.parts):
                if len(batch) == 0:
                    continue
                totals[lane] += len(batch)
                if not one_way:
                    buckets = self.bucket_fn.map_batch(batch)
                    counts[lane] += bucket_counts(buckets, self.n_buckets)
        if one_way:
            counts[:, 0] = totals
        for ctx, total in zip(lx.ctxs, totals):
            ctx.charge_cpu(self, "histogram", total)
        yield histogram_step(counts)
