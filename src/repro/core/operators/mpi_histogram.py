"""MpiHistogram: combine local histograms into the global one (§3.3.3).

Implemented with ``MPI_Allreduce``, exactly as in the paper.  Because the
collective waits for every rank, a rank that was slow in the preceding
local-histogram phase stalls all others here — the tail-latency effect the
paper identifies as the main cost of running the two join sides through
separate collective epochs (§5.1.2, "global histogram phase").
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.context import ExecutionContext
from repro.core.operator import Operator
from repro.core.operators.local_histogram import HISTOGRAM_TYPE, require_histogram
from repro.errors import ExecutionError, TypeCheckError
from repro.types.collections import RowVector

__all__ = ["MpiHistogram"]


class MpiHistogram(Operator):
    """Consume ⟨bucketID, count⟩ pairs; return global counts per bucket."""

    abbreviation = "MH"
    phase_name = "global_histogram"
    breaks_pipeline = True

    def __init__(self, upstream: Operator, n_buckets: int) -> None:
        if n_buckets < 1:
            raise TypeCheckError(f"need >= 1 bucket, got {n_buckets}")
        self.n_buckets = n_buckets
        super().__init__(upstreams=(upstream,))

    def infer_type(self, upstream_types):
        require_histogram("MpiHistogram", "input", upstream_types[0])
        return HISTOGRAM_TYPE

    def signature(self) -> tuple:
        return (self.n_buckets,)

    def _global_counts(self, ctx: ExecutionContext) -> np.ndarray:
        local = np.zeros(self.n_buckets, dtype=np.int64)
        for batch in self.upstreams[0].stream_batches(ctx):
            if len(batch) == 0:
                continue
            buckets = batch.column("bucket")
            if not (0 <= int(buckets.min()) and int(buckets.max()) < self.n_buckets):
                raise ExecutionError(
                    f"histogram bucket outside [0, {self.n_buckets})"
                )
            np.add.at(local, buckets, batch.column("count"))
        ctx.set_phase(self.assigned_phase)
        return ctx.comm.allreduce(local, op="sum")

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        counts = self._global_counts(ctx)
        for bucket in range(self.n_buckets):
            yield (bucket, int(counts[bucket]))

    def batches(self, ctx: ExecutionContext) -> Iterator[RowVector]:
        counts = self._global_counts(ctx)
        yield RowVector(
            HISTOGRAM_TYPE, [np.arange(self.n_buckets, dtype=np.int64), counts]
        )
