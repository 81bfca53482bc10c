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

from repro.core.lockstep import Lockstep, Step
from repro.core.operator import Operator
from repro.core.operators.local_histogram import (
    HISTOGRAM_TYPE,
    histogram_step,
    read_histograms,
    require_histogram,
)
from repro.errors import TypeCheckError

__all__ = ["MpiHistogram"]


class MpiHistogram(Operator):
    """Consume ⟨bucketID, count⟩ pairs; return global counts per bucket."""

    abbreviation = "MH"
    phase_name = "global_histogram"
    breaks_pipeline = True
    collective = True

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

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        group = lx.collectives()
        local = read_histograms(lx, self.upstreams[0], self.n_buckets)
        lx.set_phase(self.assigned_phase)
        counts = group.allreduce(list(local), op="sum")
        yield histogram_step(np.tile(counts, (len(lx.ctxs), 1)))
