"""Limit: pass through at most N tuples, then stop pulling.

A driver-side post-processing operator (the paper's §3.4: after the
data-parallel part, the driver does "simple post-processing steps, such as
merging the results").  Limit short-circuits its upstream: once N tuples
are out, no further upstream work happens.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.context import ExecutionContext
from repro.core.operator import Operator
from repro.errors import TypeCheckError
from repro.types.collections import RowVector

__all__ = ["Limit"]


class Limit(Operator):
    """Yield the first ``n`` upstream tuples."""

    abbreviation = "LT"

    def __init__(self, upstream: Operator, n: int) -> None:
        if n < 0:
            raise TypeCheckError(f"limit must be non-negative, got {n}")
        self.n = n
        super().__init__(upstreams=(upstream,))

    def infer_type(self, upstream_types):
        return upstream_types[0]

    def signature(self) -> tuple:
        return (self.n,)

    def batches(self, ctx: ExecutionContext) -> Iterator[RowVector]:
        if self.n == 0:
            return
        remaining = self.n
        for batch in self.upstreams[0].stream_batches(ctx):
            if len(batch) >= remaining:
                yield batch.slice(0, remaining)
                return
            if len(batch):
                yield batch
                remaining -= len(batch)
