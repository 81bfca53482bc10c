"""Filter: relational selection over a predicate (§3.3.2)."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.context import ExecutionContext
from repro.core.functions import Predicate
from repro.core.operator import Operator
from repro.types.collections import RowVector

__all__ = ["Filter"]


class Filter(Operator):
    """Return upstream tuples satisfying the predicate, unmodified."""

    abbreviation = "FI"

    def __init__(self, upstream: Operator, predicate: Predicate) -> None:
        self.predicate = predicate
        super().__init__(upstreams=(upstream,))

    def infer_type(self, upstream_types):
        return upstream_types[0]

    def signature(self) -> tuple:
        return (id(self.predicate),)

    def batches(self, ctx: ExecutionContext) -> Iterator[RowVector]:
        for batch in self.upstreams[0].stream_batches(ctx):
            ctx.charge_cpu(self, "map", len(batch))
            mask = self.predicate.mask(batch)
            if mask.all():
                yield batch
            else:
                yield batch.take(np.flatnonzero(mask))
