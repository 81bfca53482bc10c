"""Limit: pass through at most N tuples, then stop pulling.

A driver-side post-processing operator (the paper's §3.4: after the
data-parallel part, the driver does "simple post-processing steps, such as
merging the results").  Limit short-circuits its upstream: once N tuples
are out, no further upstream work happens.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.lockstep import Lockstep, Step, lane_by_lane, pulled
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

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        # Each lane stops pulling at its own point, so that no lane pays
        # for rows it would drop; no collective can sit below (MOD013).
        return lane_by_lane(lx, self._limited)

    def _limited(self, lx: Lockstep) -> Iterator[RowVector]:
        """The first ``n`` rows of the one lane of ``lx``, as morsels."""
        if self.n == 0:
            return
        remaining = self.n
        for step in pulled(self.upstreams[0], lx):
            batch = step.parts[0]
            if len(batch) >= remaining:
                yield batch.slice(0, remaining)
                return
            if len(batch):
                yield batch
                remaining -= len(batch)
