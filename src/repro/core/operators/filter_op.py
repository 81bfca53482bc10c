"""Filter: relational selection over a predicate (§3.3.2)."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.functions import Predicate
from repro.core.lockstep import Lockstep, Step, pulled
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

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        for step in pulled(self.upstreams[0], lx):
            lx.charge(self, "map", step)
            yield step.map(self._selected)

    def _selected(self, batch: RowVector) -> RowVector:
        mask = self.predicate.mask(batch)
        return batch if mask.all() else batch.take(np.flatnonzero(mask))
