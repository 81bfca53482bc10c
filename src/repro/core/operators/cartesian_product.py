"""CartesianProduct: all combinations of two upstreams (§3.3.2).

In the paper's plans the left side always carries a single tuple (the
network partition ID), so the product is used to *augment* a stream with a
constant field rather than to blow up cardinality.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.lockstep import Lockstep, Step, drained_rows, each_lane, steps
from repro.core.operator import Operator
from repro.types.collections import RowVector
from repro.types.tuples import concat_tuple_types

__all__ = ["CartesianProduct"]


class CartesianProduct(Operator):
    """Concatenate every left tuple with every right tuple.

    Field names must be distinct across the two sides; output fields
    preserve their names and types.
    """

    abbreviation = "CP"
    side_inputs = frozenset({0})
    cardinality = "all_upstreams"
    row_native = True

    def __init__(self, left: Operator, right: Operator) -> None:
        super().__init__(upstreams=(left, right))

    def infer_type(self, upstream_types):
        return concat_tuple_types(*upstream_types)

    def signature(self) -> tuple:
        return ()

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        lefts, rights = (drained_rows(steps(up, lx), lx) for up in self.upstreams)
        outputs = []
        for ctx, left, right in zip(lx.ctxs, lefts, rights):
            rows = [left_row + right_row for right_row in right for left_row in left]
            ctx.charge_cpu(self, "map", len(rows))
            outputs.append(RowVector.from_rows(self.output_type, rows))
        yield each_lane(outputs)
