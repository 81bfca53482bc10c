"""CartesianProduct: all combinations of two upstreams (§3.3.2).

In the paper's plans the left side always carries a single tuple (the
network partition ID), so the product is used to *augment* a stream with a
constant field rather than to blow up cardinality.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.context import ExecutionContext
from repro.core.operator import Operator
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

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        left_rows = list(self.upstreams[0].stream(ctx))
        count = 0
        try:
            for right_row in self.upstreams[1].stream(ctx):
                for left_row in left_rows:
                    count += 1
                    yield left_row + right_row
        finally:
            ctx.charge_cpu(self, "map", count)
