"""Zip: positionally combine the tuples of several upstreams (§3.3.2).

The paper's plans use Zip to glue corresponding ⟨partitionID, data⟩ pairs of
the two join sides into single tuples before handing them to a NestedMap —
relying on partitions being "produced in dense, ordered sequence".
"""

from __future__ import annotations

from functools import reduce
from typing import Iterator

from repro.core.context import ExecutionContext
from repro.core.operator import Operator
from repro.errors import ExecutionError, TypeCheckError
from repro.types.tuples import concat_tuple_types

__all__ = ["Zip"]

_DONE = object()


class Zip(Operator):
    """For each output, consume one tuple from every upstream and concatenate.

    Field names across upstreams must be distinct (checked at plan build);
    upstreams yielding different numbers of tuples is a *runtime* error,
    exactly as specified by the paper.
    """

    abbreviation = "ZP"
    cardinality = "all_upstreams"
    # Plumbing between materialization points in every plan of the paper.
    row_native = True

    def infer_type(self, upstream_types):
        if len(upstream_types) < 2:
            raise TypeCheckError(f"Zip needs >= 2 upstreams, got {len(upstream_types)}")
        return reduce(concat_tuple_types, upstream_types)

    def signature(self) -> tuple:
        return ()

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        iterators = [u.stream(ctx) for u in self.upstreams]
        count = 0
        try:
            while True:
                parts = [next(it, _DONE) for it in iterators]
                finished = sum(1 for p in parts if p is _DONE)
                if finished == len(parts):
                    break
                if finished:
                    raise ExecutionError(
                        f"Zip upstreams returned different numbers of tuples "
                        f"(mismatch after {count} tuples)"
                    )
                count += 1
                yield tuple(v for part in parts for v in part)
        finally:
            ctx.charge_cpu(self, "map", count)
