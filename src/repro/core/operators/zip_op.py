"""Zip: positionally combine the tuples of several upstreams (§3.3.2).

The paper's plans use Zip to glue corresponding ⟨partitionID, data⟩ pairs of
the two join sides into single tuples before handing them to a NestedMap —
relying on partitions being "produced in dense, ordered sequence".
"""

from __future__ import annotations

from functools import reduce
from typing import Iterator

from repro.core.lockstep import Lockstep, Step, drained_vectors, each_lane, steps
from repro.core.operator import Operator
from repro.errors import ExecutionError, TypeCheckError
from repro.types.collections import RowVector
from repro.types.tuples import concat_tuple_types

__all__ = ["Zip"]


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

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        # Each upstream is drained in turn: they are materialization points
        # holding a few tuples of whole collections.
        drained = [drained_vectors(up, steps(up, lx), lx) for up in self.upstreams]
        outputs = []
        for lane, ctx in enumerate(lx.ctxs):
            vectors = [vectors[lane] for vectors in drained]
            count = min(len(v) for v in vectors)
            ctx.charge_cpu(self, "map", count)
            if any(len(v) != count for v in vectors):
                raise ExecutionError(
                    f"Zip upstreams returned different numbers of tuples "
                    f"(mismatch after {count} tuples)"
                )
            outputs.append(RowVector(self.output_type, [c for v in vectors for c in v.columns]))
        yield each_lane(outputs)
