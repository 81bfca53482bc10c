"""Map and ParametrizedMap: per-tuple UDF application (§3.3.2)."""

from __future__ import annotations

from typing import Iterator

from repro.core.context import ExecutionContext
from repro.core.functions import ParamTupleFunction, TupleFunction
from repro.core.operator import Operator
from repro.errors import ExecutionError
from repro.types.collections import RowVector

__all__ = ["Map", "ParametrizedMap"]


class Map(Operator):
    """Apply ``fn`` to every upstream tuple.

    The output type is whatever the function declares for the upstream's
    tuple type — the reproduction's stand-in for the statically typed UDF
    signatures the paper's compiler sees.
    """

    abbreviation = "MP"
    cardinality = "per_input"

    def __init__(self, upstream: Operator, fn: TupleFunction) -> None:
        self.fn = fn
        super().__init__(upstreams=(upstream,))

    def infer_type(self, upstream_types):
        return self.fn.output_type_for(upstream_types[0])

    def signature(self) -> tuple:
        return (id(self.fn),)

    def batches(self, ctx: ExecutionContext) -> Iterator[RowVector]:
        for batch in self.upstreams[0].stream_batches(ctx):
            ctx.charge_cpu(self, "map", len(batch))
            yield self.fn.apply_batch(batch, self.output_type)


class ParametrizedMap(Operator):
    """Like ``Map``, but the UDF also receives a parameter tuple.

    The parameter comes from a dedicated second upstream, which must produce
    exactly one tuple; it is passed to every function call.  The paper uses
    this to recover the key bits dropped by the network compression, with
    the ⟨networkPartitionID⟩ tuple as the parameter (Section 4.1.2).
    """

    abbreviation = "PM"
    side_inputs = frozenset({1})
    cardinality = "per_input"

    def __init__(self, upstream: Operator, param_upstream: Operator, fn: ParamTupleFunction) -> None:
        self.fn = fn
        super().__init__(upstreams=(upstream, param_upstream))

    infer_type = Map.infer_type
    signature = Map.signature

    def _read_param(self, ctx: ExecutionContext) -> tuple:
        params = self.upstreams[1].drain(ctx)
        if len(params) != 1:
            raise ExecutionError(
                f"ParametrizedMap parameter upstream produced {len(params)} tuples, "
                "expected exactly 1"
            )
        return params.row(0)

    def batches(self, ctx: ExecutionContext) -> Iterator[RowVector]:
        param = self._read_param(ctx)
        for batch in self.upstreams[0].stream_batches(ctx):
            ctx.charge_cpu(self, "map", len(batch))
            yield self.fn.apply_batch(param, batch, self.output_type)
