"""Map and ParametrizedMap: per-tuple UDF application (§3.3.2)."""

from __future__ import annotations

from typing import Iterator

from repro.core.functions import ParamTupleFunction, TupleFunction
from repro.core.lockstep import Lockstep, Step, drained_vectors, pulled, steps
from repro.core.operator import Operator
from repro.errors import ExecutionError

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

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        for step in pulled(self.upstreams[0], lx):
            lx.charge(self, "map", step)
            yield step.map(lambda batch: self.fn.apply_batch(batch, self.output_type))


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

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        side = self.upstreams[1]
        params = []
        for vector in drained_vectors(side, steps(side, lx), lx):
            if len(vector) != 1:
                raise ExecutionError(
                    f"ParametrizedMap parameter upstream produced {len(vector)} "
                    "tuples, expected exactly 1"
                )
            params.append(vector.row(0))
        for step in pulled(self.upstreams[0], lx):
            lx.charge(self, "map", step)
            yield Step(step.lanes, [
                self.fn.apply_batch(params[lane], part, self.output_type)
                for lane, part in zip(step.lanes, step.parts)
            ])
