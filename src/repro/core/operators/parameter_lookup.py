"""ParameterLookup: the only operator aware of plan inputs (§3.3.1)."""

from __future__ import annotations

import itertools
from typing import Iterator

from repro.core.lockstep import Lockstep, Step, each_lane
from repro.core.operator import Operator
from repro.errors import TypeCheckError
from repro.types.collections import RowVector
from repro.types.tuples import TupleType

__all__ = ["ParameterSlot", "ParameterLookup"]

_SLOT_IDS = itertools.count()


class ParameterSlot:
    """A binding point connecting a nested plan to its enclosing operator.

    ``NestedMap`` and ``MpiExecutor`` create one slot per nested plan; the
    plan's ``ParameterLookup`` operators reference the slot and return the
    tuple the enclosing operator bound for the current invocation.  The
    slot's type is the enclosing operator's input tuple type — "a tuple of
    an arbitrary type, which may depend on the upstream types of some outer
    scope" (paper Section 3.3.1).
    """

    __slots__ = ("id", "param_type")

    def __init__(self, param_type: TupleType) -> None:
        if not isinstance(param_type, TupleType):
            raise TypeCheckError(f"parameter type must be a TupleType, got {param_type!r}")
        self.id = next(_SLOT_IDS)
        self.param_type = param_type

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParameterSlot(#{self.id}, {self.param_type!r})"


class ParameterLookup(Operator):
    """Returns the single input tuple of the enclosing nested plan.

    Has no upstreams; produces exactly one tuple per plan invocation.
    """

    abbreviation = "PL"
    breaks_pipeline = True
    cardinality = "one"

    def __init__(self, slot: ParameterSlot) -> None:
        self.slot = slot
        super().__init__(upstreams=())

    def infer_type(self, upstream_types):
        return self.slot.param_type

    def signature(self) -> tuple:
        return (self.slot.id,)

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        bound = [ctx.lookup_parameter(self.slot.id) for ctx in lx.ctxs]
        yield each_lane([RowVector.of_row(self.output_type, row) for row in bound])
