"""NestedMap: execute a nested plan once per input tuple (§3.3.1).

High-level control flow expressed as an operator — design principle 3.
Instead of an imperative "for each pair of matching partitions: join them"
loop inside a monolithic operator, the plan nests a partition-unaware
sub-plan inside a NestedMap and lets the same iterator interface drive it.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.core.context import ExecutionContext
from repro.core.operator import Operator, pack_morsels
from repro.core.operators.parameter_lookup import ParameterSlot
from repro.errors import ExecutionError, TypeCheckError
from repro.types.collections import RowVector
from repro.types.tuples import TupleType

__all__ = ["NestedMap", "build_nested_plan", "nested_plan_type"]


def build_nested_plan(
    op_name: str, upstream: Operator, build_inner: Callable[[ParameterSlot], Operator]
) -> tuple[ParameterSlot, Operator]:
    """Create a nesting operator's slot and build its nested plan against it."""
    slot = ParameterSlot(upstream.output_type)
    inner = build_inner(slot)
    if not isinstance(inner, Operator):
        raise TypeCheckError(
            f"{op_name}: build_inner must return an Operator for the "
            f"parameter type {slot.param_type!r}, got {type(inner).__name__}"
        )
    return slot, inner


def nested_plan_type(
    op_name: str, slot: ParameterSlot, inner: Operator, upstream_type: TupleType
) -> TupleType:
    """The type rule of the nesting operators: the nested root's type.

    The nested plan was typed against ``slot`` when it was built; an
    upstream that now produces another type leaves it stale.
    """
    if slot.param_type != upstream_type:
        raise TypeCheckError(
            f"{op_name}'s nested plan was built against the parameter type "
            f"{slot.param_type!r} but the upstream now produces "
            f"{upstream_type!r}; rebuild the nested plan",
            "MOD001",
        )
    return inner.output_type


class NestedMap(Operator):
    """Run a nested plan independently on each input tuple.

    Args:
        upstream: Producer of the input tuples (each typically carrying
            nested collections, e.g. ⟨partitionID, partitionData⟩ pairs).
        build_inner: Callback receiving a :class:`ParameterSlot` typed with
            the upstream's tuple type; it returns the root operator of the
            nested plan, whose ``ParameterLookup`` operators read that slot.

    Each invocation of the nested plan must produce exactly one output
    tuple (the paper requires nested plans to end with a
    ``MaterializeRowVector``); NestedMap returns one tuple per input tuple,
    typed like the nested root's output.
    """

    abbreviation = "NM"
    breaks_pipeline = True
    cardinality = "per_input"

    def __init__(
        self,
        upstream: Operator,
        build_inner: Callable[[ParameterSlot], Operator],
    ) -> None:
        self.slot, self.inner = build_nested_plan("NestedMap", upstream, build_inner)
        super().__init__(upstreams=(upstream,))

    def infer_type(self, upstream_types):
        return nested_plan_type("NestedMap", self.slot, self.inner, upstream_types[0])

    def signature(self) -> tuple:
        # Slots get globally unique ids, so two separately built nested
        # plans never compare equal — conservative by construction.
        return (self.slot.id,)

    def nested_roots(self) -> tuple[Operator, ...]:
        return (self.inner,)

    def batches(self, ctx: ExecutionContext) -> Iterator[RowVector]:
        # The per-invocation control flow is tuple-at-a-time and its input
        # is a few control tuples (one per partition), so they are read as
        # rows.  The upstream is drained before the first nested run: its
        # generators finish, charging their clocks and releasing their
        # frames, before any nested plan allocates.
        inputs = list(self.upstreams[0].stream(ctx))
        results = (self._run_inner(ctx, row) for row in inputs)
        yield from pack_morsels(ctx, self.output_type, results)

    def _run_inner(self, ctx: ExecutionContext, row: tuple) -> tuple:
        ctx.push_parameter(self.slot.id, row)
        try:
            result: tuple | None = None
            for out in self.inner.stream(ctx):
                if result is not None:
                    raise ExecutionError(
                        "nested plan produced more than one tuple; nested plans "
                        "must end with MaterializeRowVector"
                    )
                result = out
            if result is None:
                raise ExecutionError("nested plan produced no output tuple")
            return result
        finally:
            ctx.pop_parameter(self.slot.id)
