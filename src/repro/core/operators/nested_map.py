"""NestedMap: execute a nested plan once per input tuple (§3.3.1).

High-level control flow expressed as an operator — design principle 3.
Instead of an imperative "for each pair of matching partitions: join them"
loop inside a monolithic operator, the plan nests a partition-unaware
sub-plan inside a NestedMap and lets the same iterator interface drive it.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.core.lockstep import Lockstep, Step, drained_rows, steps
from repro.core.operator import Operator
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

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        # The per-invocation control flow is tuple-at-a-time and its input
        # is a few control tuples (one per partition), so they are read as
        # rows.  The upstream is drained before the first nested run: its
        # generators finish, charging their clocks and releasing their
        # frames, before any nested plan allocates.
        inputs = drained_rows(steps(self.upstreams[0], lx), lx)
        morsel_rows = lx.ctxs[0].morsel_rows_for(self.output_type)
        results: list[list[tuple]] = [[] for _ in inputs]
        emitted = [False] * len(inputs)
        # Invocation k runs on every lane with a k-th input tuple at once.
        for k in range(max(map(len, inputs), default=0)):
            lanes = [lane for lane, rows in enumerate(inputs) if len(rows) > k]
            for lane, out in zip(lanes, self._invoke(lx, lanes, inputs, k)):
                results[lane].append(out)
            full = [lane for lane in lanes if len(results[lane]) >= morsel_rows]
            if full:
                yield self._packed(full, results, emitted)
        rest = [lane for lane in range(len(inputs)) if results[lane] or not emitted[lane]]
        if rest:
            yield self._packed(rest, results, emitted)

    def _invoke(self, lx: Lockstep, lanes: list[int], inputs, k: int) -> list[tuple]:
        """The nested plan bound to each of ``lanes``' k-th input: its one
        output tuple per lane."""
        invocation = lx.nested(lanes)
        for ctx, lane in zip(invocation.ctxs, lanes):
            ctx.push_parameter(self.slot.id, inputs[lane][k])
        try:
            outputs = drained_rows(steps(self.inner, invocation), invocation)
        finally:
            for ctx in invocation.ctxs:
                ctx.pop_parameter(self.slot.id)
        for outs in outputs:
            if len(outs) != 1:
                raise ExecutionError(
                    "nested plan produced more than one tuple; nested plans "
                    "must end with MaterializeRowVector" if outs else
                    "nested plan produced no output tuple"
                )
        return [outs[0] for outs in outputs]

    def _packed(self, lanes: list[int], results, emitted) -> Step:
        """Each of ``lanes``' pending output tuples as one morsel."""
        parts = []
        for lane in lanes:
            parts.append(RowVector.from_rows(self.output_type, results[lane]))
            results[lane], emitted[lane] = [], True
        return Step(lanes, parts)
