"""Unit tests for NestedMap: control flow as a nested plan (§3.3.1)."""

import pytest

from repro.core.context import ExecutionContext
from repro.core.lockstep import pulled
from repro.core.options import RunOptions
from repro.core.functions import field_sum
from repro.core.operator import Operator
from repro.core.operators import (
    MaterializeRowVector,
    NestedMap,
    ParameterLookup,
    Projection,
    Reduce,
    RowScan,
)
from repro.errors import ExecutionError, TypeCheckError
from repro.types import INT64, RowVector, TupleType, row_vector_type

from tests.conftest import make_kv_table, table_source

KV = TupleType.of(key=INT64, value=INT64)


def partitions_source(ctx, sizes, seed=0):
    """An upstream yielding one ⟨pid, data⟩ tuple per partition."""
    outer_type = TupleType.of(pid=INT64, data=row_vector_type(KV))
    rows = [
        (i, make_kv_table(size, seed=seed + i)) for i, size in enumerate(sizes)
    ]
    outer = RowVector.from_rows(outer_type, rows)
    return RowScan(table_source(outer, ctx), field="t")


def sum_inner(slot):
    """Nested plan: sum the values of the partition, materialized."""
    data = RowScan(Projection(ParameterLookup(slot), ["data"]))
    total = Reduce(Projection(data, ["value"]), field_sum("value"))
    return MaterializeRowVector(total, field="sum")


class TestNestedMap:
    def test_one_output_per_input(self, ctx):
        upstream = partitions_source(ctx, sizes=[3, 5, 2])
        nested = NestedMap(upstream, sum_inner)
        outputs = list(nested.stream(ctx))
        assert len(outputs) == 3

    def test_inner_plan_sees_each_input(self, ctx):
        upstream = partitions_source(ctx, sizes=[4, 6])
        nested = NestedMap(upstream, sum_inner)
        totals = [row[0].row(0)[0] for row in nested.stream(ctx)]
        expected = [
            sum(make_kv_table(4, seed=0).column("value")),
            sum(make_kv_table(6, seed=1).column("value")),
        ]
        assert totals == expected

    def test_output_type_from_inner_root(self, ctx):
        nested = NestedMap(partitions_source(ctx, [1]), sum_inner)
        assert nested.output_type.field_names == ("sum",)

    def test_slot_type_is_upstream_type(self, ctx):
        upstream = partitions_source(ctx, [1])
        nested = NestedMap(upstream, sum_inner)
        assert nested.slot.param_type == upstream.output_type

    def test_empty_upstream_produces_nothing(self, ctx):
        nested = NestedMap(partitions_source(ctx, []), sum_inner)
        assert list(nested.stream(ctx)) == []

    def test_inner_without_materialize_can_fail_multituple(self, ctx):
        def bad_inner(slot):
            return RowScan(Projection(ParameterLookup(slot), ["data"]))

        nested = NestedMap(partitions_source(ctx, [3]), bad_inner)
        with pytest.raises(ExecutionError, match="more than one tuple"):
            list(nested.stream(ctx))

    def test_inner_with_no_output_fails(self, ctx):
        def empty_inner(slot):
            data = RowScan(Projection(ParameterLookup(slot), ["data"]))
            return Reduce(Projection(data, ["value"]), field_sum("value"))

        # Reduce over an empty partition yields nothing -> ExecutionError.
        nested = NestedMap(partitions_source(ctx, [0]), empty_inner)
        with pytest.raises(ExecutionError, match="no output tuple"):
            list(nested.stream(ctx))

    def test_builder_must_return_operator(self, ctx):
        with pytest.raises(TypeCheckError, match="must return an Operator"):
            NestedMap(partitions_source(ctx, [1]), lambda slot: "not a plan")

    def test_nested_nesting(self, ctx):
        # A NestedMap inside a NestedMap: the inner lookup reads the inner
        # slot; each level binds and unbinds correctly.

        def outer_inner(slot):
            # Re-wrap each partition as a single-partition nested problem.
            one = Projection(ParameterLookup(slot), ["data"])
            rescan = RowScan(one, field="data")
            total = Reduce(Projection(rescan, ["value"]), field_sum("value"))
            return MaterializeRowVector(total, field="sum")

        upstream = partitions_source(ctx, sizes=[2, 3])
        inner_nm = NestedMap(upstream, outer_inner)
        flat = RowScan(inner_nm, field="sum")
        grand_total = Reduce(flat, field_sum("value"))
        (result,) = list(grand_total.stream(ctx))
        expected = sum(make_kv_table(2, seed=0).column("value")) + sum(
            make_kv_table(3, seed=1).column("value")
        )
        assert result == (expected,)

    def test_nested_roots_exposed(self, ctx):
        nested = NestedMap(partitions_source(ctx, [1]), sum_inner)
        assert nested.nested_roots() == (nested.inner,)

    def test_upstream_finishes_before_the_first_nested_run(self):
        # One morsel per partition tuple, so a lazy reader would interleave
        # nested runs with the upstream; the upstream's generators must
        # finish (charging their clocks, releasing their frames) first.
        ctx = ExecutionContext(options=RunOptions(morsel_rows=1))
        log = []

        def logged_inner(slot):
            data = RowScan(Projection(ParameterLookup(slot), ["data"]))
            return MaterializeRowVector(_Logged(data, log, "nested"))

        upstream = _Logged(partitions_source(ctx, sizes=[2, 3, 1]), log, "upstream")
        assert len(list(NestedMap(upstream, logged_inner).stream(ctx))) == 3
        assert log == ["upstream start", "upstream end"] + ["nested start", "nested end"] * 3


class _Logged(Operator):
    """Passes its upstream's morsels through, logging start and end."""

    abbreviation = "LG"

    def __init__(self, upstream, log, name):
        self.log, self.name = log, name
        super().__init__(upstreams=(upstream,))

    def infer_type(self, upstream_types):
        return upstream_types[0]

    def lanes(self, lx):
        self.log.append(f"{self.name} start")
        try:
            yield from pulled(self.upstreams[0], lx)
        finally:
            self.log.append(f"{self.name} end")
