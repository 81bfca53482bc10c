"""Unit tests for the simple data-processing sub-operators.

Covers ParameterLookup, Projection, Map, ParametrizedMap, Filter, Zip, and
CartesianProduct, in both execution modes.
"""

import pytest

from repro.core.context import ExecutionContext
from repro.core.options import RunOptions
from repro.core.functions import ParamTupleFunction, Predicate, TupleFunction
from repro.core.operators import (
    CartesianProduct,
    Filter,
    Map,
    ParameterLookup,
    ParameterSlot,
    ParametrizedMap,
    Projection,
    RowScan,
    Zip,
)
from repro.errors import ExecutionError, TypeCheckError
from repro.types import INT64, TupleType

from tests.conftest import make_kv_table, table_source

KV = TupleType.of(key=INT64, value=INT64)


def scan_of(table, ctx):
    return RowScan(table_source(table, ctx), field="t")


class TestParameterLookup:
    def test_returns_bound_tuple_once(self, ctx):
        slot = ParameterSlot(TupleType.of(x=INT64))
        ctx.push_parameter(slot.id, (7,))
        lookup = ParameterLookup(slot)
        assert list(lookup.stream(ctx)) == [(7,)]
        assert lookup.output_type == slot.param_type

    def test_unbound_lookup_fails(self, ctx):
        lookup = ParameterLookup(ParameterSlot(TupleType.of(x=INT64)))
        with pytest.raises(ExecutionError, match="outside its NestedMap"):
            list(lookup.stream(ctx))

    def test_slot_requires_tuple_type(self):
        with pytest.raises(TypeCheckError):
            ParameterSlot(INT64)


class TestProjection:
    def test_keeps_and_reorders_fields(self, ctx):
        table = make_kv_table(8)
        proj = Projection(scan_of(table, ctx), ["value", "key"])
        assert proj.output_type.field_names == ("value", "key")
        rows = list(proj.stream(ctx))
        assert rows == [(v, k) for k, v in table.iter_rows()]

    def test_unknown_field_rejected_at_build(self, ctx):
        with pytest.raises(TypeCheckError, match="lacks fields"):
            Projection(scan_of(make_kv_table(2), ctx), ["ghost"])

    def test_modes_agree(self):
        for mode in ("fused", "interpreted"):
            ctx = ExecutionContext(options=RunOptions(mode=mode))
            table = make_kv_table(16, seed=3)
            rows = list(Projection(scan_of(table, ctx), ["key"]).stream(ctx))
            assert rows == [(k,) for k, _ in table.iter_rows()]


class TestMap:
    def _double(self):
        return TupleFunction(
            lambda row: (row[0], row[1] * 2),
            TupleType.of(key=INT64, doubled=INT64),
            vectorized=lambda cols: (cols[0], cols[1] * 2),
        )

    def test_applies_function(self, ctx):
        table = make_kv_table(8)
        rows = list(Map(scan_of(table, ctx), self._double()).stream(ctx))
        assert rows == [(k, v * 2) for k, v in table.iter_rows()]

    def test_output_type_from_function(self, ctx):
        mapped = Map(scan_of(make_kv_table(2), ctx), self._double())
        assert mapped.output_type.field_names == ("key", "doubled")

    def test_modes_agree(self):
        table = make_kv_table(32, seed=5)
        results = []
        for mode in ("fused", "interpreted"):
            ctx = ExecutionContext(options=RunOptions(mode=mode))
            results.append(list(Map(scan_of(table, ctx), self._double()).stream(ctx)))
        assert results[0] == results[1]


class TestParametrizedMap:
    def _shift(self):
        return ParamTupleFunction(
            lambda param, row: (row[0] + param[0], row[1]),
            KV,
            vectorized=lambda param, cols: (cols[0] + param[0], cols[1]),
        )

    def _const(self, ctx, value):
        slot = ParameterSlot(TupleType.of(c=INT64))
        ctx.push_parameter(slot.id, (value,))
        return ParameterLookup(slot)

    def test_parameter_applied_to_every_tuple(self, ctx):
        table = make_kv_table(8)
        op = ParametrizedMap(scan_of(table, ctx), self._const(ctx, 100), self._shift())
        rows = list(op.stream(ctx))
        assert rows == [(k + 100, v) for k, v in table.iter_rows()]

    def test_multi_tuple_parameter_rejected(self, ctx):
        table = make_kv_table(4)
        param = scan_of(make_kv_table(2), ctx)  # yields 2 tuples
        param = Projection(param, ["key"])
        bad = ParametrizedMap(
            scan_of(table, ctx),
            param,
            ParamTupleFunction(lambda p, r: r, KV),
        )
        with pytest.raises(ExecutionError, match="expected exactly 1"):
            list(bad.stream(ctx))


class TestFilter:
    def _evens(self):
        return Predicate(
            lambda row: row[0] % 2 == 0, vectorized=lambda cols: cols[0] % 2 == 0
        )

    def test_keeps_satisfying_rows(self, ctx):
        table = make_kv_table(16)
        rows = list(Filter(scan_of(table, ctx), self._evens()).stream(ctx))
        assert rows == [r for r in table.iter_rows() if r[0] % 2 == 0]

    def test_type_preserved(self, ctx):
        filt = Filter(scan_of(make_kv_table(2), ctx), self._evens())
        assert filt.output_type == KV

    def test_all_pass_returns_same_batch(self, ctx):
        table = make_kv_table(8)
        always = Predicate(lambda row: True, vectorized=lambda cols: cols[0] >= 0)
        rows = list(Filter(scan_of(table, ctx), always).stream(ctx))
        assert len(rows) == 8

    def test_none_pass(self, ctx):
        never = Predicate(lambda row: False, vectorized=lambda cols: cols[0] < 0)
        assert list(Filter(scan_of(make_kv_table(8), ctx), never).stream(ctx)) == []


class TestZip:
    def test_concatenates_positionally(self, ctx):
        left = Projection(scan_of(make_kv_table(4, seed=1), ctx), ["key"])
        right_table = make_kv_table(4, seed=2)
        right = Projection(
            Map(
                scan_of(right_table, ctx),
                TupleFunction(lambda r: (r[1],), TupleType.of(other=INT64)),
            ),
            ["other"],
        )
        rows = list(Zip([left, right]).stream(ctx))
        expected = [
            (k, v)
            for (k, _), (_, v) in zip(
                make_kv_table(4, seed=1).iter_rows(), right_table.iter_rows()
            )
        ]
        assert rows == expected

    def test_needs_two_upstreams(self, ctx):
        with pytest.raises(TypeCheckError, match=">= 2 upstreams"):
            Zip([scan_of(make_kv_table(2), ctx)])

    def test_shared_field_names_rejected(self, ctx):
        a = scan_of(make_kv_table(2, seed=1), ctx)
        b = scan_of(make_kv_table(2, seed=2), ctx)
        with pytest.raises(TypeCheckError, match="shared field names"):
            Zip([a, b])

    def test_length_mismatch_is_runtime_error(self, ctx):
        a = Projection(scan_of(make_kv_table(3, seed=1), ctx), ["key"])
        b = Projection(
            Map(
                scan_of(make_kv_table(2, seed=2), ctx),
                TupleFunction(lambda r: (r[1],), TupleType.of(v2=INT64)),
            ),
            ["v2"],
        )
        with pytest.raises(ExecutionError, match="different numbers of tuples"):
            list(Zip([a, b]).stream(ctx))

    def test_three_way_zip(self, ctx):
        def named(seed, name):
            return Map(
                scan_of(make_kv_table(3, seed=seed), ctx),
                TupleFunction(lambda r: (r[0],), TupleType.of(**{name: INT64})),
            )

        rows = list(Zip([named(1, "a"), named(2, "b"), named(3, "c")]).stream(ctx))
        assert len(rows) == 3
        assert all(len(r) == 3 for r in rows)


class TestCartesianProduct:
    def test_all_combinations(self, ctx):
        left = Map(
            scan_of(make_kv_table(2, seed=1), ctx),
            TupleFunction(lambda r: (r[0],), TupleType.of(a=INT64)),
        )
        right = Map(
            scan_of(make_kv_table(3, seed=2), ctx),
            TupleFunction(lambda r: (r[0],), TupleType.of(b=INT64)),
        )
        rows = list(CartesianProduct(left, right).stream(ctx))
        assert len(rows) == 6

    def test_single_left_tuple_augments(self, ctx):
        # The plans' usage: a 1-tuple left side adds a constant field.
        slot = ParameterSlot(TupleType.of(pid=INT64))
        ctx.push_parameter(slot.id, (9,))
        pid = ParameterLookup(slot)
        right = scan_of(make_kv_table(4, seed=3), ctx)
        rows = list(CartesianProduct(pid, right).stream(ctx))
        assert len(rows) == 4
        assert all(r[0] == 9 for r in rows)

    def test_field_name_clash_rejected(self, ctx):
        a = scan_of(make_kv_table(1, seed=1), ctx)
        b = scan_of(make_kv_table(1, seed=2), ctx)
        with pytest.raises(TypeCheckError, match="shared field names"):
            CartesianProduct(a, b)

    def test_empty_side_empty_product(self, ctx):
        left = Map(
            scan_of(make_kv_table(0), ctx),
            TupleFunction(lambda r: (r[0],), TupleType.of(a=INT64)),
        )
        right = Map(
            scan_of(make_kv_table(3), ctx),
            TupleFunction(lambda r: (r[0],), TupleType.of(b=INT64)),
        )
        assert list(CartesianProduct(left, right).stream(ctx)) == []
