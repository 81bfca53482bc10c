"""Unit tests for Reduce and ReduceByKey."""

import collections

import numpy as np
import pytest

from repro.core.context import ExecutionContext
from repro.core.options import RunOptions
from repro.core.functions import ReduceFunction, field_sum
from repro.core.kernels import scatter
from repro.core.operators import Projection, Reduce, ReduceByKey, RowScan
from repro.errors import TypeCheckError
from repro.types import BOOL, FLOAT64, INT32, INT64, STRING, RowVector, TupleType

from tests.conftest import make_kv_table, table_source

KV = TupleType.of(key=INT64, value=INT64)


def scan_of(table, ctx):
    return RowScan(table_source(table, ctx), field="t")


class TestReduce:
    def test_sums_all_tuples(self, ctx):
        table = make_kv_table(32, seed=1)
        total = list(Reduce(scan_of(table, ctx), field_sum("key", "value")).stream(ctx))
        assert total == [
            (sum(table.column("key")), sum(table.column("value")))
        ]

    def test_empty_input_yields_nothing(self, ctx):
        assert list(Reduce(scan_of(make_kv_table(0), ctx), field_sum("key", "value")).stream(ctx)) == []

    def test_single_tuple_passthrough(self, ctx):
        table = RowVector.from_rows(KV, [(5, 7)])
        assert list(Reduce(scan_of(table, ctx), field_sum("key", "value")).stream(ctx)) == [(5, 7)]

    def test_custom_function_scalar_path(self, interpreted_ctx):
        table = make_kv_table(16, seed=2)
        fn = ReduceFunction(lambda a, b: (max(a[0], b[0]), min(a[1], b[1])))
        result = list(Reduce(scan_of(table, interpreted_ctx), fn).stream(interpreted_ctx))
        assert result == [(max(table.column("key")), min(table.column("value")))]

    def test_modes_agree(self):
        table = make_kv_table(64, seed=3)
        outs = []
        for mode in ("fused", "interpreted"):
            ctx = ExecutionContext(options=RunOptions(mode=mode))
            outs.append(
                list(Reduce(scan_of(table, ctx), field_sum("key", "value")).stream(ctx))
            )
        assert outs[0] == outs[1]

    def test_partial_sum_fields_fall_back(self, ctx):
        # vectorized_sum_fields not covering the whole tuple type must not
        # use the columnar shortcut.
        table = make_kv_table(8, seed=4)
        fn = ReduceFunction(
            lambda a, b: (a[0] + b[0], max(a[1], b[1])),
            vectorized_sum_fields=("key",),
        )
        result = list(Reduce(scan_of(table, ctx), fn).stream(ctx))
        assert result == [(sum(table.column("key")), max(table.column("value")))]


class TestReduceByKey:
    def _reference(self, table):
        sums = collections.Counter()
        for k, v in table.iter_rows():
            sums[k] += v
        return dict(sums)

    def test_sums_per_key(self, ctx):
        table = make_kv_table(64, seed=1, key_range=8)
        rows = list(ReduceByKey(scan_of(table, ctx), "key", field_sum("value")).stream(ctx))
        assert dict(rows) == self._reference(table)

    def test_key_field_reattached(self, ctx):
        op = ReduceByKey(scan_of(make_kv_table(4), ctx), "key", field_sum("value"))
        assert op.output_type == KV

    def test_value_first_layouts_supported(self, ctx):
        # Key field not in position 0.
        table = make_kv_table(32, seed=2, key_range=4)
        swapped = Projection(scan_of(table, ctx), ["value", "key"])
        rows = list(ReduceByKey(swapped, "key", field_sum("value")).stream(ctx))
        assert {k: v for v, k in rows} == self._reference(table)

    def test_multi_key_grouping(self, ctx):
        t3 = TupleType.of(a=INT64, b=INT64, v=INT64)
        rows_in = [(1, 1, 10), (1, 2, 20), (1, 1, 5), (2, 1, 1)]
        table = RowVector.from_rows(t3, rows_in)
        op = ReduceByKey(scan_of(table, ctx), ["a", "b"], field_sum("v"))
        result = {(a, b): v for a, b, v in op.stream(ctx)}
        assert result == {(1, 1): 15, (1, 2): 20, (2, 1): 1}

    def test_unknown_key_rejected(self, ctx):
        with pytest.raises(TypeCheckError):
            ReduceByKey(scan_of(make_kv_table(2), ctx), "ghost", field_sum("value"))

    def test_all_key_fields_rejected(self, ctx):
        with pytest.raises(TypeCheckError, match="non-key field"):
            ReduceByKey(
                scan_of(make_kv_table(2), ctx), ["key", "value"], field_sum("value")
            )

    def test_empty_input(self, ctx):
        assert (
            list(ReduceByKey(scan_of(make_kv_table(0), ctx), "key", field_sum("value")).stream(ctx))
            == []
        )

    def test_modes_agree_as_sets(self):
        table = make_kv_table(128, seed=9, key_range=16)
        outs = []
        for mode in ("fused", "interpreted"):
            ctx = ExecutionContext(options=RunOptions(mode=mode))
            outs.append(
                sorted(
                    ReduceByKey(scan_of(table, ctx), "key", field_sum("value")).stream(ctx)
                )
            )
        assert outs[0] == outs[1]

    def test_non_sum_function_scalar_fallback(self, ctx):
        table = make_kv_table(32, seed=5, key_range=4)
        fn = ReduceFunction(lambda a, b: (max(a[0], b[0]),))
        rows = dict(ReduceByKey(scan_of(table, ctx), "key", fn).stream(ctx))
        expected: dict[int, int] = {}
        for k, v in table.iter_rows():
            expected[k] = max(expected.get(k, -1), v)
        assert rows == expected


class TestSumByCounting:
    """Dense integer keys are counted, not sorted: the operator's output must
    be the sort path's bit for bit, dtypes included, for every value atom."""

    @staticmethod
    def aggregate(table, monkeypatch, multiple):
        monkeypatch.setattr(scatter, "DENSE_SUM_MULTIPLE", multiple)
        ctx = ExecutionContext()
        fn = field_sum(*table.element_type.field_names[1:])
        op = ReduceByKey(scan_of(table, ctx), "key", fn)
        (out,) = list(op.stream_batches(ctx))
        return out

    @pytest.mark.parametrize("key_atom, key_dtype, lo", [
        (INT64, np.int64, -(2**63)), (INT32, np.int32, -50), (STRING, np.int32, 0),
    ], ids=["int64-min", "int32", "string-codes"])
    def test_counting_equals_sorting(self, monkeypatch, key_atom, key_dtype, lo):
        rng = np.random.default_rng(5)
        n = 3000
        schema = TupleType.of(key=key_atom, a=INT64, b=INT32, c=BOOL)
        table = RowVector(schema, [
            (rng.integers(0, 300, n) + lo).astype(key_dtype),
            rng.integers(-(2**62), 2**62, n),
            rng.integers(-(2**31), 2**31, n).astype(np.int32),
            rng.integers(0, 2, n).astype(bool),
        ])
        dense = self.aggregate(table, monkeypatch, 1)
        sort = self.aggregate(table, monkeypatch, 0)
        for got, expected in zip(dense.columns, sort.columns):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        dtypes = [col.dtype for col in dense.columns]
        assert dtypes == [key_dtype, np.int64, np.int64, np.int64]

    def test_float_values_keep_negative_zero(self, monkeypatch):
        schema = TupleType.of(key=INT64, value=FLOAT64)
        table = RowVector(schema, [np.array([0, 1, 0]), np.array([-0.0, 2.5, -0.0])])
        out = self.aggregate(table, monkeypatch, 1)
        assert np.signbit(out.column("value")[0])
