"""Unit tests for LocalHistogram and LocalPartitioning."""

import numpy as np
import pytest

from repro.core.context import ExecutionContext
from repro.core.options import RunOptions
from repro.core.functions import CallablePartition, RadixPartition
from repro.core.operators import LocalHistogram, LocalPartitioning, RowScan
from repro.core.operators.local_histogram import HISTOGRAM_TYPE
from repro.errors import ExecutionError, TypeCheckError
from repro.types import INT64, RowVector, TupleType

from tests.conftest import make_kv_table, table_source

KV = TupleType.of(key=INT64, value=INT64)


def scan_of(table, ctx):
    return RowScan(table_source(table, ctx), field="t")


class TestLocalHistogram:
    def test_counts_per_bucket(self, ctx):
        table = make_kv_table(64)
        hist = LocalHistogram(scan_of(table, ctx), RadixPartition("key", 4))
        counts = dict(hist.stream(ctx))
        expected = np.bincount(table.column("key") & 3, minlength=4)
        assert counts == dict(enumerate(expected.tolist()))

    def test_all_buckets_emitted_in_order(self, ctx):
        table = RowVector.from_rows(KV, [(0, 0)])  # only bucket 0 occupied
        hist = LocalHistogram(scan_of(table, ctx), RadixPartition("key", 8))
        rows = list(hist.stream(ctx))
        assert [b for b, _ in rows] == list(range(8))
        assert rows[0] == (0, 1)
        assert all(c == 0 for _, c in rows[1:])

    def test_output_type_is_histogram_type(self, ctx):
        hist = LocalHistogram(scan_of(make_kv_table(2), ctx), RadixPartition("key", 2))
        assert hist.output_type == HISTOGRAM_TYPE

    def test_total_matches_input(self, ctx):
        table = make_kv_table(100, key_range=1000)
        hist = LocalHistogram(scan_of(table, ctx), RadixPartition("key", 16))
        assert sum(c for _, c in hist.stream(ctx)) == 100

    def test_modes_agree(self):
        table = make_kv_table(128, seed=4)
        outs = []
        for mode in ("fused", "interpreted"):
            ctx = ExecutionContext(options=RunOptions(mode=mode))
            hist = LocalHistogram(scan_of(table, ctx), RadixPartition("key", 8))
            outs.append(list(hist.stream(ctx)))
        assert outs[0] == outs[1]

    def test_python_bucket_function(self, interpreted_ctx):
        table = make_kv_table(30)
        hist = LocalHistogram(
            scan_of(table, interpreted_ctx), CallablePartition(lambda r: r[0] % 3, 3)
        )
        counts = dict(hist.stream(interpreted_ctx))
        assert sum(counts.values()) == 30


class TestLocalPartitioning:
    def _partitioned(self, ctx, table, fanout=4):
        fn = RadixPartition("key", fanout)
        scan = scan_of(table, ctx)
        hist = LocalHistogram(scan_of(table, ctx), RadixPartition("key", fanout))
        return LocalPartitioning(scan, hist, fn)

    def test_partitions_are_dense_and_ordered(self, ctx):
        table = make_kv_table(64)
        parts = list(self._partitioned(ctx, table).stream(ctx))
        assert [pid for pid, _ in parts] == [0, 1, 2, 3]

    def test_partition_contents_match_function(self, ctx):
        table = make_kv_table(64)
        for pid, data in self._partitioned(ctx, table).stream(ctx):
            keys = data.column("key")
            assert ((keys & 3) == pid).all()

    def test_multiset_preserved(self, ctx):
        table = make_kv_table(64, seed=8)
        parts = list(self._partitioned(ctx, table).stream(ctx))
        all_rows = [r for _pid, data in parts for r in data.iter_rows()]
        assert sorted(all_rows) == sorted(table.iter_rows())

    def test_empty_partitions_still_emitted(self, ctx):
        table = RowVector.from_rows(KV, [(0, 1), (4, 2)])  # all bucket 0
        parts = list(self._partitioned(ctx, table).stream(ctx))
        assert len(parts) == 4
        assert [len(d) for _p, d in parts] == [2, 0, 0, 0]

    def test_histogram_type_enforced(self, ctx):
        table = make_kv_table(4)
        with pytest.raises(TypeCheckError, match="histogram upstream must produce"):
            LocalPartitioning(
                scan_of(table, ctx), scan_of(table, ctx), RadixPartition("key", 2)
            )

    def test_diverging_histogram_detected(self, ctx):
        # Histogram computed over DIFFERENT data than the partition input.
        table_a = make_kv_table(16, seed=1)
        table_b = make_kv_table(16, seed=2, key_range=5)
        fn = RadixPartition("key", 4)
        hist = LocalHistogram(scan_of(table_a, ctx), RadixPartition("key", 4))
        bad = LocalPartitioning(scan_of(table_b, ctx), hist, fn)
        with pytest.raises(ExecutionError, match="diverge"):
            list(bad.stream(ctx))

    def test_custom_field_names(self, ctx):
        table = make_kv_table(8)
        fn = RadixPartition("key", 2)
        hist = LocalHistogram(scan_of(table, ctx), RadixPartition("key", 2))
        op = LocalPartitioning(
            scan_of(table, ctx), hist, fn, id_field="sub", data_field="sdata"
        )
        assert op.output_type.field_names == ("sub", "sdata")

    def test_modes_agree(self):
        table = make_kv_table(64, seed=6)
        outs = []
        for mode in ("fused", "interpreted"):
            ctx = ExecutionContext(options=RunOptions(mode=mode))
            parts = list(self._partitioned(ctx, table).stream(ctx))
            outs.append([(pid, sorted(d.iter_rows())) for pid, d in parts])
        assert outs[0] == outs[1]
