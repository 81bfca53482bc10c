"""Tests for the ChunkedRowVector format and its dedicated sub-operators.

The headline test is the paper's own example for design principle 2: a
single LocalHistogram implementation consuming the outputs of two
*different* scan operators over two different physical formats.
"""

import pytest

from repro.core.context import ExecutionContext
from repro.core.options import RunOptions
from repro.core.functions import RadixPartition, field_sum
from repro.core.operators import (
    ChunkScan,
    LocalHistogram,
    MaterializeChunks,
    ReduceByKey,
    RowScan,
)
from repro.core.operators.parameter_lookup import ParameterLookup, ParameterSlot
from repro.errors import TypeCheckError
from repro.types import ChunkedRowVector, INT64, RowVector, TupleType, chunked_type

from tests.conftest import make_kv_table, table_source

KV = TupleType.of(key=INT64, value=INT64)


def chunked_source(table, ctx, chunk_rows=16):
    collection = ChunkedRowVector.from_row_vector(table, chunk_rows)
    slot = ParameterSlot(TupleType.of(t=chunked_type(KV)))
    ctx.push_parameter(slot.id, (collection,))
    return ParameterLookup(slot)


class TestChunkedRowVector:
    def test_from_row_vector_partitions_rows(self):
        table = make_kv_table(50)
        chunked = ChunkedRowVector.from_row_vector(table, 16)
        assert chunked.n_chunks == 4
        assert len(chunked) == 50
        assert list(chunked.iter_rows()) == list(table.iter_rows())

    def test_type_mismatch_rejected(self):
        other = RowVector.from_rows(TupleType.of(x=INT64), [(1,)])
        with pytest.raises(TypeCheckError):
            ChunkedRowVector(KV, [other])

    def test_bad_chunk_size(self):
        with pytest.raises(TypeCheckError):
            ChunkedRowVector.from_row_vector(make_kv_table(4), 0)

    def test_size_bytes_matches_flat(self):
        table = make_kv_table(32)
        chunked = ChunkedRowVector.from_row_vector(table, 10)
        assert chunked.size_bytes() == table.size_bytes()

    def test_equality(self):
        table = make_kv_table(20, seed=2)
        a = ChunkedRowVector.from_row_vector(table, 4)
        b = ChunkedRowVector.from_row_vector(table, 7)  # different chunking
        assert a == b  # same logical contents


class TestChunkScan:
    def test_yields_same_rows_as_rowscan(self, ctx):
        table = make_kv_table(40, seed=3)
        chunk_scan = ChunkScan(chunked_source(table, ctx), field="t")
        assert list(chunk_scan.stream(ctx)) == list(table.iter_rows())

    def test_batches_are_the_chunks(self, ctx):
        table = make_kv_table(40, seed=3)
        chunk_scan = ChunkScan(chunked_source(table, ctx, chunk_rows=8), field="t")
        batches = list(chunk_scan.stream_batches(ctx))
        assert [len(b) for b in batches] == [8, 8, 8, 8, 8]

    def test_field_inference(self, ctx):
        scan = ChunkScan(chunked_source(make_kv_table(4), ctx))
        assert scan.output_type == KV

    def test_wrong_field_kind_rejected(self, ctx):
        row_source = table_source(make_kv_table(4), ctx)  # RowVector field
        with pytest.raises(TypeCheckError, match="not a ChunkedRowVector"):
            ChunkScan(row_source, field="t")


class TestDesignPrinciple2:
    def test_histogram_agnostic_to_scan_format(self):
        # The paper's example: one partitioning/histogram sub-operator
        # consumes inputs of two different scan operators unchanged.
        table = make_kv_table(64, seed=4)
        results = []
        for make_scan in (
            lambda ctx: RowScan(table_source(table, ctx), field="t"),
            lambda ctx: ChunkScan(chunked_source(table, ctx, 8), field="t"),
        ):
            ctx = ExecutionContext()
            hist = LocalHistogram(make_scan(ctx), RadixPartition("key", 8))
            results.append(list(hist.stream(ctx)))
        assert results[0] == results[1]

    def test_aggregation_agnostic_to_scan_format(self):
        table = make_kv_table(64, seed=5, key_range=8)
        results = []
        for make_scan in (
            lambda ctx: RowScan(table_source(table, ctx), field="t"),
            lambda ctx: ChunkScan(chunked_source(table, ctx, 5), field="t"),
        ):
            ctx = ExecutionContext()
            agg = ReduceByKey(make_scan(ctx), "key", field_sum("value"))
            results.append(sorted(agg.stream(ctx)))
        assert results[0] == results[1]


class TestMaterializeChunks:
    def test_roundtrip(self, ctx):
        table = make_kv_table(30, seed=6)
        scan = RowScan(table_source(table, ctx), field="t")
        mat = MaterializeChunks(scan, chunk_rows=7, field="pages")
        (row,) = list(mat.stream(ctx))
        collection = row[0]
        assert isinstance(collection, ChunkedRowVector)
        assert collection.n_chunks == 5  # ceil(30/7)
        rescan = list(collection.iter_rows())
        assert rescan == list(table.iter_rows())

    def test_scan_materialize_scan(self, ctx):
        table = make_kv_table(25, seed=7)
        scan = RowScan(table_source(table, ctx), field="t")
        mat = MaterializeChunks(scan, chunk_rows=4)
        rescan = ChunkScan(mat, field="data")
        assert list(rescan.stream(ctx)) == list(table.iter_rows())

    def test_chunk_size_validated(self, ctx):
        scan = RowScan(table_source(make_kv_table(4), ctx), field="t")
        with pytest.raises(TypeCheckError):
            MaterializeChunks(scan, chunk_rows=0)

    def test_modes_agree(self):
        table = make_kv_table(33, seed=8)
        outs = []
        for mode in ("fused", "interpreted"):
            ctx = ExecutionContext(options=RunOptions(mode=mode))
            scan = RowScan(table_source(table, ctx), field="t")
            (row,) = list(MaterializeChunks(scan, chunk_rows=10).stream(ctx))
            outs.append(list(row[0].iter_rows()))
        assert outs[0] == outs[1]
