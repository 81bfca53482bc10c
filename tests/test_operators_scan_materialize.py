"""Unit tests for RowScan and MaterializeRowVector (the format boundary)."""

import pytest

from repro.core.context import ExecutionContext
from repro.core.options import RunOptions
from repro.core.operators import (
    MaterializeRowVector,
    ParameterLookup,
    ParameterSlot,
    RowScan,
)
from repro.errors import TypeCheckError
from repro.mpi.cluster import SimCluster
from repro.types import INT64, RowVector, TupleType, row_vector_type

from tests.conftest import make_kv_table, run_lanes, table_source

KV = TupleType.of(key=INT64, value=INT64)


class TestRowScan:
    def test_yields_element_tuples(self, ctx):
        table = make_kv_table(10)
        scan = RowScan(table_source(table, ctx), field="t")
        assert list(scan.stream(ctx)) == list(table.iter_rows())
        assert scan.output_type == KV

    def test_field_inference_single_collection(self, ctx):
        slot = ParameterSlot(TupleType.of(only=row_vector_type(KV)))
        ctx.push_parameter(slot.id, (make_kv_table(3),))
        scan = RowScan(ParameterLookup(slot))  # no field name needed
        assert len(list(scan.stream(ctx))) == 3

    def test_field_inference_ambiguous_rejected(self, ctx):
        two = TupleType.of(a=row_vector_type(KV), b=row_vector_type(KV))
        slot = ParameterSlot(two)
        with pytest.raises(TypeCheckError, match="cannot infer"):
            RowScan(ParameterLookup(slot))

    def test_non_collection_field_rejected(self, ctx):
        slot = ParameterSlot(TupleType.of(x=INT64))
        with pytest.raises(TypeCheckError, match="not a collection"):
            RowScan(ParameterLookup(slot), field="x")

    def test_scans_every_upstream_collection(self, ctx):
        # Upstream may yield several tuples, each holding a collection.
        inner_type = row_vector_type(KV)
        outer = RowVector.from_rows(
            TupleType.of(part=inner_type),
            [(make_kv_table(2, seed=1),), (make_kv_table(3, seed=2),)],
        )
        slot = ParameterSlot(TupleType.of(t=row_vector_type(outer.element_type)))
        ctx.push_parameter(slot.id, (outer,))
        nested_scan = RowScan(ParameterLookup(slot), field="t")
        flat = RowScan(nested_scan, field="part")
        assert len(list(flat.stream(ctx))) == 5

    def test_empty_collection(self, ctx):
        scan = RowScan(table_source(make_kv_table(0), ctx), field="t")
        assert list(scan.stream(ctx)) == []

    def test_shard_by_rank_covers_input_exactly_once(self):
        table = make_kv_table(37, seed=3)

        result = run_lanes(
            SimCluster(4), lambda source: RowScan(source(table), field="t", shard_by_rank=True)
        )
        combined = [row for rank_rows in result.per_rank for row in rank_rows]
        assert combined == list(table.iter_rows())

    def test_shard_disabled_reads_everything(self):
        table = make_kv_table(8)

        result = run_lanes(SimCluster(2), lambda source: RowScan(source(table), field="t"))
        assert [len(rows) for rows in result.per_rank] == [8, 8]


class TestMaterializeRowVector:
    def test_single_output_tuple_with_collection(self, ctx):
        table = make_kv_table(12)
        scan = RowScan(table_source(table, ctx), field="t")
        mat = MaterializeRowVector(scan, field="data")
        rows = list(mat.stream(ctx))
        assert len(rows) == 1
        assert isinstance(rows[0][0], RowVector)
        assert list(rows[0][0].iter_rows()) == list(table.iter_rows())

    def test_output_type_wraps_element_type(self, ctx):
        scan = RowScan(table_source(make_kv_table(1), ctx), field="t")
        mat = MaterializeRowVector(scan, field="stuff")
        assert mat.output_type == TupleType.of(stuff=row_vector_type(KV))

    def test_empty_stream_materializes_empty_vector(self, ctx):
        scan = RowScan(table_source(make_kv_table(0), ctx), field="t")
        rows = list(MaterializeRowVector(scan).stream(ctx))
        assert len(rows) == 1
        assert len(rows[0][0]) == 0

    def test_roundtrip_scan_materialize_scan(self, ctx):
        table = make_kv_table(20, seed=9)
        scan = RowScan(table_source(table, ctx), field="t")
        mat = MaterializeRowVector(scan, field="data")
        rescan = RowScan(mat, field="data")
        assert list(rescan.stream(ctx)) == list(table.iter_rows())

    def test_charges_materialization_cost(self, ctx):
        table = make_kv_table(1 << 12)
        scan = RowScan(table_source(table, ctx), field="t")
        before = ctx.clock.now
        list(MaterializeRowVector(scan).stream(ctx))
        assert ctx.clock.now > before

    def test_modes_agree(self):
        table = make_kv_table(50, seed=11)
        outs = []
        for mode in ("fused", "interpreted"):
            ctx = ExecutionContext(options=RunOptions(mode=mode))
            scan = RowScan(table_source(table, ctx), field="t")
            (row,) = list(MaterializeRowVector(scan).stream(ctx))
            outs.append(list(row[0].iter_rows()))
        assert outs[0] == outs[1]
