"""Edge-case tests across the operator layer: morsels, draining, buffer
chunking, and the fused/interpreted boundary."""

from repro.core.context import ExecutionContext
from repro.core.options import RunOptions
from repro.core.functions import RadixPartition, field_sum
from repro.core.operators import (
    LocalHistogram,
    MpiExchange,
    MpiHistogram,
    Reduce,
    RowScan,
)
from repro.core.operators import mpi_exchange as mpi_exchange_module
from repro.mpi.cluster import SimCluster
from repro.types import INT64, RowVector, TupleType

from tests.conftest import make_kv_table, run_lanes, table_source

KV = TupleType.of(key=INT64, value=INT64)


class TestMorsels:
    def test_large_collections_stream_in_morsels(self, ctx):
        ctx.options = RunOptions(morsel_rows=16)
        table = make_kv_table(100, seed=1)
        scan = RowScan(table_source(table, ctx), field="t")
        batches = list(scan.stream_batches(ctx))
        assert len(batches) == 7  # ceil(100 / 16)
        assert sum(len(b) for b in batches) == 100
        flat = [r for b in batches for r in b.iter_rows()]
        assert flat == list(table.iter_rows())

    def test_morsels_are_views(self, ctx):
        ctx.options = RunOptions(morsel_rows=8)
        table = make_kv_table(32)
        scan = RowScan(table_source(table, ctx), field="t")
        for batch in scan.stream_batches(ctx):
            assert batch.columns[0].base is not None


class TestDrain:
    def test_drain_equivalent_across_modes(self):
        table = make_kv_table(64, seed=3)
        drained = []
        for mode in ("fused", "interpreted"):
            ctx = ExecutionContext(options=RunOptions(mode=mode))
            scan = RowScan(table_source(table, ctx), field="t")
            drained.append(list(scan.drain(ctx).iter_rows()))
        assert drained[0] == drained[1] == list(table.iter_rows())

    def test_drain_of_multi_batch_stream(self, ctx):
        ctx.options = RunOptions(morsel_rows=8)
        table = make_kv_table(50, seed=4)
        scan = RowScan(table_source(table, ctx), field="t")
        vector = scan.drain(ctx)
        assert len(vector) == 50
        assert list(vector.iter_rows()) == list(table.iter_rows())


class TestExchangeChunking:
    def test_small_put_buffers_still_correct(self, monkeypatch):
        # Force many small puts per partition (software write-combining
        # buffers flushing often) and check nothing is lost or reordered
        # across chunks.
        monkeypatch.setattr(mpi_exchange_module, "BUFFER_ROWS", 8)
        table = make_kv_table(256, seed=5)

        def build(source):
            scan = RowScan(source(table), field="t", shard_by_rank=True)
            fn = RadixPartition("key", 4)
            local = LocalHistogram(scan, RadixPartition("key", 4))
            global_h = MpiHistogram(local, 4)
            return MpiExchange(scan, local, global_h, fn)

        result = run_lanes(SimCluster(2, trace=True), build)
        collected = [
            row
            for rows in result.per_rank
            for _pid, data in rows
            for row in data.iter_rows()
        ]
        assert sorted(collected) == sorted(table.iter_rows())
        # With 8-row buffers there must be many more puts than partitions.
        assert len(result.trace.events(kind="put")) > 8


class TestReduceAfterHeavyPipeline:
    def test_reduce_over_morsel_stream(self, ctx):
        ctx.options = RunOptions(morsel_rows=16)
        table = make_kv_table(100, seed=6)
        scan = RowScan(table_source(table, ctx), field="t")
        (total,) = list(Reduce(scan, field_sum("key", "value")).stream(ctx))
        assert total == (
            int(table.column("key").sum()),
            int(table.column("value").sum()),
        )


class TestScanWeight:
    def test_wide_rows_cost_more(self):
        from repro.types import STRING

        wide_type = TupleType.of(
            a=INT64, b=INT64, c=INT64, s1=STRING, s2=STRING
        )
        rows = [(i, i, i, "x", "y") for i in range(1 << 12)]
        wide = RowVector.from_rows(wide_type, rows)
        narrow = make_kv_table(1 << 12)

        def scan_cost(table):
            ctx = ExecutionContext()
            scan = RowScan(table_source(table, ctx), field="t")
            list(scan.stream(ctx))
            return ctx.clock.now

        assert scan_cost(wide) > scan_cost(narrow) * 2
