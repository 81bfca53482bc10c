"""Failure-injection tests: the system must fail loudly, not corrupt data.

Each test breaks one invariant on purpose — diverging histograms, racing
window writes, mismatched collectives, malformed nested plans — and checks
that the library surfaces a precise error instead of producing wrong
results or deadlocking.
"""

import numpy as np
import pytest

from repro.core.functions import RadixPartition
from repro.core.operators import (
    ChunkScan,
    LocalHistogram,
    MaterializeRowVector,
    MpiExchange,
    MpiHistogram,
    NestedMap,
    ParameterLookup,
    Projection,
    RowScan,
)
from repro.errors import ExecutionError, SimulationError
from repro.types import INT64, RowVector, TupleType, row_vector_type
from repro.types.collections import ChunkedRowVector, chunked_type

from tests.conftest import make_kv_table, run_lanes, table_source

KV = TupleType.of(key=INT64, value=INT64)


class TestExchangeInvariants:
    def test_histogram_data_divergence_detected(self, cluster2):
        table_a = make_kv_table(64, seed=1)
        table_b = make_kv_table(64, seed=2, key_range=17)

        def build(source):
            fn = RadixPartition("key", 4)
            scan_hist = RowScan(source(table_a), field="t", shard_by_rank=True)
            scan_data = RowScan(source(table_b), field="t", shard_by_rank=True)
            local = LocalHistogram(scan_hist, RadixPartition("key", 4))
            global_h = MpiHistogram(local, 4)
            return MpiExchange(scan_data, local, global_h, fn)

        # Depending on how the divergence skews the counts, it is caught
        # either by the exchange's own accounting (ExecutionError) or by the
        # window layer as overlapping/out-of-bounds writes (SimulationError);
        # either way it cannot pass silently.
        with pytest.raises(
            (ExecutionError, SimulationError),
            match="histogram promised|diverge|RDMA race|outside window",
        ):
            run_lanes(cluster2, build)

    def test_global_histogram_mismatch_detected(self, cluster2):
        # The "global" histogram comes from different data than the locals.
        table = make_kv_table(64, seed=3)
        other = make_kv_table(64, seed=4, key_range=9)

        def build(source):
            fn = RadixPartition("key", 4)
            scan = RowScan(source(table), field="t", shard_by_rank=True)
            local = LocalHistogram(scan, RadixPartition("key", 4))
            scan_other = RowScan(source(other), field="t", shard_by_rank=True)
            local_other = LocalHistogram(scan_other, RadixPartition("key", 4))
            global_wrong = MpiHistogram(local_other, 4)
            return MpiExchange(scan, local, global_wrong, fn)

        with pytest.raises(ExecutionError, match="disagrees with the sum"):
            run_lanes(cluster2, build)


class TestWindowRaces:
    def test_overlapping_remote_writes_detected(self, cluster2):
        def prog(ctx):
            ws = ctx.comm.win_create(KV, capacity=2)
            data = RowVector.from_rows(KV, [(ctx.rank, 0)])
            ws.put(0, 0, data)  # both ranks write rank 0's row 0
            ws.fence()

        with pytest.raises(SimulationError, match="RDMA race"):
            cluster2.run(prog)

    def test_out_of_bounds_put_detected(self, cluster2):
        def prog(ctx):
            ws = ctx.comm.win_create(KV, capacity=1)
            data = RowVector.from_rows(KV, [(1, 1), (2, 2)])
            ws.put(ctx.rank, 0, data)

        with pytest.raises(SimulationError, match="outside window"):
            cluster2.run(prog)


class TestCollectiveProtocol:
    def test_extra_collective_on_one_rank_detected(self, cluster2):
        def prog(ctx):
            ctx.comm.barrier()
            if ctx.rank == 0:
                ctx.comm.barrier()
                ctx.comm.allreduce(np.array([1]))
            else:
                ctx.comm.allreduce(np.array([1]))

        with pytest.raises(SimulationError, match="collective mismatch"):
            cluster2.run(prog)

    def test_double_participation_detected(self, cluster2):
        # A rank must not deposit into the same collective slot twice; this
        # simulates duplicated call indices.
        def prog(ctx):
            ctx.comm._call_index = 0
            ctx.comm.barrier()
            ctx.comm._call_index = 0
            ctx.comm.barrier()

        with pytest.raises(SimulationError, match="twice"):
            cluster2.run(prog)


class TestNestedPlanContracts:
    def test_nested_plan_must_materialize(self, ctx):
        outer_type = TupleType.of(data=row_vector_type(KV))
        outer = RowVector.from_rows(outer_type, [(make_kv_table(3),)])
        upstream = RowScan(table_source(outer, ctx), field="t")
        nested = NestedMap(
            upstream, lambda slot: RowScan(Projection(ParameterLookup(slot), ["data"]))
        )
        with pytest.raises(ExecutionError, match="MaterializeRowVector"):
            list(nested.stream(ctx))

    def test_parameter_scope_restored_after_failure(self, ctx):
        outer_type = TupleType.of(data=row_vector_type(KV))
        outer = RowVector.from_rows(outer_type, [(make_kv_table(3),)])
        upstream = RowScan(table_source(outer, ctx), field="t")
        nested = NestedMap(
            upstream, lambda slot: RowScan(Projection(ParameterLookup(slot), ["data"]))
        )
        with pytest.raises(ExecutionError):
            list(nested.stream(ctx))
        # The failed invocation must have popped its binding.
        with pytest.raises(ExecutionError, match="outside its NestedMap"):
            ctx.lookup_parameter(nested.slot.id)


class TestDataCorruption:
    def test_corrupted_nested_collection_type(self, ctx):
        # A collection whose runtime element type differs from the static
        # plan type must be rejected by RowScan, not silently mis-scanned.
        outer_type = TupleType.of(data=row_vector_type(KV))
        wrong = RowVector.from_rows(TupleType.of(z=INT64), [(1,)])
        outer = RowVector(
            outer_type,
            [np.array([wrong], dtype=object)],
        )
        scan = RowScan(table_source(outer, ctx), field="t")
        flat = RowScan(scan, field="data")
        with pytest.raises(ExecutionError, match="RowScan expected"):
            list(flat.stream(ctx))

    def test_corrupted_chunked_collection_type(self, ctx):
        wrong = ChunkedRowVector.from_row_vector(
            RowVector.from_rows(TupleType.of(z=INT64), [(1,)]), chunk_rows=1
        )
        outer = RowVector(
            TupleType.of(data=chunked_type(KV)), [np.array([wrong], dtype=object)]
        )
        flat = ChunkScan(RowScan(table_source(outer, ctx), field="t"), field="data")
        with pytest.raises(ExecutionError, match="ChunkScan expected"):
            list(flat.stream(ctx))
