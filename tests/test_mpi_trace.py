"""Tests for cluster event tracing."""

import numpy as np
import pytest

from repro.core.plans import build_distributed_join
from repro.mpi import ClusterTrace, SimCluster, TraceEvent
from repro.observability import CollectiveDetail, PutDetail
from repro.types import INT64, RowVector, TupleType
from repro.workloads import make_join_relations

KV = TupleType.of(key=INT64, value=INT64)


class TestClusterTrace:
    def test_record_and_query(self):
        trace = ClusterTrace(2)
        trace.record(TraceEvent(0, "put", "put->1", 0.0, 1.0,
                                detail=PutDetail(target=1, rows=4, bytes=64)))
        trace.record(
            TraceEvent(1, "collective", "barrier", 0.0, 2.0,
                       detail=CollectiveDetail(stall=1.5))
        )
        assert len(trace.events()) == 2
        assert len(trace.events(rank=0)) == 1
        assert len(trace.events(kind="collective")) == 1
        assert trace.stall_seconds(1) == 1.5
        assert trace.network_bytes() == 64

    def test_self_put_excluded_from_network_bytes(self):
        trace = ClusterTrace(2)
        trace.record(TraceEvent(0, "put", "put->0", 0.0, 1.0,
                                detail=PutDetail(target=0, rows=4, bytes=64)))
        assert trace.network_bytes() == 0
        assert trace.bytes_matrix()[0][0] == 64


class TestTracedRuns:
    def test_untraced_by_default(self, cluster2):
        result = cluster2.run(lambda ctx: ctx.comm.barrier())
        assert result.trace is None

    def test_collectives_counted(self):
        cluster = SimCluster(2, trace=True)

        def prog(ctx):
            ctx.comm.barrier()
            ctx.comm.allreduce(np.array([1]))

        result = cluster.run(prog)
        assert result.trace.collective_count() == 2

    def test_put_events_record_bytes(self):
        cluster = SimCluster(2, trace=True)

        def prog(ctx):
            ws = ctx.comm.win_create(KV, capacity=8)
            data = RowVector.from_rows(KV, [(i, i) for i in range(8)])
            ws.put((ctx.rank + 1) % 2, 0, data)
            ws.fence()

        result = cluster.run(prog)
        matrix = result.trace.bytes_matrix()
        assert matrix[0][1] == 8 * 16
        assert matrix[1][0] == 8 * 16
        registrations = result.trace.events(kind="win_create")
        assert len(registrations) == 2

    def test_stalls_reflect_skewed_work(self):
        cluster = SimCluster(2, trace=True)

        def prog(ctx):
            if ctx.rank == 1:
                ctx.clock.advance(0.01)
            ctx.comm.barrier()

        result = cluster.run(prog)
        assert result.trace.stall_seconds(0) > 0.009
        assert result.trace.stall_seconds(1) < 1e-4


class TestJoinTrace:
    def test_compression_halves_traced_network_bytes(self):
        workload = make_join_relations(1 << 12)
        volumes = {}
        for compression in (True, False):
            cluster = SimCluster(4, trace=True)
            plan = build_distributed_join(
                cluster,
                workload.left.element_type,
                workload.right.element_type,
                key_bits=workload.key_bits,
                compression=compression,
            )
            result = plan.run(workload.left, workload.right)
            volumes[compression] = result.cluster_results[0].trace.network_bytes()
        assert volumes[False] == pytest.approx(2 * volumes[True], rel=0.01)

    def test_summary_renders(self):
        workload = make_join_relations(1 << 10)
        cluster = SimCluster(2, trace=True)
        plan = build_distributed_join(
            cluster,
            workload.left.element_type,
            workload.right.element_type,
            key_bits=workload.key_bits,
        )
        result = plan.run(workload.left, workload.right)
        text = result.cluster_results[0].trace.summary()
        assert "collective epochs" in text
        assert "rank 0" in text and "rank 1" in text
