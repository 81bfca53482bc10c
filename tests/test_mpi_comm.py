"""Integration tests for the simulated MPI communicator."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.types import INT64, RowVector, TupleType

KV = TupleType.of(key=INT64, value=INT64)


class TestAllreduce:
    def test_sum(self, cluster4):
        result = cluster4.run(lambda ctx: ctx.comm.allreduce(np.array([ctx.rank, 1])))
        for out in result.per_rank:
            assert out.tolist() == [6, 4]

    @pytest.mark.parametrize("op,expected", [("max", 3), ("min", 0)])
    def test_max_min(self, cluster4, op, expected):
        result = cluster4.run(
            lambda ctx: ctx.comm.allreduce(np.array([ctx.rank]), op=op)
        )
        assert all(out[0] == expected for out in result.per_rank)

    def test_unknown_op_aborts_job(self, cluster4):
        with pytest.raises(SimulationError):
            cluster4.run(lambda ctx: ctx.comm.allreduce(np.array([1]), op="mean"))

    def test_successive_collectives_keep_order(self, cluster4):
        def prog(ctx):
            first = ctx.comm.allreduce(np.array([1]))
            second = ctx.comm.allreduce(np.array([10]))
            return int(first[0]), int(second[0])

        result = cluster4.run(prog)
        assert all(out == (4, 40) for out in result.per_rank)


class TestAllgatherBarrier:
    def test_allgather_orders_by_rank(self, cluster4):
        result = cluster4.run(lambda ctx: ctx.comm.allgather(f"r{ctx.rank}"))
        assert all(out == ["r0", "r1", "r2", "r3"] for out in result.per_rank)

    def test_barrier_synchronizes_clocks(self, cluster4):
        def prog(ctx):
            ctx.clock.advance(0.001 * (ctx.rank + 1))
            ctx.comm.barrier()
            return ctx.clock.now

        result = cluster4.run(prog)
        assert len(set(result.clocks)) == 1
        assert result.clocks[0] > 0.004  # slowest rank + collective cost


class TestClockSynchronization:
    def test_collective_stalls_fast_ranks(self, cluster2):
        def prog(ctx):
            if ctx.rank == 1:
                ctx.clock.advance(0.5)
            before = ctx.clock.now
            ctx.comm.allreduce(np.array([1]))
            return ctx.clock.now - before  # stall + collective cost

        result = cluster2.run(prog)
        stall_rank0, stall_rank1 = result.per_rank
        assert stall_rank0 > 0.5  # fast rank waited for the slow one
        assert stall_rank1 < 0.01


class TestWindowsOverComm:
    def test_exchange_ring(self, cluster4):
        def prog(ctx):
            ws = ctx.comm.win_create(KV, capacity=1)
            payload = RowVector.from_rows(KV, [(ctx.rank, ctx.rank * 10)])
            ws.put((ctx.rank + 1) % ctx.n_ranks, 0, payload)
            ws.fence()
            return ws.local.read(0, 1).row(0)

        result = cluster4.run(prog)
        assert result.per_rank == [(3, 30), (0, 0), (1, 10), (2, 20)]

    def test_local_put_charges_memory_not_network(self, cluster2):
        def prog(ctx):
            ws = ctx.comm.win_create(KV, capacity=1024)
            before = ctx.clock.now
            data = RowVector.from_rows(KV, [(i, i) for i in range(1024)])
            ws.put(ctx.rank, 0, data)  # self-put
            local_cost = ctx.clock.now - before
            ws.fence()
            return local_cost

        result = cluster2.run(prog)
        for cost in result.per_rank:
            # Memory copy is far cheaper than a network transfer would be.
            assert cost < cluster2.cost_model.transfer_cost(1024 * 16)

    def test_get_reads_remote(self, cluster2):
        def prog(ctx):
            ws = ctx.comm.win_create(KV, capacity=1)
            ws.put(ctx.rank, 0, RowVector.from_rows(KV, [(ctx.rank, 0)]))
            ws.fence()
            peer = (ctx.rank + 1) % 2
            return ws.get(peer, 0, 1).row(0)[0]

        result = cluster2.run(prog)
        assert result.per_rank == [1, 0]


class TestProtocolViolations:
    def test_mismatched_collectives_abort(self, cluster2):
        def prog(ctx):
            if ctx.rank == 0:
                ctx.comm.barrier()
            else:
                ctx.comm.allreduce(np.array([1]))

        with pytest.raises(SimulationError, match="collective mismatch") as exc:
            cluster2.run(prog)
        assert exc.value.rule_id == "MOD051" and exc.value.kind == "mismatch"
        assert exc.value.call_index == 0
        assert exc.value.ranks == (1, 0)
        assert exc.value.tags == ("allreduce:sum", "barrier")

    def test_rank_failure_releases_peers(self, cluster4):
        def prog(ctx):
            if ctx.rank == 2:
                raise ValueError("worker crashed")
            ctx.comm.barrier()  # would deadlock without abort propagation

        with pytest.raises(ValueError, match="worker crashed"):
            cluster4.run(prog)


class TestFlush:
    def test_flush_is_local_and_cheap(self, cluster2):
        def prog(ctx):
            ws = ctx.comm.win_create(KV, capacity=2)
            ws.put((ctx.rank + 1) % 2, ctx.rank, RowVector.from_rows(KV, [(ctx.rank, 1)]))
            before = ctx.clock.now
            ws.flush()  # not collective: no stall waiting for the peer
            flush_cost = ctx.clock.now - before
            ws.fence()
            return flush_cost

        result = cluster2.run(prog)
        for cost in result.per_rank:
            assert 0 < cost < 1e-4
