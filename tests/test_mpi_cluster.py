"""Unit tests for SimCluster dispatch, results, and timing harvest."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.mpi.cluster import ClusterResult, SimCluster, block_share


class TestRun:
    def test_results_in_rank_order(self, cluster4):
        result = cluster4.run(lambda ctx: ctx.rank * 2)
        assert result.per_rank == [0, 2, 4, 6]

    def test_context_fields(self, cluster4):
        def prog(ctx):
            return (ctx.rank, ctx.n_ranks, ctx.is_root)

        result = cluster4.run(prog)
        assert result.per_rank[0] == (0, 4, True)
        assert result.per_rank[3] == (3, 4, False)

    def test_single_rank_cluster(self):
        result = SimCluster(1).run(lambda ctx: ctx.comm.allreduce(np.array([5]))[0])
        assert result.per_rank == [5]

    def test_invalid_size(self):
        with pytest.raises(SimulationError):
            SimCluster(0)

    def test_with_ranks_keeps_the_configuration(self):
        cluster = SimCluster(4, seed=9, trace=True)
        smaller = cluster.with_ranks(3)
        assert (smaller.n_ranks, smaller.seed, smaller.trace) == (3, 9, True)
        assert smaller.cost_model is cluster.cost_model

    def test_exception_propagates(self, cluster2):
        def prog(ctx):
            raise RuntimeError(f"boom on {ctx.rank}")

        with pytest.raises(RuntimeError, match="boom"):
            cluster2.run(prog)

    def test_reusable_across_runs(self, cluster2):
        first = cluster2.run(lambda ctx: ctx.rank)
        second = cluster2.run(lambda ctx: ctx.rank + 10)
        assert first.per_rank == [0, 1]
        assert second.per_rank == [10, 11]


class TestBaton:
    """One runnable rank per job: hand-off at collectives, nothing timed."""

    def test_rank_returning_past_a_parked_peer_is_an_immediate_deadlock(self):
        def prog(ctx):
            ctx.comm.barrier()
            if ctx.rank:
                ctx.comm.allgather(ctx.rank)

        before = threading.active_count()
        started = time.perf_counter()
        with pytest.raises(SimulationError, match="deadlock") as exc_info:
            SimCluster(3).run(prog)
        assert time.perf_counter() - started < 1.0
        message = str(exc_info.value)
        assert "rank 1 in 'allgather' (call 1)" in message
        assert "rank 2 in 'allgather' (call 1)" in message
        assert "rank 0 in" not in message
        assert exc_info.value.rule_id == "MOD051"
        assert exc_info.value.kind == "deadlock"
        assert exc_info.value.call_index == 1
        assert exc_info.value.ranks == (1, 2)
        assert exc_info.value.tags == ("allgather", "allgather")
        assert threading.active_count() == before

    def test_abort_unwinds_peers_parked_inside_nested_generators(self):
        unwound = []

        def inner(ctx):
            try:
                yield 1
                ctx.comm.barrier()
                yield 2
            finally:
                unwound.append(ctx.rank)

        def outer(ctx):
            try:
                yield from inner(ctx)
            finally:
                unwound.append(ctx.rank + 10)

        def prog(ctx):
            if ctx.rank == 2:  # runs last: both peers are parked by now
                raise ValueError("boom")
            return list(outer(ctx))

        before = threading.active_count()
        with pytest.raises(ValueError, match="boom") as exc_info:
            SimCluster(3).run(prog)
        assert unwound == [0, 10, 1, 11]
        assert exc_info.value.secondary_errors == ()
        assert "raised on rank 2" in exc_info.value.__notes__
        assert threading.active_count() == before

    def test_combine_failing_on_the_last_arrival_is_the_primary_error(self):
        def prog(ctx):
            ctx.comm.allreduce(np.array([ctx.rank]), op="median")

        with pytest.raises(SimulationError, match="unsupported allreduce op") as exc_info:
            SimCluster(3).run(prog)
        assert exc_info.value.secondary_errors == ()
        assert exc_info.value.__notes__ == ["raised on rank 2"]

    def test_ranks_run_one_at_a_time_in_round_robin_order(self):
        granted = []
        counter = [0]

        def bump(value):
            return value + 1

        def prog(ctx):
            for _ in range(3):
                granted.append(ctx.rank)
                for _ in range(2000):
                    # Load, call, store: free-running threads lose updates.
                    counter[0] = bump(counter[0])
                ctx.comm.barrier()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            SimCluster(4).run(prog)
        finally:
            sys.setswitchinterval(interval)
        assert counter[0] == 4 * 3 * 2000
        # The last arrival of a barrier keeps the baton into the next round.
        assert granted == [0, 1, 2, 3, 3, 0, 1, 2, 2, 3, 0, 1]

    def test_interrupted_caller_leaves_no_thread_behind(self, monkeypatch):
        release = threading.Event()
        seen = {}
        real_join = threading.Thread.join
        calls = []

        def join(thread, timeout=None):
            calls.append(thread)
            if len(calls) == 1:
                raise KeyboardInterrupt
            release.set()
            real_join(thread, timeout)

        def prog(ctx):
            if ctx.rank == 1:
                release.wait(10)
            try:
                ctx.comm.barrier()
            except SimulationError as exc:
                seen[ctx.rank] = type(exc.__cause__)
                raise

        before = threading.active_count()
        monkeypatch.setattr(threading.Thread, "join", join)
        with pytest.raises(KeyboardInterrupt):
            SimCluster(2).run(prog)
        monkeypatch.undo()
        assert seen == {0: KeyboardInterrupt, 1: KeyboardInterrupt}
        assert threading.active_count() == before


class TestDeterminism:
    def test_same_seed_same_clocks(self):
        def prog(ctx):
            ctx.clock.advance(0.001, jitter=True)
            ctx.comm.barrier()
            return None

        a = SimCluster(4, seed=7).run(prog)
        b = SimCluster(4, seed=7).run(prog)
        assert a.clocks == b.clocks

    def test_different_seed_different_jitter(self):
        def prog(ctx):
            ctx.clock.advance(0.001, jitter=True)
            return ctx.clock.now

        a = SimCluster(4, seed=1).run(prog)
        b = SimCluster(4, seed=2).run(prog)
        assert a.per_rank != b.per_rank

    def test_rank_rngs_are_independent(self):
        result = SimCluster(4, seed=3).run(lambda ctx: ctx.rng.integers(1 << 30))
        assert len(set(result.per_rank)) == 4


class TestTimings:
    def test_makespan_is_slowest_rank(self, cluster4):
        def prog(ctx):
            ctx.clock.advance(0.01 * (ctx.rank + 1))

        result = cluster4.run(prog)
        assert result.makespan == max(result.clocks)
        assert result.makespan >= 0.04

    def test_phase_breakdown_takes_max_per_phase(self, cluster2):
        def prog(ctx):
            ctx.clock.phase = "work"
            ctx.clock.advance(0.1 * (ctx.rank + 1))

        result = cluster2.run(prog)
        assert result.phase_breakdown()["work"] == pytest.approx(0.2)

    def test_empty_result(self):
        assert ClusterResult(per_rank=[], clocks=[], timings=[]).makespan == 0.0


class TestPartitionRows:
    def test_covers_all_rows(self):
        spans = [block_share(10, 3, r) for r in range(3)]
        assert spans == [(0, 4), (4, 7), (7, 10)]

    def test_empty_input(self):
        assert block_share(0, 4, 0) == (0, 0)
