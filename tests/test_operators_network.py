"""Integration tests for the network operators on the simulated cluster."""

import weakref

import numpy as np
import pytest

from repro import RunOptions
from repro.core.compression import RadixCompression
from repro.core.context import ExecutionContext
from repro.core.executor import execute
from repro.core.functions import RadixPartition
from repro.core.kernels.scatter import window_bases
from repro.core.operators import (
    LocalHistogram,
    MaterializeRowVector,
    MpiBroadcast,
    MpiExchange,
    MpiExecutor,
    MpiHistogram,
    ParameterLookup,
    ParameterSlot,
    Projection,
    RowScan,
)
from repro.core.operators import mpi_exchange
from repro.core.plan import prepare, walk
from repro.core.plans.fragments import collect, exchange, replicate, sharded_scan
from repro.errors import ExecutionError, TypeCheckError
from repro.mpi.cluster import SimCluster
from repro.mpi.comm import WindowSet
from repro.types import INT64, RowVector, TupleType, row_vector_type

from tests.conftest import make_kv_table, table_source

KV = TupleType.of(key=INT64, value=INT64)


def run_on_cluster(cluster, table, build_plan):
    """Execute a per-rank plan built by ``build_plan(scan)`` and collect."""

    def prog(rank_ctx):
        ctx = ExecutionContext.for_rank(rank_ctx)
        scan = RowScan(table_source(table, ctx), field="t", shard_by_rank=True)
        root = build_plan(scan)
        prepare(root)
        return list(root.stream(ctx))

    return cluster.run(prog)


class TestMpiHistogram:
    def test_global_counts_sum_local(self, cluster4):
        table = make_kv_table(64)

        def plan(scan):
            local = LocalHistogram(scan, RadixPartition("key", 4))
            return MpiHistogram(local, 4)

        result = run_on_cluster(cluster4, table, plan)
        expected = np.bincount(table.column("key") & 3, minlength=4).tolist()
        for rank_rows in result.per_rank:
            assert [c for _b, c in rank_rows] == expected

    def test_type_checked(self, ctx):
        scan = RowScan(table_source(make_kv_table(2), ctx), field="t")
        with pytest.raises(TypeCheckError, match="histogram upstream must produce"):
            MpiHistogram(scan, 4)

    def test_bad_bucket_count(self, ctx):
        scan = RowScan(table_source(make_kv_table(2), ctx), field="t")
        local = LocalHistogram(scan, RadixPartition("key", 4))
        with pytest.raises(TypeCheckError):
            MpiHistogram(local, 0)


class _ExchangeHarness:
    """Builds the LH → MH → EX ladder for exchange tests."""

    @staticmethod
    def plan(scan, n_parts, compression=None):
        fn = RadixPartition("key", n_parts)
        local = LocalHistogram(scan, RadixPartition("key", n_parts))
        global_h = MpiHistogram(local, n_parts)
        return MpiExchange(scan, local, global_h, fn, compression=compression)


class TestMpiExchange:
    def test_every_partition_on_exactly_one_rank(self, cluster4):
        table = make_kv_table(128)
        result = run_on_cluster(
            cluster4, table, lambda scan: _ExchangeHarness.plan(scan, 8)
        )
        owner: dict[int, int] = {}
        for rank, rows in enumerate(result.per_rank):
            for pid, _data in rows:
                assert pid not in owner
                owner[pid] = rank
        assert set(owner) == set(range(8))
        assert all(pid % 4 == rank for pid, rank in owner.items())

    def test_partition_contents_complete_and_correct(self, cluster4):
        table = make_kv_table(128, seed=5)
        result = run_on_cluster(
            cluster4, table, lambda scan: _ExchangeHarness.plan(scan, 8)
        )
        collected = []
        for rows in result.per_rank:
            for pid, data in rows:
                assert ((data.column("key") & 7) == pid).all()
                collected.extend(data.iter_rows())
        assert sorted(collected) == sorted(table.iter_rows())

    def test_partitions_dense_and_ordered_per_rank(self, cluster2):
        table = make_kv_table(32)
        result = run_on_cluster(
            cluster2, table, lambda scan: _ExchangeHarness.plan(scan, 8)
        )
        for rank, rows in enumerate(result.per_rank):
            assert [pid for pid, _ in rows] == list(range(rank, 8, 2))

    def test_compressed_exchange_roundtrip(self, cluster2):
        comp = RadixCompression(key_bits=10, fanout_bits=2)  # values < 1000 < 2^10
        table = make_kv_table(64, key_range=200)
        result = run_on_cluster(
            cluster2,
            table,
            lambda scan: _ExchangeHarness.plan(scan, 4, compression=comp),
        )
        restored = []
        for rows in result.per_rank:
            for pid, data in rows:
                assert data.element_type.field_names == ("packed",)
                back = comp.unpack_batch(data, pid, KV)
                restored.extend(back.iter_rows())
        assert sorted(restored) == sorted(table.iter_rows())

    def test_compression_needs_two_int_fields(self, ctx):
        wide = TupleType.of(a=INT64, b=INT64, c=INT64)
        table = RowVector.from_rows(wide, [(1, 2, 3)])
        scan = RowScan(table_source(table, ctx), field="t")
        fn = RadixPartition("a", 4)
        local = LocalHistogram(scan, RadixPartition("a", 4))
        with pytest.raises(TypeCheckError, match="key, payload"):
            MpiExchange(
                scan, local, local, fn, compression=RadixCompression(8, 2)
            )

    def test_more_ranks_than_partitions(self, cluster4):
        table = make_kv_table(16)
        result = run_on_cluster(
            cluster4, table, lambda scan: _ExchangeHarness.plan(scan, 2)
        )
        assert [len(rows) for rows in result.per_rank] == [1, 1, 0, 0]

    @pytest.mark.parametrize("n_parts, n_ranks", [(1, 1), (8, 4), (16, 3), (2, 4), (4, 8)])
    def test_layout_table_matches_the_per_owner_loop(self, ctx, n_parts, n_ranks):
        scan = RowScan(table_source(make_kv_table(4), ctx), field="t")
        exchange = _ExchangeHarness.plan(scan, n_parts)
        counts = np.random.default_rng(n_parts).integers(0, 50, n_parts)
        expected = np.zeros(n_parts, dtype=np.int64)
        for rank in range(n_ranks):
            owned = np.arange(rank, n_parts, n_ranks)
            expected[owned] = np.cumsum(counts[owned]) - counts[owned]
        assert exchange._layout_table(counts, n_ranks).tolist() == expected.tolist()
        assert window_bases(counts, n_ranks).tolist() == expected.tolist()


class TestMpiBroadcast:
    def test_every_rank_sees_all_tuples(self, cluster4):
        table = make_kv_table(40, seed=2)

        def plan(scan):
            fn_hist = RadixPartition("key", 1)
            local = LocalHistogram(scan, RadixPartition("key", 1))
            global_h = MpiHistogram(local, 1)
            return MpiBroadcast(scan, local, global_h)

        result = run_on_cluster(cluster4, table, plan)
        for rows in result.per_rank:
            assert sorted(rows) == sorted(table.iter_rows())


class TestMpiExecutor:
    def _executor_plan(self, cluster, table):
        slot = ParameterSlot(TupleType.of(t=row_vector_type(KV)))

        def build_worker(worker_slot):
            scan = RowScan(
                Projection(ParameterLookup(worker_slot), ["t"]),
                field="t",
                shard_by_rank=True,
            )
            local = LocalHistogram(scan, RadixPartition("key", 4))
            return MaterializeRowVector(MpiHistogram(local, 4), field="hist")

        executor = MpiExecutor(ParameterLookup(slot), build_worker, cluster)
        return executor, slot

    def test_replicated_input_runs_on_all_ranks(self, cluster4):
        from repro.core.executor import execute

        table = make_kv_table(64)
        executor, slot = self._executor_plan(cluster4, table)
        result = execute(
            MaterializeRowVector(RowScan(executor, field="hist"), field="all"),
            params={slot: (table,)},
        )
        (row,) = result.rows
        assert len(row[0]) == 4 * 4  # four ranks × four buckets

    def test_wrong_input_count_rejected(self, cluster2):
        from repro.core.executor import execute

        table = make_kv_table(8)
        outer_type = TupleType.of(t=row_vector_type(KV))
        three = RowVector.from_rows(outer_type, [(table,), (table,), (table,)])
        slot = ParameterSlot(TupleType.of(inputs=row_vector_type(outer_type)))
        inputs = RowScan(ParameterLookup(slot), field="inputs")

        def build_worker(worker_slot):
            scan = RowScan(Projection(ParameterLookup(worker_slot), ["t"]), field="t")
            local = LocalHistogram(scan, RadixPartition("key", 2))
            return MaterializeRowVector(local, field="hist")

        executor = MpiExecutor(inputs, build_worker, cluster2)
        root = MaterializeRowVector(RowScan(executor, field="hist"), field="all")
        with pytest.raises(ExecutionError, match="multiple of the rank count"):
            execute(root, params={slot: (three,)})

    def test_records_cluster_result(self, cluster2):
        from repro.core.executor import execute

        table = make_kv_table(16)
        executor, slot = self._executor_plan(cluster2, table)
        root = MaterializeRowVector(RowScan(executor, field="hist"), field="all")
        result = execute(root, params={slot: (table,)})
        assert len(result.cluster_results) == 1
        assert result.cluster_results[0].makespan > 0


    def test_multi_wave_dispatch(self):
        from repro.core.executor import execute
        from repro.core.options import RunOptions
        from repro.mpi.cluster import SimCluster

        # Four inputs on two ranks run as two waves; outputs keep order.
        tables = [make_kv_table(8, seed=s) for s in range(4)]
        outer_type = TupleType.of(t=row_vector_type(KV))
        inputs_vec = RowVector.from_rows(outer_type, [(t,) for t in tables])
        slot = ParameterSlot(TupleType.of(inputs=row_vector_type(outer_type)))
        inputs = RowScan(ParameterLookup(slot), field="inputs")

        def build_worker(worker_slot):
            scan = RowScan(Projection(ParameterLookup(worker_slot), ["t"]), field="t")
            local = LocalHistogram(scan, RadixPartition("key", 2))
            return MaterializeRowVector(MpiHistogram(local, 2), field="hist")

        executor = MpiExecutor(inputs, build_worker, SimCluster(2, trace=True))
        root = MaterializeRowVector(RowScan(executor, field="hist"), field="all")
        result = execute(
            root,
            params={slot: (inputs_vec,)},
            options=RunOptions(profile=True, metrics=True),
        )
        (row,) = result.rows
        assert len(row[0]) == 4 * 2  # four invocations x two buckets

        # Every completed wave is in the record, so the per-job evidence
        # accounts for the whole run: the driver waited exactly the two
        # makespans, the phase breakdown sums both waves, and the folded
        # collective count is the traced one.
        first, second = result.cluster_results
        assert first is not second and first.trace is not second.trace
        (node,) = result.profile.find("MpiExecutor")
        assert first.makespan + second.makespan == pytest.approx(
            node.stats.sim_seconds, rel=1e-12
        )
        breakdown = result.phase_breakdown()
        for phase in set(first.phase_breakdown()) | set(second.phase_breakdown()):
            assert breakdown[phase] == pytest.approx(
                first.phase_breakdown().get(phase, 0.0)
                + second.phase_breakdown().get(phase, 0.0)
            )
        traced = sum(len(t.events(kind="collective")) for t in result.traces)
        assert traced == 2 * 2  # one allreduce per rank per wave
        assert result.metrics.total("comm_collectives") == traced
        # Rank spans join the span log wave by wave, rank by rank.
        ranks = [s.rank for s in result.profile.spans if s.rank >= 0]
        runs = [r for i, r in enumerate(ranks) if i == 0 or ranks[i - 1] != r]
        assert runs == [0, 1, 0, 1]


class TestNoRankParksHoldingAMorsel:
    """Under the baton every rank parked at a collective is suspended at
    once, so an array a rank still holds there is resident once per rank.
    Every per-morsel array of an exchange or broadcast — the morsel, its
    buckets, its scatter layout, its packed wire — must be dead by the time
    any rank reaches the ``fence``."""

    @staticmethod
    def run_guarded(monkeypatch, worker):
        live, fences = [], []

        def keep(arrays):
            live.extend(weakref.ref(array) for array in arrays)

        def spy(owner, name, arrays_of):
            real = getattr(owner, name)

            def recorded(*args):
                result = real(*args)
                keep(arrays_of(result))
                return result

            monkeypatch.setattr(owner, name, recorded)

        spy(RadixPartition, "map_batch", lambda buckets: [buckets])
        spy(RadixCompression, "pack_batch", lambda wire: wire.columns)
        spy(mpi_exchange, "partition_layout", lambda layout: layout)
        fence = WindowSet.fence

        def guarded(self):
            held = sum(ref() is not None for ref in live)
            assert not held, f"a rank reached the fence holding {held} morsel arrays"
            fences.append(len(live))
            fence(self)

        monkeypatch.setattr(WindowSet, "fence", guarded)
        slot = ParameterSlot(TupleType.of(t=row_vector_type(KV)))
        _, flat = collect(slot, worker, SimCluster(4))
        for op in walk(flat, into_nested=True):
            if isinstance(op, (MpiExchange, MpiBroadcast)):
                real = op.upstreams[0].stream_batches

                def streamed(ctx, real=real):
                    for batch in real(ctx):
                        keep(batch.columns)
                        yield batch

                monkeypatch.setattr(op.upstreams[0], "stream_batches", streamed)
        table = RowVector(KV, [np.arange(5000) % 256, np.arange(5000) % 200])
        options = RunOptions(morsel_rows=300)
        report = execute(flat, params={slot: (table,)}, options=options)
        assert len(fences) == 4 and fences[0] > 0
        return report

    @pytest.mark.parametrize("compression", [False, True], ids=["plain", "compressed"])
    def test_exchange(self, monkeypatch, compression):
        def worker(stream):
            shuffled = exchange(
                sharded_scan(stream, "t"), RadixPartition("key", 4), "pid", "data",
                RadixCompression(8, 2) if compression else None,
            ).suppress("MOD023")
            return MaterializeRowVector(RowScan(shuffled, field="data"), field="result")

        report = self.run_guarded(monkeypatch, worker)
        assert len(report.rows) == 5000

    def test_broadcast(self, monkeypatch):
        def worker(stream):
            replicated = replicate(sharded_scan(stream, "t"), "key")
            return MaterializeRowVector(replicated, field="result")

        report = self.run_guarded(monkeypatch, worker)
        assert len(report.rows) == 4 * 5000
