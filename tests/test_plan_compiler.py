"""Unit tests for the plan compiler: pipeline cutting and annotations."""

import sys
import threading

from repro.core.functions import RadixPartition, field_sum
from repro.core.operators import (
    LocalHistogram,
    LocalPartitioning,
    MaterializeRowVector,
    Projection,
    ReduceByKey,
    RowScan,
    Zip,
)
from repro.core.plan import SharedScan, explain, prepare, walk
from repro.mpi import SimCluster
from repro.relational import lower_to_modularis
from repro.tpch import load_catalog, q19
from repro.types import INT64, TupleType

from tests.conftest import make_kv_table, table_source

KV = TupleType.of(key=INT64, value=INT64)


class TestWalk:
    def test_yields_each_node_once(self, ctx):
        scan = RowScan(table_source(make_kv_table(4), ctx), field="t")
        hist = LocalHistogram(scan, RadixPartition("key", 2))
        part = LocalPartitioning(scan, hist, RadixPartition("key", 2))
        nodes = list(walk(part))
        assert len(nodes) == len({id(n) for n in nodes})
        assert part in nodes and scan in nodes


class TestSharedScanInsertion:
    def test_base_scans_are_cloned_not_materialized(self, ctx):
        # The scan feeding both histogram and partitioning re-reads the
        # table (paper: "each rank reads the input again").
        scan = RowScan(table_source(make_kv_table(8), ctx), field="t")
        fn = RadixPartition("key", 2)
        hist = LocalHistogram(scan, RadixPartition("key", 2))
        part = LocalPartitioning(scan, hist, fn)
        root = MaterializeRowVector(part)
        prepare(root)
        assert not any(isinstance(op, SharedScan) for op in walk(root))
        # The two consumers now hold *different* RowScan instances.
        scans = [op for op in walk(root) if isinstance(op, RowScan)]
        assert len(scans) == 2

    def test_cloned_scan_chains_keep_lint_suppressions(self, ctx):
        # A suppression records an *intentional* deviation; analyses run
        # after prepare() (e.g. the degraded-plan re-verification in stage
        # recovery) must see the same verdicts on the per-consumer clones.
        scan = RowScan(
            Projection(table_source(make_kv_table(8), ctx), ["t"]).suppress(
                "MOD022"
            ),
            field="t",
        )
        scan.suppress("MOD099")
        fn = RadixPartition("key", 2)
        hist = LocalHistogram(scan, RadixPartition("key", 2))
        part = LocalPartitioning(scan, hist, fn)
        root = MaterializeRowVector(part)
        prepare(root)
        scans = [op for op in walk(root) if isinstance(op, RowScan)]
        projections = [op for op in walk(root) if isinstance(op, Projection)]
        assert len(scans) == 2 and len(projections) == 2
        assert all("MOD099" in s.lint_suppressions for s in scans)
        assert all("MOD022" in p.lint_suppressions for p in projections)

    def test_non_scan_shared_results_are_materialized(self, ctx):
        # A ReduceByKey consumed twice is expensive: it must be wrapped.
        scan = RowScan(table_source(make_kv_table(8), ctx), field="t")
        agg = ReduceByKey(scan, "key", field_sum("value"))
        left = Projection(agg, ["key"])
        right = Projection(agg, ["value"])
        root = MaterializeRowVector(Zip([left, right]))
        prepare(root)
        shared = [op for op in walk(root) if isinstance(op, SharedScan)]
        assert len(shared) == 2
        assert shared[0].upstreams[0] is shared[1].upstreams[0]

    def test_shared_result_computed_once(self, ctx):
        calls = []
        scan = RowScan(table_source(make_kv_table(8), ctx), field="t")
        agg = ReduceByKey(scan, "key", field_sum("value"))
        original_lanes = agg.lanes

        def counting(lx):
            calls.append(1)
            yield from original_lanes(lx)

        agg.lanes = counting
        left = Projection(agg, ["key"])
        right = Projection(agg, ["value"])
        root = MaterializeRowVector(Zip([left, right]))
        prepare(root)
        list(root.stream(ctx))
        assert len(calls) == 1

    def test_prepare_is_idempotent(self, ctx):
        scan = RowScan(table_source(make_kv_table(4), ctx), field="t")
        agg = ReduceByKey(scan, "key", field_sum("value"))
        root = MaterializeRowVector(Zip([Projection(agg, ["key"]), Projection(agg, ["value"])]))
        prepare(root)
        count = sum(isinstance(op, SharedScan) for op in walk(root))
        prepare(root)
        assert sum(isinstance(op, SharedScan) for op in walk(root)) == count

    def test_first_prepare_is_safe_under_concurrency(self):
        # A deployed plan is shared by every run, so two server workers can
        # run its first prepare at once; a racing second pass would wrap or
        # clone again and change pipeline sizes, hence simulated time.
        catalog = load_catalog(scale_factor=0.002)

        def fresh_q19():
            return lower_to_modularis(q19().plan, catalog, SimCluster(4)).root

        def cut(root):
            return explain(root), [op.pipeline_size for op in walk(root, into_nested=True)]

        expected = cut(prepare(fresh_q19()))
        root = fresh_q19()
        start = threading.Barrier(8)

        def racer():
            start.wait(timeout=60)
            prepare(root)

        threads = [threading.Thread(target=racer) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert cut(root) == expected


class TestAnnotations:
    def _prepared_partition_plan(self, ctx):
        scan = RowScan(table_source(make_kv_table(8), ctx), field="t")
        fn = RadixPartition("key", 2)
        hist = LocalHistogram(scan, RadixPartition("key", 2))
        part = LocalPartitioning(scan, hist, fn)
        root = MaterializeRowVector(part)
        prepare(root)
        return root

    def test_phase_defining_operators_keep_their_phase(self, ctx):
        root = self._prepared_partition_plan(ctx)
        phases = {type(op).__name__: op.assigned_phase for op in walk(root)}
        assert phases["LocalHistogram"] == "local_histogram"
        assert phases["LocalPartitioning"] == "local_partition"
        assert phases["MaterializeRowVector"] == "materialize"

    def test_plumbing_inherits_consumer_phase(self, ctx):
        root = self._prepared_partition_plan(ctx)
        scans = [op for op in walk(root) if isinstance(op, RowScan)]
        assert sorted(op.assigned_phase for op in scans) == [
            "local_histogram",
            "local_partition",
        ]

    def test_heavy_pipelines_get_floor_size(self, ctx):
        root = self._prepared_partition_plan(ctx)
        part = next(op for op in walk(root) if isinstance(op, LocalPartitioning))
        assert part.pipeline_size >= 6

    def test_histogram_pipeline_is_small(self, ctx):
        root = self._prepared_partition_plan(ctx)
        hist = next(op for op in walk(root) if isinstance(op, LocalHistogram))
        assert hist.pipeline_size <= 4


class TestExplain:
    def test_explain_renders_tree(self, ctx):
        scan = RowScan(table_source(make_kv_table(2), ctx), field="t")
        root = MaterializeRowVector(scan)
        prepare(root)
        text = explain(root)
        assert "MaterializeRowVector" in text
        assert "RowScan" in text
        assert "phase=" in text
