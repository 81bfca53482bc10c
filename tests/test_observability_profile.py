"""Tests for the operator-level profiler and EXPLAIN ANALYZE output."""

import itertools
import warnings

import pytest

from repro.core import lockstep
from repro.core.context import ExecutionContext
from repro.core.options import RunOptions
from repro.core.executor import ExecutionReport, execute
from repro.core.functions import field_sum
from repro.core.operators import (
    MaterializeRowVector,
    ParameterLookup,
    ParameterSlot,
    Reduce,
    RowScan,
)
from repro.core.plans import build_distributed_join
from repro.mpi.cluster import SimCluster
from repro.observability import Profiler
from repro.observability import profile as profile_module
from repro.types import INT64, TupleType, row_vector_type
from repro.workloads import make_join_relations

from tests.conftest import make_kv_table

KV = TupleType.of(key=INT64, value=INT64)


def simple_plan():
    slot = ParameterSlot(TupleType.of(t=row_vector_type(KV)))
    scan = RowScan(ParameterLookup(slot), field="t")
    total = Reduce(scan, field_sum("key", "value"))
    return MaterializeRowVector(total, field="result"), slot


class TestDisabledCostsNothing:
    def test_no_profile_by_default(self):
        root, slot = simple_plan()
        result = execute(root, params={slot: (make_kv_table(64),)})
        assert result.profile is None

    def test_observe_never_called_when_disabled(self, monkeypatch):
        """A default run never reaches the one observer of every walk; a
        profiled run does (the positive control)."""
        def boom(*args, **kwargs):
            raise AssertionError("lockstep._observed reached")

        monkeypatch.setattr(lockstep, "_observed", boom)
        root, slot = simple_plan()
        params = {slot: (make_kv_table(64),)}
        assert len(execute(root, params=params).rows) == 1
        with pytest.raises(AssertionError, match="_observed reached"):
            execute(root, params=params, options=RunOptions(profile=True))

    def test_track_never_called_unless_sanitized(self, monkeypatch):
        """Likewise the sanitizer's provenance hook, ``Sanitizer.track``."""
        from repro.analysis.sanitizer import Sanitizer

        def boom(*args, **kwargs):
            raise AssertionError("Sanitizer.track reached")

        monkeypatch.setattr(Sanitizer, "track", boom)
        root, slot = simple_plan()
        params = {slot: (make_kv_table(64),)}
        assert len(execute(root, params=params).rows) == 1
        with pytest.raises(AssertionError, match="track reached"):
            execute(root, params=params, options=RunOptions(sanitize=True))

    def test_profiled_run_bit_identical(self):
        """Profiling must not perturb results or the simulated clock."""
        table = make_kv_table(1 << 10)
        root_a, slot_a = simple_plan()
        root_b, slot_b = simple_plan()
        plain = execute(root_a, params={slot_a: (table,)})
        profiled = execute(root_b, params={slot_b: (table,)}, options=RunOptions(profile=True))
        assert plain.rows[0][0].row(0) == profiled.rows[0][0].row(0)
        assert plain.simulated_time == profiled.simulated_time


class TestProfileContents:
    def test_root_row_count_matches_output(self):
        root, slot = simple_plan()
        result = execute(
            root, params={slot: (make_kv_table(256),)},
            options=RunOptions(profile=True),
        )
        profile = result.profile
        assert profile is not None
        assert profile.root.stats.rows_out == len(result.rows)

    def test_spans_recorded(self):
        root, slot = simple_plan()
        result = execute(
            root, params={slot: (make_kv_table(64),)},
            options=RunOptions(profile=True),
        )
        assert result.profile.spans
        assert result.profile.dropped_spans == 0
        span = result.profile.spans[-1]
        assert span.kind == "operator"
        assert span.end >= span.start

    def test_render_annotations(self):
        root, slot = simple_plan()
        result = execute(
            root, params={slot: (make_kv_table(64),)},
            options=RunOptions(profile=True),
        )
        text = result.profile.render()
        assert text.startswith("EXPLAIN ANALYZE")
        assert "MaterializeRowVector" in text
        assert "RowScan" in text
        assert "rows=" in text
        assert "self=" in text

    def test_to_dict_round_trips_counts(self):
        root, slot = simple_plan()
        result = execute(
            root, params={slot: (make_kv_table(64),)},
            options=RunOptions(profile=True),
        )
        payload = result.profile.to_dict()
        assert payload["plan"]["op"] == "MaterializeRowVector"
        assert payload["plan"]["rows_out"] == 1
        assert payload["spans"] == len(result.profile.spans)

    def test_cold_plan_renders_never_executed(self):
        from repro.observability import PlanProfile

        root, _slot = simple_plan()
        profile = PlanProfile.from_plan(
            root, Profiler(clock=None), total_seconds=0.0, mode="fused"
        )
        assert "never executed" in profile.render()


class TestDistributedMerge:
    def test_rank_stats_merged_into_driver(self):
        workload = make_join_relations(1 << 10)
        plan = build_distributed_join(
            SimCluster(2),
            workload.left.element_type,
            workload.right.element_type,
            key_bits=workload.key_bits,
        )
        report = plan.run(workload.left, workload.right, RunOptions(profile=True))
        profile = report.profile
        assert profile is not None
        # Nested-plan nodes executed once per rank.
        exchanges = profile.find("MpiExchange")
        assert exchanges and all(n.stats.calls == 2 for n in exchanges)
        # Max-over-ranks self time is bounded by the summed self time.
        for node in profile.nodes():
            assert (
                node.stats.max_rank_sim_seconds
                <= node.stats.sim_seconds + 1e-12
            )
        # Spans carry real rank ids from the worker threads.
        ranks = {s.rank for s in profile.spans}
        assert {0, 1} <= ranks

    def test_self_walls_sum_to_no_more_than_the_run(self, monkeypatch):
        # Each wall-clock read is one tick.  The lanes' frames nest under
        # the executor's on the driver's stack, so no tick is booked twice.
        ticks = itertools.count()
        monkeypatch.setattr(profile_module, "perf_counter", lambda: float(next(ticks)))
        workload = make_join_relations(1 << 10)
        plan = build_distributed_join(
            SimCluster(4),
            workload.left.element_type,
            workload.right.element_type,
            key_bits=workload.key_bits,
        )
        start = next(ticks)
        report = plan.run(workload.left, workload.right, RunOptions(profile=True))
        consumed = next(ticks) - start
        booked = sum(node.stats.wall_seconds for node in report.profile.nodes())
        assert 0 < booked <= consumed + 1e-6

    def test_modes_attributed_separately(self):
        root, slot = simple_plan()
        table = make_kv_table(128)
        from repro.core.context import ExecutionContext

        # One run has one mode: each context's run carries its own.
        for mode in ("fused", "interpreted"):
            ctx = ExecutionContext(options=RunOptions(mode=mode, profile=True))
            report = execute(root, params={slot: (table,)}, ctx=ctx)
            assert report.profile.mode == mode
            assert report.profile.root.stats.rows_out == len(report.rows)
            assert {span.mode for span in report.profile.spans} == {mode}


QUERY_IDS = (4, 12, 14, 19)


class TestTpchRowCounts:
    @pytest.fixture(scope="class")
    def catalog(self):
        from repro.tpch import load_catalog

        return load_catalog(scale_factor=0.005)

    @pytest.mark.parametrize("qnum", QUERY_IDS)
    @pytest.mark.parametrize("mode", ("fused", "interpreted"))
    def test_profile_counts_match_materialized_output(self, catalog, qnum, mode):
        from repro.relational import lower_to_modularis
        from repro.tpch import ALL_QUERIES

        lowered = lower_to_modularis(
            ALL_QUERIES[qnum]().plan, catalog, SimCluster(2)
        )
        report = lowered.run(catalog, RunOptions(mode=mode, profile=True))
        materialized = report.rows[0][0]
        profile = report.profile
        # The root materializes the whole result as one vector-bearing row.
        assert profile.root.stats.rows_out == len(report.rows) == 1
        # Its input stream carries exactly the materialized result rows.
        (feeder,) = profile.root.children
        assert feeder.stats.rows_out == len(materialized)
        assert {span.mode for span in profile.spans} == {mode}
        # The presented frame matches too (modulo the SQL convention of one
        # all-zero row for a scalar aggregate over zero qualifying rows).
        frame = lowered.result_frame(report)
        assert frame.n_rows == max(len(materialized), 1)


class TestExecutionReportCompat:
    def test_execution_result_shim_is_gone(self):
        # The PR-3 compatibility shim completed its deprecation cycle.
        import repro.core
        import repro.core.executor

        assert not hasattr(repro.core.executor, "ExecutionResult")
        assert "ExecutionResult" not in repro.core.__all__

    def test_trace_properties(self):
        report = ExecutionReport(rows=[], output_type=KV, simulated_time=0.0)
        assert report.traces == []
        assert report.trace is None

    def test_no_warning_on_simulated_time(self):
        report = ExecutionReport(rows=[], output_type=KV, simulated_time=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert report.simulated_time == 1.0
