"""Tests for typed trace events and the Chrome-trace exporter."""

import json

import pytest

from repro.core.options import RunOptions
from repro.core.plans import build_distributed_join
from repro.mpi.cluster import SimCluster
from repro.mpi.trace import RankCommStats, TraceEvent
from repro.observability import (
    CollectiveDetail,
    PutDetail,
    WindowDetail,
    chrome_trace_events,
    write_chrome_trace,
)
from repro.workloads import make_join_relations


def run_traced_join(machines: int = 2, log2_tuples: int = 10):
    workload = make_join_relations(1 << log2_tuples)
    plan = build_distributed_join(
        SimCluster(machines, trace=True),
        workload.left.element_type,
        workload.right.element_type,
        key_bits=workload.key_bits,
    )
    return plan.run(workload.left, workload.right, RunOptions(profile=True))


class TestTypedDetails:
    def test_details_render_as_chrome_args(self):
        assert CollectiveDetail(stall=0.25).as_dict() == {"stall": 0.25}
        event = TraceEvent(
            rank=0, kind="win_create", label="w", start=0.0, end=1.0,
            detail=WindowDetail(bytes=64, rows=4),
        )
        assert event.chrome_args() == {"bytes": 64, "rows": 4}
        bare = TraceEvent(rank=0, kind="custom", label="c", start=0.0, end=0.0)
        assert bare.chrome_args() == {}


class TestClusterTraceQueries:
    def test_typed_events_from_real_run(self):
        report = run_traced_join()
        trace = report.trace
        assert trace is not None
        for event in trace.events(kind="put"):
            assert isinstance(event.detail, PutDetail)
        for event in trace.events(kind="collective"):
            assert isinstance(event.detail, CollectiveDetail)
        for event in trace.events(kind="win_create"):
            assert isinstance(event.detail, WindowDetail)

    def test_rank_summary_consistent_with_matrix(self):
        report = run_traced_join()
        trace = report.trace
        matrix = trace.bytes_matrix()
        for rank in range(trace.n_ranks):
            stats = trace.rank_summary(rank)
            assert isinstance(stats, RankCommStats)
            assert stats.rank == rank
            assert stats.bytes_sent == sum(
                matrix[rank][d] for d in range(trace.n_ranks) if d != rank
            )
            assert stats.bytes_received == sum(
                matrix[s][rank] for s in range(trace.n_ranks) if s != rank
            )
            assert stats.stall_seconds == pytest.approx(trace.stall_seconds(rank))
            assert stats.collectives == len(
                trace.events(rank=rank, kind="collective")
            )

    def test_summary_text_uses_rank_stats(self):
        report = run_traced_join()
        text = report.trace.summary()
        assert "cluster trace: 2 ranks" in text
        assert "rank 0:" in text and "rank 1:" in text


class TestChromeExport:
    def test_merged_export_loads(self, tmp_path):
        report = run_traced_join()
        out = tmp_path / "trace.json"
        count = write_chrome_trace(
            str(out), profile=report.profile, traces=report.traces
        )
        payload = json.loads(out.read_text())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert len(events) == count
        cats = {e.get("cat") for e in events if e.get("ph") == "X"}
        assert cats == {"operator", "substrate"}
        # Both driver and every rank appear as named processes.
        names = {
            e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        assert {"driver", "rank 0", "rank 1"} <= names
        for event in events:
            if event.get("ph") == "X":
                assert event["dur"] >= 0.0
                assert event["ts"] >= 0.0

    def test_operator_spans_carry_row_args(self):
        report = run_traced_join()
        events = chrome_trace_events(profile=report.profile, traces=report.traces)
        op_events = [e for e in events if e.get("cat") == "operator"]
        assert op_events
        assert all("rows" in e["args"] and "mode" in e["args"] for e in op_events)

    def test_substrate_only_export(self):
        report = run_traced_join()
        events = chrome_trace_events(traces=report.traces)
        assert events
        assert all(e.get("cat") != "operator" for e in events if e.get("ph") == "X")

    def test_operator_tracks_separate_from_substrate(self):
        report = run_traced_join()
        events = chrome_trace_events(profile=report.profile, traces=report.traces)
        substrate_tids = {
            e["tid"] for e in events
            if e.get("ph") == "X" and e.get("cat") == "substrate"
        }
        operator_tids = {
            e["tid"] for e in events
            if e.get("ph") == "X" and e.get("cat") == "operator"
        }
        assert substrate_tids == {0}
        assert 0 not in operator_tids

    def test_dropped_spans_surface_as_metadata(self):
        report = run_traced_join()
        profile = report.profile
        assert not any(
            e["name"] == "dropped_spans"
            for e in chrome_trace_events(profile=profile)
            if e.get("ph") == "M"
        )
        object.__setattr__(profile, "dropped_spans", 42)
        dropped = [
            e for e in chrome_trace_events(profile=profile)
            if e.get("ph") == "M" and e["name"] == "dropped_spans"
        ]
        assert dropped and dropped[0]["args"]["dropped_spans"] == 42


class TestServingExport:
    def _soak(self):
        from repro.serving import SoakConfig, run_soak

        return run_soak(
            SoakConfig(
                scale_factor=0.002, n_queries=4,
                trace=True, verify_frames=False,
            )
        )

    def test_serving_lanes_and_trace_links(self, tmp_path):
        from repro.observability import write_serving_chrome_trace

        report = self._soak()
        queries = [
            (j, report.reports_by_trace.get(j.trace_id))
            for j in report.journals
        ]
        out = tmp_path / "serving.json"
        count = write_serving_chrome_trace(
            str(out),
            queries,
            scheduler_events=report.scheduler_events,
            lifecycle_events=report.lifecycle_events,
        )
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        assert len(events) == count
        pids = {e["pid"] for e in events}
        # The scheduler and tenant lanes plus one process per query.
        assert 1 in pids and 2 in pids
        assert {10 + i for i in range(len(queries))} <= pids
        by_trace = {j.trace_id for j in report.journals}
        for event in events:
            if event.get("ph") == "X" and "trace_id" in event.get("args", {}):
                assert event["args"]["trace_id"] in by_trace

    def test_pid_base_offsets_every_lane(self):
        from repro.observability import serving_trace_events

        report = self._soak()
        queries = [
            (j, report.reports_by_trace.get(j.trace_id))
            for j in report.journals
        ]
        events = serving_trace_events(
            queries,
            scheduler_events=report.scheduler_events,
            pid_base=1000,
            label_prefix="crash",
        )
        assert all(e["pid"] >= 1000 for e in events)
        process_names = [
            e["args"]["name"] for e in events
            if e.get("ph") == "M" and e["name"] == "process_name"
        ]
        assert process_names
        assert all(name.startswith("crash: ") for name in process_names)
