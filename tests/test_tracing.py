"""End-to-end query tracing: contexts, journals, and SLO accounting.

Every submission a soak makes must resolve to exactly one journal via
its trace id, every event the run records (scheduler picks, lifecycle
transitions, operator spans, substrate puts/collectives) must carry a
trace id that resolves back to that journal, and journals must replay
bit-identically across same-seed reruns — the span ids are derived from
the submission counter and the simulated clock, never wall time.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.policy import CHAOS_PROFILES
from repro.observability.tracing import QueryJournal, TraceContext
from repro.serving import SoakConfig, run_soak
from repro.serving.soak import chaos_matrix

SF = 0.002


class TestTraceContext:
    def test_root_span_is_deterministic_path(self):
        ctx = TraceContext.for_query(7)
        assert ctx.trace_id == "serve-000007"
        assert ctx.span_id == "serve-000007"
        assert ctx.parent_span_id == ""
        assert ctx.attempt == 0

    def test_child_spans_extend_the_path(self):
        root = TraceContext.for_query(3)
        attempt = root.for_attempt(2)
        assert attempt.span_id == "serve-000003/a2"
        assert attempt.parent_span_id == root.span_id
        assert attempt.attempt == 2
        rank = attempt.for_rank(1)
        assert rank.span_id == "serve-000003/a2/r1"
        assert rank.parent_span_id == attempt.span_id
        assert rank.stage == "rank"
        stage = attempt.for_stage("recover1")
        assert stage.span_id == "serve-000003/a2/recover1"
        assert stage.stage == "recover1"

    def test_all_children_share_the_trace_id(self):
        root = TraceContext.for_query(5)
        nodes = [
            root,
            root.for_attempt(1),
            root.for_attempt(1).for_rank(0),
            root.for_attempt(1).for_stage("recover1"),
        ]
        assert {node.trace_id for node in nodes} == {"serve-000005"}


class TestJournalLifecycle:
    def test_journal_audits_submit_to_settle(self):
        journal = QueryJournal("serve-000001", 1, "tenant", "q4@v1")
        journal.note("submitted")
        journal.query_id = 3
        journal.note("admitted", query_id=3)
        journal.note("attempt_started", span_id="serve-000001/a1", attempt=1)
        journal.settle(
            "completed",
            span_id="serve-000001/a1",
            attempt=1,
            sim_time=0.5,
            steps=12,
            result_rows=10,
        )
        assert journal.settled
        assert [e.kind for e in journal.events] == [
            "submitted", "admitted", "attempt_started", "settled",
        ]
        assert journal.span_links() == ["serve-000001", "serve-000001/a1"]
        assert journal.total_seconds == 0.5
        assert journal.execution_seconds == 0.5
        assert journal.result_rows == 10

    def test_backoff_decomposes_out_of_execution(self):
        journal = QueryJournal("serve-000001", 1, "t", "h")
        journal.record_backoff(0.2)
        journal.settle("completed", sim_time=0.5)
        assert journal.backoff_seconds == pytest.approx(0.2)
        assert journal.execution_seconds == pytest.approx(0.3)

    def test_double_settle_rejected(self):
        journal = QueryJournal("serve-000001", 1, "t", "h")
        journal.settle("failed", reason="boom")
        with pytest.raises(RuntimeError):
            journal.settle("completed")

    def test_unknown_terminal_rejected(self):
        journal = QueryJournal("serve-000001", 1, "t", "h")
        with pytest.raises(ValueError):
            journal.settle("exploded")

    def test_canonical_form_excludes_wall_fields(self):
        journal = QueryJournal("serve-000001", 1, "t", "h")
        journal.wall_seconds = 1.0
        journal.queue_wall_seconds = 0.5
        journal.settle("completed", sim_time=0.1)
        canonical = journal.as_dict()
        assert "wall_seconds" not in canonical
        assert "queue_wall_seconds" not in canonical
        full = journal.as_dict(canonical=False)
        assert full["wall_seconds"] == 1.0
        assert full["queue_wall_seconds"] == 0.5


def _traced_soak(**kwargs) -> object:
    defaults = dict(
        scale_factor=SF,
        n_queries=6,
        trace=True,
        verify_frames=False,
    )
    defaults.update(kwargs)
    report = run_soak(SoakConfig(**defaults))
    assert report.journal_errors() == []
    return report


class TestSoakTracing:
    def test_every_event_resolves_to_exactly_one_journal(self):
        report = _traced_soak(n_queries=8)
        by_trace = {j.trace_id: j for j in report.journals}
        assert len(by_trace) == len(report.journals)
        # Scheduler picks carry the attempt span of the query they ran,
        # and their seq lies on the axis of that query's journal span.
        assert report.scheduler_events
        for event in report.scheduler_events:
            assert event.trace_id in by_trace
            assert event.span_id.startswith(event.trace_id)
            journal = by_trace[event.trace_id]
            assert journal.first_seq <= event.seq <= journal.last_seq, event
        # Lifecycle transitions resolve too (breaker transitions are the
        # only untraced lifecycle events, and none fire here).
        for event in report.lifecycle_events:
            if event.trace_id:
                assert event.trace_id in by_trace
        # Every operator span and substrate event in every report is
        # stamped with its query's trace.
        assert report.reports_by_trace
        for trace_id, exec_report in report.reports_by_trace.items():
            assert trace_id in by_trace
            assert exec_report.profile is not None
            for span in exec_report.profile.spans:
                assert span.trace_id == trace_id
            for trace in exec_report.traces:
                for event in trace.events():
                    assert event.trace_id == trace_id

    def test_journals_settle_mirror_of_ledger(self):
        report = _traced_soak()
        assert all(j.settled for j in report.journals)
        completed = [j for j in report.journals if j.terminal == "completed"]
        assert len(completed) == len(report.results)
        for journal in completed:
            assert journal.result_rows >= 0
            assert journal.steps > 0
            assert journal.total_seconds > 0

    def test_journal_event_order_is_causal(self):
        report = _traced_soak()
        for journal in report.journals:
            kinds = [e.kind for e in journal.events]
            assert kinds[0] == "submitted"
            assert kinds[-1] == "settled"
            if journal.query_id >= 0:
                assert kinds[1] == "admitted"

    def test_flaky_chaos_journals_record_retries(self):
        report = _traced_soak(chaos="flaky", retries=2, n_queries=6)
        retried = [
            j for j in report.journals
            if any(e.kind == "retry_scheduled" for e in j.events)
        ]
        assert retried, "flaky profile with retries should retry something"
        for journal in retried:
            assert journal.attempts >= 2
            assert journal.backoff_seconds > 0
            assert journal.execution_seconds <= journal.total_seconds
            spans = journal.span_links()
            assert f"{journal.trace_id}/a1" in spans
            assert f"{journal.trace_id}/a2" in spans

    def test_journal_reconciles_across_chaos_matrix(self):
        reports = chaos_matrix(
            scale_factor=SF, machines=2, n_queries=4, seed=11, trace=True
        )
        assert set(reports) <= set(CHAOS_PROFILES) and reports
        for profile, report in reports.items():
            assert report.journal_errors() == [], profile
            assert all(j.settled for j in report.journals), profile

    def test_slo_quantiles_are_non_degenerate(self):
        report = _traced_soak(slo_target=10.0, n_queries=8)
        slo = report.slo
        assert slo is not None
        assert slo.ok
        assert slo.tenants
        for entry in slo.tenants:
            for q in (entry.p50, entry.p95, entry.p99):
                assert math.isfinite(q) and q > 0
            assert entry.p50 <= entry.p95 <= entry.p99
        assert slo.handles

    def test_slo_burn_counts_misses(self):
        # An absurdly tight target burns every completed query.
        report = _traced_soak(slo_target=1e-9, n_queries=6)
        slo = report.slo
        assert slo is not None
        assert not slo.ok
        burned = sum(entry.burned for entry in slo.tenants)
        assert burned == len(report.results)

    def test_untraced_soak_still_keeps_journals(self):
        report = run_soak(
            SoakConfig(
                scale_factor=SF, n_queries=4, verify_frames=False,
            )
        )
        assert report.journal_errors() == []
        assert len(report.journals) >= 4
        assert report.reports_by_trace == {}


journal_configs = st.fixed_dictionaries(
    {
        "chaos": st.sampled_from(CHAOS_PROFILES),
        "retries": st.integers(min_value=0, max_value=2),
        "cancel_every": st.sampled_from((0, 3)),
        "deadline": st.sampled_from((None, 1e3)),
    }
)


@given(config=journal_configs)
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_journals_replay_bit_identical(config):
    """Same seed, same config -> byte-identical canonical journals."""

    def canonical(kwargs):
        report = run_soak(
            SoakConfig(
                scale_factor=SF,
                n_queries=5,
                verify_frames=False,
                **kwargs,
            )
        )
        assert report.journal_errors() == []
        return [j.as_dict() for j in report.journals]

    assert canonical(config) == canonical(config)
