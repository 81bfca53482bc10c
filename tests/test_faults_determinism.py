"""Determinism under chaos: same seed, same faults, same bits.

Fault decisions are pure functions of ``(seed, job, rank, stream, draw)``
and faults only cost simulated time, so a plan under a given policy must
produce bit-identical results across runs, across execution modes, and
against its fault-free twin — the property the paper-level claim
"recovery never changes answers" rests on.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.options import MODES, RunOptions
from repro.core.plans import build_distributed_join
from repro.faults import CrashFault, FaultPolicy
from repro.mpi.cluster import SimCluster
from repro.observability import write_chrome_trace
from repro.workloads import make_join_relations
from tests.test_oracle import Cell, bulk_case, check, tpch_case

_WORKLOAD = make_join_relations(512)
_PLAN = build_distributed_join(
    SimCluster(2, trace=True),
    _WORKLOAD.left.element_type,
    _WORKLOAD.right.element_type,
    key_bits=_WORKLOAD.key_bits,
)


class TestHypothesisSweep:
    def test_fused_and_interpreted_bit_identical_per_seed(self):
        # The oracle's pinned cell: both modes under transient faults give
        # the reference's rows (and the kernels agree bit for bit).
        case = bulk_case(
            "join", _WORKLOAD.left, _WORKLOAD.right, key_bits=_WORKLOAD.key_bits
        )
        for mode in MODES:
            check(case, Cell(ranks=2, mode=mode, faults="transient"))

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=5, deadline=None)
    def test_same_seed_injects_identical_fault_sequence(self, seed):
        policy = FaultPolicy(
            seed=seed, put_drop_rate=0.2, collective_drop_rate=0.1
        )

        def run():
            report = _PLAN.run(_WORKLOAD.left, _WORKLOAD.right, RunOptions(faults=policy))
            return report.fault_summary(), report.simulated_time

        first, second = run(), run()
        assert first == second


@pytest.mark.parametrize("target", ["q4", "q12", "q14", "q19"])
def test_tpch_bit_identical_under_transient_faults(target):
    check(tpch_case(int(target[1:])), Cell(ranks=4, faults="transient"))


def test_tpch_q12_interpreted_matches_too():
    check(tpch_case(12), Cell(ranks=4, mode="interpreted", faults="crash"))


class TestObservabilityOfFaults:
    def test_profiled_run_reports_fault_and_retry_events(self):
        policy = FaultPolicy(seed=5, put_drop_rate=0.2, collective_drop_rate=0.1)
        report = _PLAN.run(
            _WORKLOAD.left, _WORKLOAD.right,
            RunOptions(profile=True, faults=policy),
        )
        kinds = {e.kind for e in report.fault_events()}
        assert "fault" in kinds and "retry" in kinds
        assert report.profile is not None
        assert report.profile.spans, "profiling must still record spans"

    def test_recovery_story_reaches_the_chrome_trace(self, tmp_path):
        policy = FaultPolicy(
            seed=5,
            put_drop_rate=0.2,
            crash=CrashFault(rank=1, after_comm_ops=4),
        )
        report = _PLAN.run(
            _WORKLOAD.left, _WORKLOAD.right,
            RunOptions(profile=True, faults=policy),
        )
        out = tmp_path / "trace.json"
        count = write_chrome_trace(
            str(out),
            profile=report.profile,
            traces=report.traces,
            extra_events=report.recovery_events,
        )
        assert count > 0
        payload = json.loads(out.read_text())
        names = {e.get("name") for e in payload["traceEvents"]}
        # Every fault/retry/recovery event of the report must reach the
        # exported trace under its kind:label name.
        report_names = {
            f"{e.kind}:{e.label}"
            for e in (*report.fault_events(), *report.recovery_events)
        }
        assert report_names, "the crash policy must have produced events"
        assert any(n.startswith("fault:") for n in report_names)
        assert any(n.startswith("recovery:") for n in report_names)
        assert report_names <= names, report_names - names
