"""Runtime-rewritten plans are re-verified before the recovery tier runs them.

Two machine-made rewrites exist: the degraded ``with_ranks(n-1)`` re-shard
after a permanent rank crash (``repro.faults.stage_recovery``) and the
broadcast→exchange fallback the planner takes under memory pressure
(``lower_to_modularis``).  Both must pass the same static verification a
user-built plan would — a rewrite bug must surface as a
``PlanVerificationError`` naming the rule, not as a substrate error (or a
silent wrong answer) on the survivors.
"""

import pytest

from repro.core.options import RunOptions
from repro.core.executor import execute
from repro.core.functions import CallablePartition
from repro.core.operators import LocalHistogram
from repro.core.plan import walk
from repro.core.plans import build_distributed_join
from repro.errors import PlanVerificationError
from repro.faults import CrashFault, FaultPolicy
from repro.mpi.cluster import SimCluster
from repro.workloads import make_join_relations

CRASH_POLICY = FaultPolicy(crash=CrashFault(rank=1, after_comm_ops=3, permanent=True))


def _join_plan(n=512):
    workload = make_join_relations(n)
    plan = build_distributed_join(
        SimCluster(4),
        workload.left.element_type,
        workload.right.element_type,
        key_bits=workload.key_bits,
    )
    return plan, workload


def _plant_verifier_visible_defect(plan):
    """Swap a ladder histogram's partition function for a semantically
    identical but structurally alien CallablePartition.

    Runtime behavior is unchanged (same buckets for every row), and with
    ``verify_plans=False`` the initial execution never looks — only the
    degraded-plan re-verification can catch it.
    """
    hist = next(
        op for op in walk(plan.executor.inner) if isinstance(op, LocalHistogram)
    )
    fn = hist.bucket_fn
    pos = hist.upstreams[0].output_type.position(fn.key_field)
    shift, mask = fn.shift, fn.mask
    hist.bucket_fn = CallablePartition(
        lambda row: (row[pos] >> shift) & mask, fn.n_partitions
    )


class TestDegradedReshardReverification:
    def test_defective_rewrite_is_rejected_before_reexecution(self):
        plan, workload = _join_plan()
        _plant_verifier_visible_defect(plan)
        with pytest.raises(PlanVerificationError) as exc:
            execute(
                plan.root,
                params={plan.slot: (workload.left, workload.right)},
                options=RunOptions(faults=CRASH_POLICY, verify_plans=False),
            )
        msg = str(exc.value)
        assert "MOD012" in msg
        assert "degraded to 3 ranks" in msg

    def test_clean_rewrite_passes_and_degrades(self):
        plan, workload = _join_plan()
        report = execute(
            plan.root,
            params={plan.slot: (workload.left, workload.right)},
            options=RunOptions(faults=CRASH_POLICY, verify_plans=False),
        )
        assert report.fault_summary().get("recovery:degrade_cluster") == 1


class TestDegradedLoweringVerification:
    @pytest.fixture(scope="class")
    def catalog(self):
        from repro.tpch import load_catalog

        return load_catalog(scale_factor=0.005)

    def test_defective_fallback_is_rejected_at_lowering(self, catalog, monkeypatch):
        from repro.core.operators import MpiHistogram
        from repro.core.plans import fragments
        from repro.relational import lower_to_modularis
        from repro.tpch import ALL_QUERIES

        class ShrunkenGlobalHistogram(MpiHistogram):
            """A rewrite bug: reduces one bucket whatever the fan-out."""

            def __init__(self, upstream, n_buckets):
                super().__init__(upstream, 1)

        monkeypatch.setattr(fragments, "MpiHistogram", ShrunkenGlobalHistogram)
        with pytest.raises(PlanVerificationError) as exc:
            lower_to_modularis(
                ALL_QUERIES[14]().plan, catalog, SimCluster(4),
                join_strategy="broadcast",
                options=RunOptions(faults=FaultPolicy(memory_pressure=True)),
            )
        msg = str(exc.value)
        assert "MOD012" in msg
        assert "degraded from broadcast" in msg

    def test_clean_fallback_passes_verification(self, catalog):
        from repro.relational import lower_to_modularis
        from repro.tpch import ALL_QUERIES

        lowered = lower_to_modularis(
            ALL_QUERIES[14]().plan, catalog, SimCluster(4),
            join_strategy="broadcast",
            options=RunOptions(faults=FaultPolicy(memory_pressure=True)),
        )
        assert lowered.degraded_from == "broadcast"
        assert lowered.strategy == "exchange"
