"""Unit tests for the driver-side executor."""

import numpy as np
import pytest

from repro.core.options import RunOptions
from repro.core.executor import execute
from repro.core.plans import build_distributed_join
from repro.core.functions import field_sum
from repro.core.operators import (
    MaterializeRowVector,
    ParameterLookup,
    ParameterSlot,
    Reduce,
    RowScan,
)
from repro.errors import ExecutionError, TypeCheckError
from repro.mpi.cluster import SimCluster
from repro.types import INT64, RowVector, TupleType, row_vector_type

from tests.conftest import make_kv_table

KV = TupleType.of(key=INT64, value=INT64)


def simple_plan():
    slot = ParameterSlot(TupleType.of(t=row_vector_type(KV)))
    scan = RowScan(ParameterLookup(slot), field="t")
    total = Reduce(scan, field_sum("key", "value"))
    return MaterializeRowVector(total, field="result"), slot


class TestExecute:
    def test_returns_rows_and_type(self):
        root, slot = simple_plan()
        table = make_kv_table(16)
        result = execute(root, params={slot: (table,)})
        assert len(result) == 1
        assert result.output_type == root.output_type
        (row,) = result.rows
        assert row[0].row(0) == (
            int(table.column("key").sum()),
            int(table.column("value").sum()),
        )

    def test_seconds_accumulate(self):
        root, slot = simple_plan()
        result = execute(root, params={slot: (make_kv_table(1 << 12),)})
        assert result.simulated_time > 0

    def test_interpreted_mode_costs_more_sim_time(self):
        root, slot = simple_plan()
        table = make_kv_table(1 << 10)
        fused = execute(root, params={slot: (table,)}, options=RunOptions(mode="fused"))
        interp = execute(root, params={slot: (table,)}, options=RunOptions(mode="interpreted"))
        assert interp.simulated_time > fused.simulated_time

    def test_parameters_unbound_after_execution(self):
        root, slot = simple_plan()
        table = make_kv_table(4)
        execute(root, params={slot: (table,)})
        # A second execution must re-bind cleanly (no stale state).
        result = execute(root, params={slot: (table,)})
        assert len(result.rows) == 1

    def test_missing_parameter_fails(self):
        root, _slot = simple_plan()
        with pytest.raises(ExecutionError, match="outside its NestedMap"):
            execute(root)

    def test_no_cluster_results_for_local_plans(self):
        root, slot = simple_plan()
        result = execute(root, params={slot: (make_kv_table(4),)})
        assert result.cluster_results == []

    def test_phase_breakdown_empty_without_cluster(self):
        root, slot = simple_plan()
        result = execute(root, params={slot: (make_kv_table(4),)})
        assert result.phase_breakdown() == {}

    def test_input_of_another_schema_refused_before_any_rank_starts(self, monkeypatch):
        L = TupleType.of(key=INT64, lpay=INT64)
        R = TupleType.of(key=INT64, rpay=INT64)
        other = TupleType.of(key=INT64, other=INT64)
        plan = build_distributed_join(SimCluster(2), L, R, key_bits=8)

        def no_job(*args, **kwargs):
            raise AssertionError("a rank started")

        monkeypatch.setattr(SimCluster, "run", no_job)
        left = RowVector(other, [np.arange(8), np.arange(8)])
        right = RowVector(R, [np.arange(8), np.arange(8)])
        with pytest.raises(TypeCheckError, match="'left' holds <key: INT64, other: INT64>"):
            plan.run(left, right)


class TestEvidenceBelongsToTheExecution:
    """Run evidence lives in the execution's record, never on plan nodes."""

    def _join(self):
        from repro.core.plans import build_distributed_join
        from repro.mpi.cluster import SimCluster
        from repro.workloads import make_join_relations

        workload = make_join_relations(1 << 10)
        plan = build_distributed_join(
            SimCluster(2, trace=True),
            workload.left.element_type,
            workload.right.element_type,
            key_bits=workload.key_bits,
        )
        return plan, {plan.slot: (workload.left, workload.right)}

    @staticmethod
    def _finish(steps):
        while True:
            try:
                next(steps)
            except StopIteration as done:
                return done.value

    def test_interleaved_executions_of_one_plan_keep_their_own_evidence(self):
        from repro.core.executor import execution_steps
        from repro.faults import CrashFault, FaultPolicy

        plan, params = self._join()
        crashing = RunOptions(
            faults=FaultPolicy(seed=3, crash=CrashFault(1, after_comm_ops=4))
        )
        solo = self._finish(execution_steps(plan.root, params, crashing))
        assert solo.fault_summary()["recovery:stage_retry"] == 1

        first = execution_steps(plan.root, params, crashing)
        next(first)
        clean = self._finish(execution_steps(plan.root, params))
        crashed = self._finish(first)

        assert crashed.fault_summary() == solo.fault_summary()
        assert clean.fault_summary() == {}
        assert len(crashed.cluster_results) == len(clean.cluster_results) == 1
        assert crashed.cluster_results[0] is not clean.cluster_results[0]
        assert crashed.simulated_time == solo.simulated_time
        assert list(plan.matches(crashed).iter_rows()) == list(
            plan.matches(clean).iter_rows()
        )

    @pytest.mark.parametrize(
        "name", ["join", "groupby", "broadcast_join", "join_sequence", "q12"]
    )
    def test_plan_nodes_are_immutable_across_executions(self, name):
        from repro.core.plan import walk
        from repro.faults import CrashFault, FaultPolicy
        from repro.workloads.targets import resolve

        def snapshot(root):
            return {
                id(op): {
                    attr: list(value) if isinstance(value, list) else value
                    for attr, value in vars(op).items()
                }
                for op in walk(root, into_nested=True)
            }

        target = resolve(name, 2, log2_tuples=10, sf=0.002, trace=True)
        target.run(RunOptions())  # prepare() has annotated the plan by now
        plan = target.plan
        before = snapshot(plan.root)
        report = plan.run(
            *target.inputs,
            RunOptions(
                profile=True,
                metrics=True,
                faults=FaultPolicy(crash=CrashFault(1, after_comm_ops=4)),
            ),
        )
        assert report.fault_summary().get("recovery:stage_retry") == 1
        assert report.cluster_results and report.profile.spans
        assert snapshot(plan.root) == before
