"""Integration tests for the Figure 5 distributed GROUP BY plan."""

import numpy as np
import pytest

from repro.core.options import RunOptions
from repro.core.functions import ReduceFunction
from repro.core.plans.groupby import build_distributed_groupby
from repro.errors import TypeCheckError
from repro.mpi.cluster import SimCluster
from repro.types import FLOAT64, INT64, RowVector, TupleType
from repro.workloads.groupby_data import make_groupby_table

KV = TupleType.of(key=INT64, value=INT64)


def run_plan(table, machines=4, key_bits=12, **kwargs):
    plan = build_distributed_groupby(
        SimCluster(machines), table.element_type, key_bits=key_bits, **kwargs
    )
    result = plan.run(table)
    return plan.groups(result), result


class TestCorrectness:
    @pytest.mark.parametrize("machines", [1, 2, 4, 8])
    def test_sums_per_key_across_cluster_sizes(self, machines):
        workload = make_groupby_table(1 << 10, duplicates_per_key=4)
        groups, _ = run_plan(
            workload.table, machines=machines, key_bits=workload.key_bits
        )
        got = dict(zip(groups.column("key").tolist(), groups.column("value").tolist()))
        assert got == workload.expected_sums()

    def test_each_key_appears_once(self):
        workload = make_groupby_table(1 << 10, duplicates_per_key=8)
        groups, _ = run_plan(workload.table, key_bits=workload.key_bits)
        keys = groups.column("key")
        assert len(np.unique(keys)) == len(keys) == workload.n_groups

    def test_single_group(self):
        table = RowVector(KV, [np.zeros(64, dtype=np.int64),
                               np.arange(64, dtype=np.int64)])
        groups, _ = run_plan(table, key_bits=8)
        assert list(groups.iter_rows()) == [(0, int(np.arange(64).sum()))]

    def test_without_compression(self):
        workload = make_groupby_table(1 << 10, duplicates_per_key=2)
        groups, _ = run_plan(
            workload.table, key_bits=workload.key_bits, compression=False
        )
        got = dict(zip(groups.column("key").tolist(), groups.column("value").tolist()))
        assert got == workload.expected_sums()

    def test_interpreted_mode(self):
        workload = make_groupby_table(1 << 8, duplicates_per_key=2)
        plan = build_distributed_groupby(
            SimCluster(2), workload.table.element_type, key_bits=workload.key_bits
        )
        result = plan.run(workload.table, RunOptions(mode="interpreted"))
        groups = plan.groups(result)
        got = dict(zip(groups.column("key").tolist(), groups.column("value").tolist()))
        assert got == workload.expected_sums()

    def test_custom_reduce_function(self):
        workload = make_groupby_table(1 << 8, duplicates_per_key=4)
        fn = ReduceFunction(lambda a, b: (max(a[0], b[0]),))
        groups, _ = run_plan(workload.table, key_bits=workload.key_bits, reduce_fn=fn)
        got = dict(zip(groups.column("key").tolist(), groups.column("value").tolist()))
        keys = workload.table.column("key")
        values = workload.table.column("value")
        expected = {}
        for k, v in zip(keys.tolist(), values.tolist()):
            expected[k] = max(expected.get(k, -1), v)
        assert got == expected


class TestValidation:
    def test_key_field_required(self):
        bad = TupleType.of(id=INT64, value=INT64)
        with pytest.raises(TypeCheckError, match="lacks group key"):
            build_distributed_groupby(SimCluster(2), bad)

    def test_two_int_columns_required(self):
        wide = TupleType.of(key=INT64, a=INT64, b=INT64)
        with pytest.raises(TypeCheckError, match="16-byte workload"):
            build_distributed_groupby(SimCluster(2), wide)
        floaty = TupleType.of(key=INT64, value=FLOAT64)
        with pytest.raises(TypeCheckError, match="16-byte workload"):
            build_distributed_groupby(SimCluster(2), floaty)

    def test_zero_network_fanout_refused(self):
        kv = TupleType.of(key=INT64, value=INT64)
        with pytest.raises(TypeCheckError, match="power of two"):
            build_distributed_groupby(SimCluster(4), kv, network_fanout=0)


class TestTiming:
    def test_flat_in_cardinality(self):
        # The Figure 7 right-plot shape at unit-test scale.
        times = []
        for duplicates in (1, 4, 16):
            workload = make_groupby_table(1 << 14, duplicates_per_key=duplicates)
            _, result = run_plan(
                workload.table, machines=4, key_bits=workload.key_bits
            )
            times.append(result.cluster_results[0].makespan)
        assert max(times) <= min(times) * 1.5

    def test_aggregation_phase_charged(self):
        workload = make_groupby_table(1 << 10, duplicates_per_key=2)
        _, result = run_plan(workload.table, key_bits=workload.key_bits)
        assert result.phase_breakdown().get("aggregation", 0.0) > 0.0
