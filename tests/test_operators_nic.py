"""Tests for the NicPartialAggregate smart-NIC offload sub-operator."""

import collections

import pytest

from repro.core.context import ExecutionContext
from repro.core.options import RunOptions
from repro.core.functions import field_sum
from repro.core.operators import NicPartialAggregate, ReduceByKey, RowScan
from repro.core.plans.groupby import build_distributed_groupby
from repro.errors import TypeCheckError
from repro.mpi.cluster import SimCluster
from repro.workloads import make_groupby_table

from tests.conftest import make_kv_table, table_source


def scan_of(table, ctx):
    return RowScan(table_source(table, ctx), field="t")


class TestSemantics:
    def test_same_results_as_reduce_by_key(self):
        table = make_kv_table(256, seed=1, key_range=32)
        outs = []
        for op_cls in (ReduceByKey, NicPartialAggregate):
            ctx = ExecutionContext()
            op = op_cls(scan_of(table, ctx), "key", field_sum("value"))
            outs.append(sorted(op.stream(ctx)))
        assert outs[0] == outs[1]

    def test_modes_agree(self):
        table = make_kv_table(128, seed=2, key_range=8)
        outs = []
        for mode in ("fused", "interpreted"):
            ctx = ExecutionContext(options=RunOptions(mode=mode))
            op = NicPartialAggregate(scan_of(table, ctx), "key", field_sum("value"))
            outs.append(sorted(op.stream(ctx)))
        assert outs[0] == outs[1]

    def test_empty_input(self, ctx):
        op = NicPartialAggregate(scan_of(make_kv_table(0), ctx), "key", field_sum("value"))
        assert list(op.stream(ctx)) == []

    def test_reference_sums(self, ctx):
        table = make_kv_table(100, seed=3, key_range=10)
        op = NicPartialAggregate(scan_of(table, ctx), "key", field_sum("value"))
        expected = collections.Counter()
        for k, v in table.iter_rows():
            expected[k] += v
        assert dict(op.stream(ctx)) == dict(expected)


class TestCostModel:
    def test_nic_cheaper_than_host_aggregation(self):
        table = make_kv_table(1 << 14, seed=4, key_range=64)
        costs = {}
        for op_cls in (ReduceByKey, NicPartialAggregate):
            ctx = ExecutionContext()
            op = op_cls(scan_of(table, ctx), "key", field_sum("value"))
            list(op.stream(ctx))
            costs[op_cls.__name__] = ctx.clock.now
        assert costs["NicPartialAggregate"] < costs["ReduceByKey"]

    def test_charges_network_partition_phase(self, ctx):
        table = make_kv_table(1 << 10, key_range=16)
        op = NicPartialAggregate(scan_of(table, ctx), "key", field_sum("value"))
        list(op.stream(ctx))
        assert ctx.clock.timings.get("network_partition") > 0


class TestPlanIntegration:
    @pytest.mark.parametrize("offload", [None, "host", "nic"])
    def test_groupby_plan_with_offload(self, offload):
        workload = make_groupby_table(1 << 10, duplicates_per_key=8)
        plan = build_distributed_groupby(
            SimCluster(4),
            workload.table.element_type,
            key_bits=workload.key_bits + 4,
            offload=offload,
        )
        groups = plan.groups(plan.run(workload.table))
        got = dict(zip(groups.column("key").tolist(), groups.column("value").tolist()))
        assert got == workload.expected_sums()

    def test_unknown_offload_rejected(self):
        workload = make_groupby_table(16)
        with pytest.raises(TypeCheckError, match="unknown offload"):
            build_distributed_groupby(
                SimCluster(2), workload.table.element_type, offload="fpga"
            )

    def test_nic_reduces_wire_volume(self):
        workload = make_groupby_table(1 << 14, duplicates_per_key=64)
        makespans = {}
        for offload in (None, "nic"):
            plan = build_distributed_groupby(
                SimCluster(4),
                workload.table.element_type,
                key_bits=workload.key_bits + 7,
                offload=offload,
            )
            result = plan.run(workload.table)
            makespans[offload] = result.cluster_results[0].makespan
        assert makespans["nic"] < makespans[None]
