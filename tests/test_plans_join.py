"""Integration tests for the Figure 3 distributed join plan."""

import numpy as np
import pytest

from repro.core.options import RunOptions
from repro.core.plans.join import build_distributed_join
from repro.errors import TypeCheckError
from repro.mpi.cluster import SimCluster
from repro.types import FLOAT64, INT64, RowVector, TupleType
from repro.workloads.join_data import make_join_relations

L = TupleType.of(key=INT64, lpay=INT64)
R = TupleType.of(key=INT64, rpay=INT64)


def relations(n, seed=0, right_key_range=None):
    rng = np.random.default_rng(seed)
    lk = rng.permutation(n).astype(np.int64)
    if right_key_range is None:
        rk = rng.permutation(n).astype(np.int64)
    else:
        rk = rng.integers(0, right_key_range, size=n).astype(np.int64)
    return RowVector(L, [lk, lk * 2]), RowVector(R, [rk, rk * 3])


def reference_join(left, right):
    out = []
    lmap = {}
    for k, v in left.iter_rows():
        lmap.setdefault(k, []).append(v)
    for k, v in right.iter_rows():
        for lv in lmap.get(k, []):
            out.append((k, lv, v))
    return sorted(out)


class TestCorrectness:
    @pytest.mark.parametrize("machines", [1, 2, 4])
    def test_dense_one_to_one(self, machines):
        left, right = relations(1 << 10)
        plan = build_distributed_join(SimCluster(machines), L, R, key_bits=12)
        out = plan.matches(plan.run(left, right))
        assert sorted(out.iter_rows()) == reference_join(left, right)

    def test_partial_overlap(self):
        left, right = relations(512, seed=3, right_key_range=1024)
        plan = build_distributed_join(SimCluster(4), L, R, key_bits=12)
        out = plan.matches(plan.run(left, right))
        assert sorted(out.iter_rows()) == reference_join(left, right)

    def test_duplicate_probe_keys(self):
        left, right = relations(256, seed=5, right_key_range=64)
        plan = build_distributed_join(SimCluster(2), L, R, key_bits=10)
        out = plan.matches(plan.run(left, right))
        assert sorted(out.iter_rows()) == reference_join(left, right)

    def test_without_compression(self):
        left, right = relations(512, seed=7)
        plan = build_distributed_join(
            SimCluster(4), L, R, key_bits=11, compression=False
        )
        out = plan.matches(plan.run(left, right))
        assert sorted(out.iter_rows()) == reference_join(left, right)

    def test_interpreted_mode(self):
        left, right = relations(256, seed=9)
        plan = build_distributed_join(SimCluster(2), L, R, key_bits=10)
        out = plan.matches(plan.run(left, right, RunOptions(mode="interpreted")))
        assert sorted(out.iter_rows()) == reference_join(left, right)

    @pytest.mark.parametrize("network_fanout,local_fanout", [(8, 4), (16, 32), (2, 2)])
    def test_fanout_combinations(self, network_fanout, local_fanout):
        left, right = relations(512, seed=11)
        plan = build_distributed_join(
            SimCluster(4), L, R, key_bits=11,
            network_fanout=network_fanout, local_fanout=local_fanout,
        )
        out = plan.matches(plan.run(left, right))
        assert len(out) == 512

    def test_plan_is_reusable(self):
        plan = build_distributed_join(SimCluster(2), L, R, key_bits=10)
        for seed in (1, 2):
            left, right = relations(128, seed=seed)
            out = plan.matches(plan.run(left, right))
            assert sorted(out.iter_rows()) == reference_join(left, right)


class TestJoinVariants:
    def test_semi_join(self):
        left, right = relations(256, seed=4, right_key_range=512)
        # key_bits must cover payloads too (rpay = key*3 < 1536 < 2**12).
        plan = build_distributed_join(
            SimCluster(2), L, R, key_bits=12, join_type="semi"
        )
        out = plan.matches(plan.run(left, right))
        left_keys = set(left.column("key").tolist())
        expected = sorted(
            (k, v) for k, v in right.iter_rows() if k in left_keys
        )
        assert sorted(out.iter_rows()) == expected

    def test_anti_join(self):
        left, right = relations(256, seed=4, right_key_range=512)
        plan = build_distributed_join(
            SimCluster(2), L, R, key_bits=12, join_type="anti"
        )
        out = plan.matches(plan.run(left, right))
        left_keys = set(left.column("key").tolist())
        expected = sorted(
            (k, v) for k, v in right.iter_rows() if k not in left_keys
        )
        assert sorted(out.iter_rows()) == expected


class TestValidation:
    def test_key_field_required(self):
        bad = TupleType.of(id=INT64, lpay=INT64)
        with pytest.raises(TypeCheckError, match="lacks key field"):
            build_distributed_join(SimCluster(2), bad, R)

    def test_two_columns_required(self):
        wide = TupleType.of(key=INT64, a=INT64, b=INT64)
        with pytest.raises(TypeCheckError, match="16-byte workload"):
            build_distributed_join(SimCluster(2), wide, R)

    def test_int_columns_required(self):
        floaty = TupleType.of(key=INT64, lpay=FLOAT64)
        with pytest.raises(TypeCheckError, match="16-byte workload"):
            build_distributed_join(SimCluster(2), floaty, R)

    def test_distinct_payload_names_required(self):
        same = TupleType.of(key=INT64, pay=INT64)
        with pytest.raises(TypeCheckError, match="distinct names"):
            build_distributed_join(SimCluster(2), same, same)

    def test_power_of_two_fanout_required(self):
        with pytest.raises(TypeCheckError, match="power of two"):
            build_distributed_join(SimCluster(2), L, R, network_fanout=6)

    @pytest.mark.parametrize("bad", [0, -2])
    def test_nonpositive_network_fanout_refused(self, bad):
        # 0 used to be read as "not given" and silently built the default.
        with pytest.raises(TypeCheckError, match="power of two"):
            build_distributed_join(SimCluster(4), L, R, network_fanout=bad)


class TestTiming:
    def test_workload_generator_end_to_end(self):
        workload = make_join_relations(1 << 12, seed=13)
        plan = build_distributed_join(
            SimCluster(4),
            workload.left.element_type,
            workload.right.element_type,
            key_bits=workload.key_bits,
            local_fanout=16,  # the Fig. 3 phases, local partitioning included
        )
        result = plan.run(workload.left, workload.right)
        assert len(plan.matches(result)) == workload.expected_matches
        breakdown = result.phase_breakdown()
        for phase in (
            "local_histogram",
            "global_histogram",
            "network_partition",
            "local_partition",
            "build_probe",
        ):
            assert breakdown.get(phase, 0.0) > 0.0, phase

    def test_more_machines_reduce_makespan(self):
        workload = make_join_relations(1 << 14, seed=17)

        def makespan(machines):
            plan = build_distributed_join(
                SimCluster(machines),
                workload.left.element_type,
                workload.right.element_type,
                key_bits=workload.key_bits,
            )
            result = plan.run(workload.left, workload.right)
            return result.cluster_results[0].makespan

        assert makespan(8) < makespan(2)
