"""Unit tests for LocalSort and MergeJoin."""

import numpy as np
import pytest

from repro.core.context import ExecutionContext
from repro.core.options import RunOptions
from repro.core.operators import LocalSort, MergeJoin, RowScan
from repro.core.plans.join import build_distributed_join
from repro.errors import ExecutionError, TypeCheckError
from repro.mpi.cluster import SimCluster
from repro.types import INT64, RowVector, TupleType
from repro.workloads import make_join_relations

from tests.conftest import make_kv_table, table_source

KV = TupleType.of(key=INT64, value=INT64)
L = TupleType.of(key=INT64, lv=INT64)
R = TupleType.of(key=INT64, rv=INT64)


def scan_of(table, ctx):
    return RowScan(table_source(table, ctx), field="t")


class TestLocalSort:
    def test_sorts_ascending(self, ctx):
        table = make_kv_table(64, seed=1)
        rows = list(LocalSort(scan_of(table, ctx), "key").stream(ctx))
        assert rows == sorted(table.iter_rows())

    def test_multi_key_sort(self, ctx):
        t = RowVector.from_rows(KV, [(2, 9), (1, 5), (2, 1), (1, 7)])
        rows = list(LocalSort(scan_of(t, ctx), ["key", "value"]).stream(ctx))
        assert rows == [(1, 5), (1, 7), (2, 1), (2, 9)]

    def test_stability_irrelevant_but_type_preserved(self, ctx):
        op = LocalSort(scan_of(make_kv_table(4), ctx), "value")
        assert op.output_type == KV

    def test_empty_input(self, ctx):
        assert list(LocalSort(scan_of(make_kv_table(0), ctx), "key").stream(ctx)) == []

    def test_modes_agree(self):
        table = make_kv_table(128, seed=5, key_range=16)
        outs = []
        for mode in ("fused", "interpreted"):
            ctx = ExecutionContext(options=RunOptions(mode=mode))
            outs.append(
                [r[0] for r in LocalSort(scan_of(table, ctx), "key").stream(ctx)]
            )
        assert outs[0] == outs[1]

    def test_unknown_key_rejected(self, ctx):
        with pytest.raises(TypeCheckError):
            LocalSort(scan_of(make_kv_table(2), ctx), "ghost")

    def test_charges_nlogn(self, ctx):
        before = ctx.clock.now
        list(LocalSort(scan_of(make_kv_table(1 << 10), ctx), "key").stream(ctx))
        assert ctx.clock.now > before


class TestMergeJoin:
    def _sorted_sides(self, ctx, left_rows, right_rows):
        left = LocalSort(
            scan_of(RowVector.from_rows(L, left_rows), ctx), "key"
        )
        right = LocalSort(
            scan_of(RowVector.from_rows(R, right_rows), ctx), "key"
        )
        return left, right

    def test_matches_hash_join_semantics(self, ctx):
        left_rows = [(2, 20), (1, 10), (2, 21)]
        right_rows = [(2, 200), (3, 300)]
        left, right = self._sorted_sides(ctx, left_rows, right_rows)
        rows = sorted(MergeJoin(left, right, key="key").stream(ctx))
        assert rows == [(2, 20, 200), (2, 21, 200)]

    def test_semi_and_anti(self, ctx):
        left_rows = [(1, 0), (2, 0)]
        right_rows = [(2, 200), (3, 300)]
        left, right = self._sorted_sides(ctx, left_rows, right_rows)
        assert list(MergeJoin(left, right, key="key", join_type="semi").stream(ctx)) == [
            (2, 200)
        ]
        left, right = self._sorted_sides(ctx, left_rows, right_rows)
        assert list(MergeJoin(left, right, key="key", join_type="anti").stream(ctx)) == [
            (3, 300)
        ]

    def test_unsorted_input_detected(self, ctx):
        left = scan_of(RowVector.from_rows(L, [(5, 0), (1, 0)]), ctx)
        right = scan_of(RowVector.from_rows(R, [(1, 0)]), ctx)
        with pytest.raises(ExecutionError, match="not sorted"):
            list(MergeJoin(left, right, key="key").stream(ctx))

    def test_empty_sides(self, ctx):
        left, right = self._sorted_sides(ctx, [], [(1, 1)])
        assert list(MergeJoin(left, right, key="key").stream(ctx)) == []

    def test_random_inputs_match_nested_loop(self, ctx):
        rng = np.random.default_rng(7)
        left_rows = [(int(k), int(k) * 2) for k in rng.integers(0, 40, 100)]
        right_rows = [(int(k), int(k) * 3) for k in rng.integers(0, 40, 100)]
        left, right = self._sorted_sides(ctx, left_rows, right_rows)
        got = sorted(MergeJoin(left, right, key="key").stream(ctx))
        expected = sorted(
            (rk, lv, rv)
            for rk, rv in right_rows
            for lk, lv in left_rows
            if lk == rk
        )
        assert got == expected

    def test_unsupported_join_type(self, ctx):
        left, right = self._sorted_sides(ctx, [], [])
        with pytest.raises(TypeCheckError, match="does not support"):
            MergeJoin(left, right, key="key", join_type="left_outer")


class TestSortMergeDistributedJoin:
    def test_same_result_as_hash(self):
        workload = make_join_relations(1 << 11, seed=9)
        results = {}
        for algorithm in ("hash", "sortmerge"):
            plan = build_distributed_join(
                SimCluster(4),
                workload.left.element_type,
                workload.right.element_type,
                key_bits=workload.key_bits,
                algorithm=algorithm,
            )
            out = plan.matches(plan.run(workload.left, workload.right))
            results[algorithm] = sorted(out.iter_rows())
        assert results["hash"] == results["sortmerge"]

    def test_unknown_algorithm_rejected(self):
        workload = make_join_relations(16)
        with pytest.raises(TypeCheckError, match="unknown join algorithm"):
            build_distributed_join(
                SimCluster(2),
                workload.left.element_type,
                workload.right.element_type,
                algorithm="quantum",
            )

    def test_sort_phase_charged_only_for_sortmerge(self):
        workload = make_join_relations(1 << 10, seed=2)
        for algorithm, expect_sort in (("hash", False), ("sortmerge", True)):
            plan = build_distributed_join(
                SimCluster(2),
                workload.left.element_type,
                workload.right.element_type,
                key_bits=workload.key_bits,
                algorithm=algorithm,
            )
            result = plan.run(workload.left, workload.right)
            sort_time = result.phase_breakdown().get("sort", 0.0)
            assert (sort_time > 0) is expect_sort
