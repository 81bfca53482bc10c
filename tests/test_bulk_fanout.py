"""The bulk builders' sized local level and the rank threads' one arena.

``build_distributed_join`` and ``build_distributed_groupby`` size their
local partitioning level with the planner's cache-fit rule: the ``2**key_bits``
key domain over the network fan-out bounds a network partition, and at
fan-out 1 no level is planned.  Results never depend on the choice.
"""

import numpy as np
import pytest

from repro.core.operators import LocalPartitioning
from repro.core.plan import walk
from repro.core.plans import build_distributed_groupby, build_distributed_join
from repro.mpi import cluster as cluster_module
from repro.mpi.cluster import SimCluster
from repro.types import INT64, RowVector, TupleType
from repro.workloads import make_groupby_table, make_join_relations

L = TupleType.of(key=INT64, lpay=INT64)
R = TupleType.of(key=INT64, rpay=INT64)
KV = TupleType.of(key=INT64, value=INT64)


def local_fanouts(plan) -> set[int]:
    return {
        op.partition_fn.n_partitions
        for op in walk(plan.root, into_nested=True)
        if isinstance(op, LocalPartitioning)
    }


def rows(vector) -> list[tuple]:
    return sorted(vector.iter_rows())


class TestSizedLevel:
    def test_the_benchmark_sizes_plan_no_local_level(self):
        join = make_join_relations(1 << 18)
        group = make_groupby_table(1 << 18, duplicates_per_key=16)
        plans = [
            build_distributed_join(SimCluster(4), L, R, key_bits=join.key_bits),
            build_distributed_groupby(SimCluster(4), KV, key_bits=group.key_bits),
        ]
        assert [local_fanouts(p) for p in plans] == [set(), set()]

    def test_the_default_domain_keeps_the_papers_sixteen(self):
        plans = [
            build_distributed_join(SimCluster(4), L, R, key_bits=27),
            build_distributed_groupby(SimCluster(4), KV, key_bits=27),
        ]
        assert [local_fanouts(p) for p in plans] == [{16}, {16}]


def join_relations(n=512, seed=3):
    """Unique build keys; probe keys over twice the range, so some miss."""
    rng = np.random.default_rng(seed)
    lk = rng.permutation(n).astype(np.int64)
    rk = rng.integers(0, 2 * n, size=n).astype(np.int64)
    return RowVector(L, [lk, lk * 2]), RowVector(R, [rk, rk * 3])


class TestSizedEqualsPinned:
    @pytest.mark.parametrize("compression", [True, False])
    @pytest.mark.parametrize("join_type", ["inner", "semi", "anti", "left_outer"])
    def test_join(self, join_type, compression):
        left, right = join_relations()
        out, levels = {}, {}
        for local_fanout in (None, 16):
            plan = build_distributed_join(
                SimCluster(4), L, R, key_bits=12, compression=compression,
                join_type=join_type, local_fanout=local_fanout,
            )
            levels[local_fanout] = local_fanouts(plan)
            out[local_fanout] = rows(plan.matches(plan.run(left, right)))
        assert levels == {None: set(), 16: {16}}
        assert out[None] == out[16] and out[None]

    @pytest.mark.parametrize("offload", [None, "host", "nic"])
    def test_groupby(self, offload):
        table = make_groupby_table(1 << 10, duplicates_per_key=4, seed=5)
        out, levels = {}, {}
        for local_fanout in (None, 16):
            plan = build_distributed_groupby(
                SimCluster(4), KV, key_bits=table.key_bits + 4,
                offload=offload, local_fanout=local_fanout,
            )
            levels[local_fanout] = local_fanouts(plan)
            out[local_fanout] = rows(plan.groups(plan.run(table.table)))
        assert levels == {None: set(), 16: {16}}
        assert out[None] == out[16] and len(out[None]) == table.n_groups


class TestOneMallocArena:
    def test_a_libc_without_mallopt_is_left_alone(self, monkeypatch):
        monkeypatch.setattr(cluster_module.ctypes, "CDLL", lambda name: object())
        cluster_module.share_one_malloc_arena()

    def test_mallopt_caps_the_arenas_at_one(self, monkeypatch):
        calls = []

        class Libc:
            @staticmethod
            def mallopt(param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(cluster_module.ctypes, "CDLL", lambda name: Libc())
        cluster_module.share_one_malloc_arena()
        assert calls == [(-8, 1)]  # M_ARENA_MAX, 1
