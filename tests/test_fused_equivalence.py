"""Fused vs interpreted equivalence over the whole plan library.

The fused path now runs genuinely vectorized kernels (hash join, segment
sums) instead of re-playing the scalar operators batch-by-batch; these
tests pin the contract that the two execution modes stay observationally
identical on every shipped plan: the distributed join in all four probe
policies, the distributed group-by, both join-cascade variants, and the
four TPC-H queries.

Join plans are compared as *ordered* row lists: the vectorized probe is
engineered to reproduce the scalar hash table's emission order exactly.
Aggregations compare as multisets/frames — the scalar fold emits groups
in first-seen order while the sort-based kernel emits ascending keys.
"""

from __future__ import annotations

import collections

import pytest

from repro.core.options import RunOptions
from repro.core.operators.build_probe import JOIN_TYPES
from repro.core.plans.groupby import build_distributed_groupby
from repro.core.plans.join import build_distributed_join
from repro.core.plans.join_sequence import build_join_sequence
from repro.mpi.cluster import SimCluster
from repro.types import INT64, RowVector, TupleType
from repro.workloads.join_data import make_cascade_relations

L = TupleType.of(key=INT64, lpay=INT64)
R = TupleType.of(key=INT64, rpay=INT64)
KV = TupleType.of(key=INT64, value=INT64)


def kv_vector(schema, pairs):
    return RowVector.from_rows(schema, pairs)


class TestJoinPlans:
    @pytest.mark.parametrize("join_type", JOIN_TYPES)
    def test_distributed_join_modes_bit_identical(self, join_type):
        # Payloads stay inside the radix-compression dense domain
        # ([0, 2**key_bits)) that the exchange's wire format checks.
        left = kv_vector(L, [(k % 37, k) for k in range(300)])
        right = kv_vector(R, [(k % 53, (k * 7) % 1024) for k in range(400)])
        outputs = []
        for mode in ("fused", "interpreted"):
            plan = build_distributed_join(
                SimCluster(4), L, R, key_bits=10, join_type=join_type
            )
            result = plan.run(left, right, RunOptions(mode=mode))
            outputs.append(list(plan.matches(result).iter_rows()))
        assert outputs[0] == outputs[1]
        assert outputs[0]  # non-degenerate: the join produced rows

    @pytest.mark.parametrize("variant", ["naive", "optimized"])
    def test_join_sequence_modes_bit_identical(self, variant):
        relations, expected = make_cascade_relations(3, 128, match_multiplier=2)
        outputs = []
        for mode in ("fused", "interpreted"):
            plan = build_join_sequence(
                SimCluster(2),
                [r.element_type for r in relations],
                variant=variant,
            )
            result = plan.run(relations, RunOptions(mode=mode))
            outputs.append(list(plan.matches(result).iter_rows()))
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == expected


class TestGroupByPlan:
    def test_distributed_groupby_modes_agree(self):
        pairs = [(k % 61, k) for k in range(500)]
        outputs = []
        for mode in ("fused", "interpreted"):
            plan = build_distributed_groupby(SimCluster(4), KV, key_bits=10)
            result = plan.run(kv_vector(KV, pairs), RunOptions(mode=mode))
            groups = plan.groups(result)
            outputs.append(sorted(groups.iter_rows()))
        assert outputs[0] == outputs[1]
        expected = collections.Counter()
        for k, v in pairs:
            expected[k] += v
        assert outputs[0] == sorted(expected.items())


class TestTpchQueries:
    @pytest.fixture(scope="class")
    def catalog(self):
        from repro.tpch import load_catalog

        return load_catalog(scale_factor=0.005, seed=42)

    @pytest.mark.parametrize("qnum", [4, 12, 14, 19])
    def test_query_modes_agree(self, qnum, catalog):
        from repro.bench.experiments.fig9 import frames_match
        from repro.relational import lower_to_modularis
        from repro.tpch import ALL_QUERIES

        query = ALL_QUERIES[qnum]()
        # Both plan shapes: sized (no local level at this scale) and with a
        # forced local partitioning level.
        for local_fanout in (None, 4):
            frames = []
            for mode in ("fused", "interpreted"):
                lowered = lower_to_modularis(
                    query.plan, catalog, SimCluster(2), local_fanout=local_fanout
                )
                frames.append(
                    lowered.result_frame(lowered.run(catalog, RunOptions(mode=mode)))
                )
            # Float aggregates may differ in the last ulp between the scalar
            # fold and the vectorized segment sum; integers must be exact.
            assert frames_match(frames[0], frames[1], tolerance=1e-9)

    @pytest.mark.parametrize("qnum", [4, 12, 14, 19])
    def test_query_join_kernels_agree(self, qnum, catalog):
        from repro.bench.experiments.fig9 import frames_match
        from repro.relational import lower_to_modularis
        from repro.tpch import ALL_QUERIES

        query = ALL_QUERIES[qnum]()
        for local_fanout in (None, 4):
            frames = []
            for join_kernel in ("sorted", "radix", "auto"):
                lowered = lower_to_modularis(
                    query.plan, catalog, SimCluster(2), local_fanout=local_fanout
                )
                frames.append(
                    lowered.result_frame(
                        lowered.run(
                            catalog, RunOptions(mode="fused", join_kernel=join_kernel)
                        )
                    )
                )
            # Both kernels share the emission-order contract, so whole query
            # results are bit-identical — no float tolerance needed.
            assert frames_match(frames[0], frames[1], tolerance=0.0)
            assert frames_match(frames[0], frames[2], tolerance=0.0)
