"""The plan library in both execution modes and under every join kernel.

Pinned cells of the differential oracle (``tests/test_oracle.py``): each
mode — and, in fused mode, each kernel pair — is held to the reference
interpreter, not to the other mode, and the kernels must agree on rows and
simulated time bit for bit.
"""

from __future__ import annotations

import pytest

from repro.core.operators.build_probe import JOIN_TYPES
from repro.core.options import MODES
from repro.types import INT64, RowVector, TupleType
from repro.workloads.join_data import make_cascade_relations
from tests.test_oracle import Cell, bulk_case, check, tpch_case

L = TupleType.of(key=INT64, lpay=INT64)
R = TupleType.of(key=INT64, rpay=INT64)
KV = TupleType.of(key=INT64, value=INT64)


class TestJoinPlans:
    @pytest.mark.parametrize("join_type", JOIN_TYPES)
    def test_distributed_join_modes_bit_identical(self, join_type):
        # Payloads stay inside the radix-compression dense domain.
        left = RowVector.from_rows(L, [(k % 37, k) for k in range(300)])
        right = RowVector.from_rows(R, [(k % 53, (k * 7) % 1024) for k in range(400)])
        case = bulk_case("join", left, right, join_type=join_type, key_bits=10)
        for mode in MODES:
            check(case, Cell(ranks=4, mode=mode))

    @pytest.mark.parametrize("variant", ["naive", "optimized"])
    def test_join_sequence_modes_bit_identical(self, variant):
        relations, _ = make_cascade_relations(3, 128, match_multiplier=2)
        case = bulk_case("join_sequence", *relations, variant=variant)
        for mode in MODES:
            check(case, Cell(ranks=2, mode=mode))


class TestGroupByPlan:
    def test_distributed_groupby_modes_agree(self):
        table = RowVector.from_rows(KV, [(k % 61, k) for k in range(500)])
        for mode in MODES:
            check(bulk_case("groupby", table, key_bits=10), Cell(ranks=4, mode=mode))


class TestTpchQueries:
    @pytest.mark.parametrize("qnum", [4, 12, 14, 19])
    def test_query_modes_agree(self, qnum):
        # The partitioned shape: at this scale the sized one plans no level.
        for mode in MODES:
            check(tpch_case(qnum), Cell(ranks=2, mode=mode, local_fanout=4))

    @pytest.mark.parametrize("qnum", [4, 12, 14, 19])
    def test_query_join_kernels_agree(self, qnum):
        check(tpch_case(qnum), Cell(ranks=2, join_kernel="radix"))
        check(tpch_case(qnum), Cell(ranks=2, join_kernel="sorted", local_fanout=4))
