"""Degenerate-size robustness: empty inputs, single rows, more ranks than
rows, and fan-outs exceeding data — pinned cells of the differential oracle
(``tests/test_oracle.py``), plus the monolithic baseline's parity."""

import numpy as np
import pytest

from repro.core.plans import build_distributed_join
from repro.mpi.cluster import SimCluster
from repro.types import INT64, RowVector, TupleType
from tests.test_oracle import Cell, bulk_case, check

L = TupleType.of(key=INT64, lpay=INT64)
R = TupleType.of(key=INT64, rpay=INT64)
KV = TupleType.of(key=INT64, value=INT64)


def rel(schema, rows):
    return RowVector.from_rows(schema, rows)


class TestEmptyInputs:
    def test_join_of_empty_relations(self):
        check(bulk_case("join", rel(L, []), rel(R, []), key_bits=8), Cell(ranks=4))

    def test_join_one_side_empty(self):
        for left, right in (([(1, 2)], []), ([], [(1, 2)])):
            case = bulk_case("join", rel(L, left), rel(R, right), key_bits=8)
            check(case, Cell(ranks=2))

    def test_groupby_of_empty_table(self):
        check(bulk_case("groupby", rel(KV, []), key_bits=8), Cell(ranks=4))

    def test_broadcast_join_empty_small_side(self):
        check(bulk_case("broadcast_join", rel(L, []), rel(R, [(1, 3)])), Cell(ranks=2))

    def test_cascade_with_empty_middle_relation(self):
        types = [TupleType.of(key=INT64, **{f"p{i}": INT64}) for i in range(3)]
        relations = [rel(t, rows) for t, rows in zip(types, ([(1, 1)], [], [(1, 1)]))]
        case = bulk_case("join_sequence", *relations, variant="optimized")
        check(case, Cell(ranks=2))


class TestTinyInputs:
    def test_single_row_join(self):
        case = bulk_case("join", rel(L, [(3, 30)]), rel(R, [(3, 33)]), key_bits=6)
        check(case, Cell(ranks=4))

    def test_more_ranks_than_rows(self):
        left, right = rel(L, [(0, 1), (1, 2)]), rel(R, [(1, 9), (0, 8), (5, 7)])
        check(bulk_case("join", left, right, key_bits=4), Cell(ranks=8))

    def test_groupby_single_row(self):
        check(bulk_case("groupby", rel(KV, [(2, 5)]), key_bits=4), Cell(ranks=4))

    def test_fanout_exceeding_rows(self):
        # 64 network partitions, 3 rows: most partitions are empty.
        left, right = rel(L, [(10, 1), (20, 2), (30, 3)]), rel(R, [(20, 9)])
        case = bulk_case(
            "join", left, right, key_bits=8, network_fanout=64, local_fanout=64
        )
        check(case, Cell(ranks=2, mode="interpreted"))


class TestMonolithicParity:
    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_monolithic_agrees_on_tiny_inputs(self, rows):
        from repro.baselines import run_monolithic_join

        rng = np.random.default_rng(rows)
        keys = rng.permutation(max(rows, 1))[:rows].astype(np.int64)
        left = RowVector(L, [keys, keys + 1])
        right = RowVector(R, [keys, keys + 2])
        mono = run_monolithic_join(SimCluster(4), left, right, key_bits=4)
        plan = build_distributed_join(SimCluster(4), L, R, key_bits=4)
        modular = plan.matches(plan.run(left, right))
        assert sorted(mono.matches.iter_rows()) == sorted(modular.iter_rows())


class TestSingleRankCluster:
    def test_everything_runs_on_one_rank(self):
        left = rel(L, [(i, i) for i in range(32)])
        right = rel(R, [(i, i * 2) for i in range(32)])
        check(bulk_case("join", left, right, key_bits=6), Cell())
        table = rel(KV, [(i % 4, 1) for i in range(32)])
        check(bulk_case("groupby", table, key_bits=6), Cell())
