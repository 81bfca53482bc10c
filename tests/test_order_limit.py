"""Tests for ORDER BY / LIMIT: the Limit operator, logical nodes, and the
driver-side lowering."""

import numpy as np
import pytest

from repro.core.operators import Limit, LocalSort, RowScan
from repro.errors import PlanError, TypeCheckError
from repro.mpi.cluster import SimCluster
from repro.relational import lower_to_modularis, run_logical_plan
from repro.relational.builder import scan
from repro.relational.expressions import col
from repro.relational.optimizer import optimize
from repro.storage import Catalog, Table

from tests.conftest import make_kv_table, table_source


class TestLimitOperator:
    def test_truncates(self, ctx):
        table = make_kv_table(20)
        limited = Limit(RowScan(table_source(table, ctx), field="t"), 5)
        assert list(limited.stream(ctx)) == list(table.iter_rows())[:5]

    def test_limit_larger_than_input(self, ctx):
        table = make_kv_table(3)
        limited = Limit(RowScan(table_source(table, ctx), field="t"), 100)
        assert len(list(limited.stream(ctx))) == 3

    def test_limit_zero(self, ctx):
        table = make_kv_table(3)
        limited = Limit(RowScan(table_source(table, ctx), field="t"), 0)
        assert list(limited.stream(ctx)) == []

    def test_negative_rejected(self, ctx):
        table = make_kv_table(1)
        with pytest.raises(TypeCheckError):
            Limit(RowScan(table_source(table, ctx), field="t"), -1)

    def test_modes_agree(self):
        from repro.core.context import ExecutionContext
        from repro.core.options import RunOptions

        table = make_kv_table(64, seed=2)
        outs = []
        for mode in ("fused", "interpreted"):
            ctx = ExecutionContext(options=RunOptions(mode=mode))
            limited = Limit(RowScan(table_source(table, ctx), field="t"), 10)
            outs.append(list(limited.stream(ctx)))
        assert outs[0] == outs[1]


class TestDescendingSort:
    def test_descending_reverses(self, ctx):
        table = make_kv_table(16, seed=1)
        asc = list(
            LocalSort(RowScan(table_source(table, ctx), field="t"), "key").stream(ctx)
        )
        desc = list(
            LocalSort(
                RowScan(table_source(table, ctx), field="t"), "key", descending=True
            ).stream(ctx)
        )
        assert desc == asc[::-1]


@pytest.fixture
def catalog():
    cat = Catalog()
    rng = np.random.default_rng(4)
    cat.register(
        Table.from_arrays(
            "d",
            k=np.arange(40, dtype=np.int64),
            g=np.arange(40, dtype=np.int64) % 7,
        )
    )
    cat.register(
        Table.from_arrays(
            "f",
            k=rng.integers(0, 40, 600).astype(np.int64),
            v=rng.integers(0, 50, 600).astype(np.int64),
        )
    )
    return cat


def grouped_query():
    return (
        scan("d")
        .join(scan("f"), on="k")
        .aggregate(group_by=["g"], aggs=[("sum", col("v"), "total")])
    )


class TestLogicalAndInterpreter:
    def test_order_by_sorts(self, catalog):
        frame = run_logical_plan(grouped_query().order_by("total").plan, catalog)
        totals = frame.columns["total"].tolist()
        assert totals == sorted(totals)

    def test_order_by_descending(self, catalog):
        frame = run_logical_plan(
            grouped_query().order_by("total", descending=True).plan, catalog
        )
        totals = frame.columns["total"].tolist()
        assert totals == sorted(totals, reverse=True)

    def test_limit(self, catalog):
        frame = run_logical_plan(grouped_query().limit(2).plan, catalog)
        assert frame.n_rows == 2

    def test_top_k(self, catalog):
        q = grouped_query().order_by("total", descending=True).limit(3)
        frame = run_logical_plan(q.plan, catalog)
        all_totals = run_logical_plan(grouped_query().plan, catalog).columns["total"]
        assert frame.columns["total"].tolist() == sorted(all_totals, reverse=True)[:3]

    def test_empty_order_by_rejected(self, catalog):
        with pytest.raises(PlanError):
            grouped_query().order_by()

    def test_negative_limit_rejected(self, catalog):
        with pytest.raises(PlanError):
            grouped_query().limit(-1)

    def test_optimizer_passes_through(self, catalog):
        q = grouped_query().order_by("total", descending=True).limit(3)
        before = run_logical_plan(q.plan, catalog)
        after = run_logical_plan(optimize(q.plan, catalog), catalog)
        assert before.columns["total"].tolist() == after.columns["total"].tolist()


class TestDistributedLowering:
    def test_top_k_matches_reference(self, catalog):
        q = grouped_query().order_by("total", descending=True).limit(3)
        reference = run_logical_plan(q.plan, catalog)
        lowered = lower_to_modularis(q.plan, catalog, SimCluster(4))
        frame = lowered.result_frame(lowered.run(catalog))
        assert frame.columns["total"].tolist() == reference.columns["total"].tolist()

    def test_order_only(self, catalog):
        q = grouped_query().order_by("g")
        reference = run_logical_plan(q.plan, catalog)
        lowered = lower_to_modularis(q.plan, catalog, SimCluster(2))
        frame = lowered.result_frame(lowered.run(catalog))
        assert frame.columns["g"].tolist() == reference.columns["g"].tolist()
        assert frame.columns["total"].tolist() == reference.columns["total"].tolist()

    def test_q4_order_by_applies(self):
        from repro.tpch import load_catalog, q4

        catalog = load_catalog(scale_factor=0.005)
        lowered = lower_to_modularis(q4().plan, catalog, SimCluster(2))
        frame = lowered.result_frame(lowered.run(catalog))
        priorities = frame.columns["o_orderpriority"].tolist()
        assert priorities == sorted(priorities)
