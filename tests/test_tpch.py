"""Tests for the TPC-H generator and queries 4/12/14/19."""

import numpy as np
import pytest

from repro.relational import run_logical_plan
from repro.tpch import generate, load_catalog, q4, q12, q14, q19
from repro.tpch.schema import (
    ORDER_PRIORITIES,
    SHIP_INSTRUCTIONS,
    SHIP_MODES,
)
from tests.test_oracle import Cell, check, tpch_case


@pytest.fixture(scope="module")
def catalog():
    return load_catalog(scale_factor=0.005, seed=42)


class TestDbgen:
    def test_cardinalities_scale(self):
        small = generate(scale_factor=0.005)
        big = generate(scale_factor=0.01)
        assert len(big.orders) == 2 * len(small.orders)
        assert len(big.part) == 2 * len(small.part)

    def test_deterministic(self):
        a = generate(scale_factor=0.005, seed=1)
        b = generate(scale_factor=0.005, seed=1)
        assert np.array_equal(
            a.lineitem.data.column("l_partkey"), b.lineitem.data.column("l_partkey")
        )

    def test_lineitem_foreign_keys_valid(self, catalog):
        lineitem = catalog.get("lineitem")
        orders = catalog.get("orders")
        part = catalog.get("part")
        assert lineitem.data.column("l_orderkey").max() < len(orders)
        assert lineitem.data.column("l_partkey").max() < len(part)

    def test_date_invariants(self, catalog):
        lineitem = catalog.get("lineitem").data
        assert (lineitem.column("l_receiptdate") > lineitem.column("l_shipdate")).all()

    def test_categorical_pools(self, catalog):
        lineitem = catalog.get("lineitem").data
        assert set(np.unique(lineitem.column("l_shipmode"))) <= set(SHIP_MODES)
        assert set(np.unique(lineitem.column("l_shipinstruct"))) <= set(
            SHIP_INSTRUCTIONS
        )
        orders = catalog.get("orders").data
        assert set(np.unique(orders.column("o_orderpriority"))) <= set(
            ORDER_PRIORITIES
        )

    def test_part_attributes_in_spec_ranges(self, catalog):
        part = catalog.get("part").data
        sizes = part.column("p_size")
        assert sizes.min() >= 1 and sizes.max() <= 50
        assert all(b.startswith("Brand#") for b in np.unique(part.column("p_brand")))

    def test_prices_follow_retail_formula(self, catalog):
        lineitem = catalog.get("lineitem").data
        ratio = lineitem.column("l_extendedprice") / lineitem.column("l_quantity")
        assert (ratio >= 900.0).all() and (ratio <= 2001.0).all()

    def test_bad_scale_factor(self):
        from repro.errors import ModularisError

        with pytest.raises(ModularisError):
            generate(scale_factor=0)


class TestQueriesAgainstReference:
    def test_q4_has_all_priorities(self, catalog):
        frame = run_logical_plan(q4().plan, catalog)
        assert set(frame.columns["o_orderpriority"]) <= set(ORDER_PRIORITIES)
        assert (frame.columns["order_count"] > 0).all()

    def test_q12_splits_counts(self, catalog):
        frame = run_logical_plan(q12().plan, catalog)
        assert set(frame.columns["l_shipmode"]) <= {"MAIL", "SHIP"}
        assert (
            frame.columns["high_line_count"] + frame.columns["low_line_count"] > 0
        ).all()

    def test_q14_is_a_percentage(self, catalog):
        frame = run_logical_plan(q14().plan, catalog)
        value = frame.columns["promo_revenue"][0]
        assert 0.0 <= value <= 100.0

    def test_q19_nonnegative_revenue(self, catalog):
        frame = run_logical_plan(q19().plan, catalog)
        assert frame.columns["revenue"][0] >= 0.0

    def test_q19_residual_filter_matters(self, catalog):
        # Without the cross-side residual, revenue would be larger: the side
        # pre-filters alone admit brand/quantity combinations the full
        # predicate rejects.
        from repro.relational.logical import AggregateNode, FilterNode

        plan = q19().plan
        assert isinstance(plan, AggregateNode)
        assert isinstance(plan.child, FilterNode)
        relaxed = AggregateNode(plan.child.child, plan.group_by, plan.aggregates)
        full = run_logical_plan(plan, catalog).columns["revenue"][0]
        loose = run_logical_plan(relaxed, catalog).columns["revenue"][0]
        assert loose >= full


class TestDistributedExecution:
    """Pinned cells of the differential oracle (``tests/test_oracle.py``)."""

    @pytest.mark.parametrize("qnum", [4, 12, 14, 19])
    def test_modularis_matches_reference(self, qnum):
        check(tpch_case(qnum), Cell(ranks=4, strategy="auto"))

    def test_two_cluster_sizes_agree(self):
        for ranks in (2, 8):
            check(tpch_case(12), Cell(ranks=ranks))
