"""Tests for the extension query set (TPC-H Q1, single-table pattern)."""

import numpy as np
import pytest

from repro.mpi.cluster import SimCluster
from repro.relational import lower_to_modularis, run_logical_plan
from repro.tpch import EXTENSION_QUERIES, load_catalog, q1
from repro.tpch.schema import LINE_STATUSES, RETURN_FLAGS
from tests.test_oracle import Cell, check, logical_case, tpch_case


@pytest.fixture(scope="module")
def catalog():
    return load_catalog(scale_factor=0.005, seed=11)


class TestQ1Reference:
    def test_groups_are_flag_status_pairs(self, catalog):
        frame = run_logical_plan(q1().plan, catalog)
        assert set(frame.columns["l_returnflag"]) <= set(RETURN_FLAGS)
        assert set(frame.columns["l_linestatus"]) <= set(LINE_STATUSES)
        # Open lines are N/O; closed are {R,A}/F: at most 3 combinations.
        assert 1 <= frame.n_rows <= 4

    def test_ordered_by_flag_then_status(self, catalog):
        frame = run_logical_plan(q1().plan, catalog)
        pairs = list(zip(frame.columns["l_returnflag"], frame.columns["l_linestatus"]))
        assert pairs == sorted(pairs)

    def test_averages_consistent_with_sums(self, catalog):
        frame = run_logical_plan(q1().plan, catalog)
        avg = frame.columns["avg_qty"]
        ratio = frame.columns["sum_qty"] / frame.columns["count_order"]
        assert np.allclose(avg, ratio)

    def test_totals_match_manual_computation(self, catalog):
        frame = run_logical_plan(q1().plan, catalog)
        lineitem = catalog.get("lineitem").data
        from repro.relational.expressions import days_from_date

        cutoff = days_from_date("1998-12-01") - 90
        keep = lineitem.column("l_shipdate") <= cutoff
        assert frame.columns["count_order"].sum() == keep.sum()
        expected_qty = lineitem.column("l_quantity")[keep].sum()
        assert frame.columns["sum_qty"].sum() == expected_qty


class TestQ1Distributed:
    @pytest.mark.parametrize("machines", [1, 2, 8])
    def test_matches_reference(self, catalog, machines):
        lowered = lower_to_modularis(q1().plan, catalog, SimCluster(machines))
        assert lowered.strategy == "scan"
        check(tpch_case(1), Cell(ranks=machines))

    def test_no_exchange_in_single_table_plan(self, catalog):
        # A scan-aggregate query must not pay any network partitioning: the
        # only communication is collecting partial aggregates on the driver.
        lowered = lower_to_modularis(q1().plan, catalog, SimCluster(4))
        result = lowered.run(catalog)
        breakdown = result.phase_breakdown()
        assert breakdown.get("network_partition", 0.0) == 0.0

    def test_interpreted_mode(self):
        check(tpch_case(1), Cell(ranks=2, mode="interpreted"))


class TestRegistry:
    def test_extension_queries_registered(self):
        assert 1 in EXTENSION_QUERIES
        assert EXTENSION_QUERIES[1] is q1


class TestQ3:
    def test_matches_reference(self, catalog):
        from repro.tpch import q3

        lowered = lower_to_modularis(q3().plan, catalog, SimCluster(4))
        assert lowered.strategy == "multistage"
        check(tpch_case(3), Cell(ranks=4))  # ordered and limited: compared in order

    def test_limit_and_ordering(self, catalog):
        from repro.tpch import q3

        frame = run_logical_plan(q3().plan, catalog)
        assert frame.n_rows <= 10
        revenue = frame.columns["revenue"]
        assert all(a >= b for a, b in zip(revenue, revenue[1:]))

    def test_semi_stage_filters_customers(self, catalog):
        # Only BUILDING-segment customers' orders may contribute.
        from repro.tpch import q3

        frame = run_logical_plan(q3().plan, catalog)
        orders = catalog.get("orders").data
        customer = catalog.get("customer").data
        building = set(
            customer.column("c_custkey")[
                customer.column("c_mktsegment") == "BUILDING"
            ].tolist()
        )
        custkey_of = dict(
            zip(
                orders.column("o_orderkey").tolist(),
                orders.column("o_custkey").tolist(),
            )
        )
        for okey in frame.columns["okey"]:
            assert custkey_of[int(okey)] in building


class TestQ6:
    def test_matches_reference_distributed(self, catalog):
        from repro.tpch import q6

        assert lower_to_modularis(q6().plan, catalog, SimCluster(4)).strategy == "scan"
        check(tpch_case(6), Cell(ranks=4))

    def test_manual_computation(self, catalog):
        from repro.relational.expressions import days_from_date
        from repro.tpch import q6

        lineitem = catalog.get("lineitem").data
        ship = lineitem.column("l_shipdate")
        disc = lineitem.column("l_discount")
        qty = lineitem.column("l_quantity")
        keep = (
            (ship >= days_from_date("1994-01-01"))
            & (ship < days_from_date("1995-01-01"))
            & (disc >= 0.05)
            & (disc <= 0.07)
            & (qty < 24)
        )
        expected = (
            lineitem.column("l_extendedprice")[keep] * disc[keep]
        ).sum()
        frame = run_logical_plan(q6().plan, catalog)
        assert frame.columns["revenue"][0] == pytest.approx(expected)


class TestMinMaxDistributed:
    def test_min_max_aggregates_lower_correctly(self, catalog):
        # min/max use the scalar combiner path (not the vectorized sum
        # shortcut) through every nesting level of the distributed plan.
        from repro.relational.builder import scan as dsl_scan
        from repro.relational.expressions import col

        query = (
            dsl_scan("orders")
            .project(
                {"okey": col("o_orderkey"), "o_orderdate": col("o_orderdate")}
            )
            .join(
                dsl_scan("lineitem").project(
                    {"okey": col("l_orderkey"), "l_quantity": col("l_quantity")}
                ),
                on="okey",
            )
            .aggregate(
                group_by=[],
                aggs=[
                    ("min", col("l_quantity"), "min_qty"),
                    ("max", col("l_quantity"), "max_qty"),
                    ("min", col("o_orderdate"), "first_date"),
                ],
            )
        )
        check(logical_case(query, lambda: catalog, "min/max"), Cell(ranks=4))
