"""An int64 column a lowered query only compares is bound at its narrowest
integer width, modelled at its own 8 bytes: rows and simulated figures must
be the ones the int64 column gives, and the catalog keeps it int64."""

import numpy as np
import pytest

from repro import RunOptions
from repro.errors import PlanError
from repro.mpi.cluster import SimCluster
from repro.relational import lower_to_modularis, run_logical_plan
from repro.relational.builder import scan
from repro.relational.expressions import col
from repro.relational.interpreter import frames_match
from repro.relational.optimizer import planner
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.tpch import load_catalog
from repro.tpch.queries import q4, q12, q14, q19

QUERIES = {"q4": q4, "q12": q12, "q14": q14, "q19": q19}


@pytest.fixture(scope="module")
def tpch():
    return load_catalog(0.002)


def narrow_columns(lowered, catalog) -> list[dict[str, str]]:
    """Per bound side, each integer column bound narrower than 8 bytes."""
    dtypes = [{f.name: vector.column(f.name).dtype for f in vector.element_type}
              for vector in lowered.bind(catalog)]
    return [{name: dtype.name for name, dtype in side.items()
             if dtype.kind == "i" and dtype.itemsize < 8} for side in dtypes]


def test_the_tpch_date_filters_bind_int16(tpch):
    bound = {
        name: narrow_columns(lower_to_modularis(q().plan, tpch, SimCluster(2)), tpch)
        for name, q in QUERIES.items()
    }
    codes = "int32"  # string columns, as codes
    assert bound == {
        "q4": [{"l_commitdate": "int16", "l_receiptdate": "int16"},
               {"o_orderdate": "int16", "o_orderpriority": codes}],
        "q12": [{"o_orderpriority": codes},
                {"l_shipdate": "int16", "l_commitdate": "int16",
                 "l_receiptdate": "int16", "l_shipmode": codes}],
        "q14": [{"p_type": codes}, {"l_shipdate": "int16"}],
        # p_size and l_quantity feed the post-join filter: int64.
        "q19": [{"p_brand": codes, "p_container": codes},
                {"l_shipmode": codes, "l_shipinstruct": codes}],
    }
    # The reference reads the catalog, which keeps every date int64.
    for table, name in [("orders", "o_orderdate"), ("lineitem", "l_shipdate"),
                        ("lineitem", "l_commitdate"), ("lineitem", "l_receiptdate")]:
        assert tpch.get(table).data.column(name).dtype == np.int64


def catalog(**columns) -> Catalog:
    out = Catalog()
    out.register(Table.from_arrays("t", **{c: np.asarray(v) for c, v in columns.items()}))
    return out


T = catalog(k=np.arange(6), a=[-5, 0, 3, 7, 300, 30000], b=[1, 1 << 20, -3, 7, 0, 5],
            c=[0, 1, 2, 3, 4, 5])


@pytest.mark.parametrize("predicate, summed", [
    ((col("a") > 0) & (col("a") * 2 < 100), "k"),  # also in arithmetic
    ((col("a") > 0) & col("a").isin([3, 7]), "k"),  # also under isin
    (col("a") > 0, "a"),  # also read by the output
])
def test_a_compared_column_used_otherwise_stays_int64(predicate, summed):
    side = scan("t").filter(predicate).project({summed: col(summed)})
    query = side.aggregate([], [("sum", col(summed), "s")])
    lowered = lower_to_modularis(query.plan, T, SimCluster(1))
    (bound,) = lowered.bind(T)
    assert {bound.column(c).dtype.name for c in bound.element_type.field_names} == {"int64"}
    assert frames_match(run_logical_plan(query.plan, T),
                        lowered.result_frame(lowered.run(T)), 0.0)


@pytest.mark.parametrize("ranks", [1, 4])
@pytest.mark.parametrize("predicate", [
    col("a") < 10**6, col("a") > -10**6, col("a") == 10**6, col("a") != -10**6,
    col("a") <= 2.5, col("a") == 3.0, col("a") > 299.5,
    col("a") < col("b"), col("b") >= col("a"), col("a") == col("c"),
    ~(col("b") > 7) | (col("a") != 0),
])
def test_narrow_comparisons_match_the_reference(ranks, predicate):
    side = scan("t").filter(predicate).project({"k": col("k")})
    query = side.aggregate([], [("count", col("k"), "n"), ("sum", col("k"), "s")])
    lowered = lower_to_modularis(query.plan, T, SimCluster(ranks))
    (bound,) = lowered.bind(T)
    widths = {c: bound.column(c).dtype.name for c in "abc" if c in bound.element_type}
    assert widths == {c: w for c, w in {"a": "int16", "b": "int32", "c": "int16"}.items()
                      if c in widths}
    assert frames_match(run_logical_plan(query.plan, T),
                        lowered.result_frame(lowered.run(T)), 0.0)


@pytest.mark.parametrize("ranks", [1, 4])
def test_the_switch_changes_neither_rows_nor_simulated_figures(tpch, ranks, monkeypatch):
    def cells():
        out = []
        for name, q in QUERIES.items():
            lowered = lower_to_modularis(q().plan, tpch, SimCluster(ranks))
            report = lowered.run(tpch, RunOptions(metrics=True))
            m = report.metrics
            out.append((name, report.simulated_time, sorted(report.phase_breakdown().items()),
                        m.total("comm_puts"), m.total("shuffle_bytes"),
                        lowered.result_frame(report)))
        return out

    narrow = cells()
    monkeypatch.setattr(planner, "NARROW_COMPARED", False)
    wide = cells()
    assert [cell[:5] for cell in narrow] == [cell[:5] for cell in wide]
    assert all(frames_match(a[5], b[5], 0.0, True) for a, b in zip(narrow, wide))


def test_a_column_that_outgrows_its_width_needs_a_new_lowering():
    before = catalog(k=np.arange(3), a=[1, 2, 3])
    side = scan("t").filter(col("a") > 1).project({"k": col("k")})
    query = side.aggregate([], [("count", col("k"), "n")])
    lowered = lower_to_modularis(query.plan, before, SimCluster(2))
    assert lowered.bind(before)[0].column("a").dtype == np.int16
    narrower = catalog(k=np.arange(2), a=[5, 6])
    assert lowered.result_frame(lowered.run(narrower)).columns["n"].tolist() == [2]
    with pytest.raises(PlanError, match="changed since this query was lowered"):
        lowered.run(catalog(k=np.arange(3), a=[1, 2, 1 << 40]))
