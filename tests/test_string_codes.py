"""Strings are int32 codes inside a lowered query, modelled at STRING's 32
bytes: simulated figures, type rules and the catalog's ``<U32`` columns (what
the reference reads) must be the ones the strings had."""

import hashlib

import numpy as np
import pytest

from repro import RunOptions
from repro.errors import PlanError, TypeCheckError
from repro.mpi.cluster import SimCluster
from repro.relational import lower_to_modularis, run_logical_plan
from repro.relational.builder import scan
from repro.relational.expressions import col
from repro.relational.optimizer.planner import _MAX_RUNS, _ByCode
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.tpch import load_catalog
from repro.workloads.targets import resolve


def test_simulated_figures_are_the_ones_strings_cost():
    cells = []
    for q in ("q1", "q3", "q4", "q12", "q14", "q19"):
        for ranks in (1, 4):
            target = resolve(q, ranks, sf=0.002)
            for mode in ("fused", "interpreted"):
                report = target.run(RunOptions(mode=mode, metrics=True))
                m = report.metrics
                cells.append((q, ranks, mode, report.simulated_time,
                              sorted(report.phase_breakdown().items()),
                              m.total("comm_puts"), m.total("shuffle_bytes")))
    # Pinned before strings became codes; re-pinned when interpreted mode
    # began running the same kernels as fused (seven interpreted cells
    # moved in float rounding only, at most 1.6e-16 relative).
    assert hashlib.sha256(repr(cells).encode()).hexdigest()[:16] == "167d424e74bc9f92", cells


@pytest.mark.parametrize("ranks", [1, 4])
def test_a_string_join_key_is_still_refused(ranks):
    catalog = Catalog()
    for name in "ab":
        catalog.register(Table.from_arrays(name, s=np.array(["x", "y"]), **{name: np.arange(2)}))
    query = scan("a").join(scan("b"), on="s").aggregate([], [("count", col("a"), "n")])
    for strategy in ("exchange", "broadcast", "auto"):
        with pytest.raises(TypeCheckError) as refused:
            lower_to_modularis(query.plan, catalog, SimCluster(ranks), join_strategy=strategy)
        assert refused.value.rule_id == "MOD003"


@pytest.mark.parametrize("seed, pinned", [(4, "bde4618983498cfe"), (2021, "76ce94981dc62a64")])
def test_generated_columns_and_their_dictionaries(seed, pinned):
    columns = hashlib.sha256()
    for table in load_catalog(0.05, seed=seed):
        for name in table.schema.field_names:
            column = table.data.column(name)
            columns.update(f"{table.name}.{name}:{column.dtype.str}".encode() + column.tobytes())
            if name in table.dictionaries:
                values, codes = table.dictionaries[name]
                assert column.dtype == "<U32" and codes.dtype == np.int32
                assert np.array_equal(values, np.unique(column))
                assert np.array_equal(values[codes], column)
    assert columns.hexdigest()[:16] == pinned


def test_a_table_with_new_strings_needs_a_new_lowering():
    catalog = Catalog()
    catalog.register(Table.from_arrays("t", k=np.arange(2), s=np.array(["x", "y"])))
    query = scan("t").aggregate(["s"], [("count", col("k"), "n")])
    lowered = lower_to_modularis(query.plan, catalog, SimCluster(2))
    catalog.register(Table.from_arrays("t", k=np.arange(2), s=np.array(["x", "z"])), replace=True)
    with pytest.raises(PlanError, match="changed since this query was lowered"):
        lowered.run(catalog)


@pytest.mark.parametrize("ranks", [1, 4])
@pytest.mark.parametrize("predicate", [col("s").isin(["MAILBOX"]), col("k").isin([1.5])])
def test_isin_never_matches_a_literal_the_column_cannot_hold(ranks, predicate):
    catalog = Catalog()
    catalog.register(Table.from_arrays("t", k=np.arange(3), s=np.array(["MAIL", "SHIP", "AIR"])))
    query = scan("t").filter(predicate).aggregate(["s"], [("count", col("k"), "n")])
    lowered = lower_to_modularis(query.plan, catalog, SimCluster(ranks))
    assert run_logical_plan(query.plan, catalog).n_rows == 0
    assert lowered.result_frame(lowered.run(catalog)).n_rows == 0


def runs(*bounds: tuple[int, int], size: int = 40) -> np.ndarray:
    table = np.zeros(size, dtype=bool)
    for lo, hi in bounds:
        table[lo:hi] = True
    return table


#: Truth tables a string sub-expression can lower to, and whether
#: ``_ByCode`` gathers (``table[codes]``) rather than compares on them.
TABLES = {
    "no true code": (runs(), False),
    "all codes true": (runs((0, 40)), False),
    "one code": (runs((7, 8)), False),
    "one contiguous run": (runs((3, 19)), False),
    "runs at the cutoff": (runs(*((4 * i, 4 * i + 2) for i in range(_MAX_RUNS))), False),
    "runs above the cutoff": (runs(*((4 * i, 4 * i + 2) for i in range(_MAX_RUNS + 1))), True),
    "an INT64 0/1 table": (runs((0, 1), (5, 9), (39, 40)).astype(np.int64), False),
    "a table with other values": (np.arange(40) % 3, True),
    "a broadcast scalar table": (np.broadcast_to(np.asarray(True), (40,)), False),
}


@pytest.mark.parametrize("name", TABLES)
def test_a_truth_table_compiles_to_compares_equal_to_its_lookup(name):
    table, gathers = TABLES[name]
    codes = np.random.default_rng(0).integers(0, len(table), 5000).astype(np.int32)
    by_code = _ByCode("s", table)
    got, expected = by_code.evaluate({"s": codes}), table[codes]
    assert (by_code.runs is None) == gathers
    assert got.dtype == expected.dtype and np.array_equal(got, expected)
