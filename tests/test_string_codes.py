"""Strings are int32 codes inside a lowered query, modelled at STRING's 32
bytes: simulated figures, type rules and the catalog's ``<U32`` columns (what
the reference reads) must be the ones the strings had."""

import hashlib

import numpy as np
import pytest

from repro import RunOptions
from repro.errors import PlanError, TypeCheckError
from repro.mpi.cluster import SimCluster
from repro.relational import lower_to_modularis
from repro.relational.builder import scan
from repro.relational.expressions import col
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
