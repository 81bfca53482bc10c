"""Key domains across the configuration lattice.

A join or group-by key of any declared atom either gives the reference
interpreter's answer on *every* cell (rank count × mode × strategy) or is
refused with the same typed error when the plan is built — never a bare
numpy error from inside a rank thread on some cells and an answer on others.

Partition functions read the key's bits, so a join key must be stored as an
integer (``RadixPartition``/``HashPartition``'s type rule); grouping never
partitions on the key and takes every atom.
"""

import numpy as np
import pytest

from repro import RunOptions
from repro.bench.experiments.fig9 import frames_match
from repro.errors import TypeCheckError
from repro.mpi.cluster import SimCluster
from repro.relational import lower_to_modularis, run_logical_plan
from repro.relational.builder import scan
from repro.relational.expressions import col
from repro.storage.catalog import Catalog
from repro.storage.table import Table

MODES = ("fused", "interpreted")

#: Seven distinct key values per atom (BOOL has two), repeated with
#: different multiplicities on the two sides so every join kind has
#: matches, misses and duplicates.
KEYS = {
    "INT64": np.arange(7, dtype=np.int64) * 3,
    "BOOL": np.array([True, False]),
    "STRING": np.array([f"k{i}" for i in range(7)]),
    "FLOAT64": np.arange(7, dtype=np.float64) / 2,
}
INTEGER_STORED = ("INT64", "BOOL")


def catalog_for(atom: str) -> Catalog:
    domain = KEYS[atom]
    rng = np.random.default_rng(11)
    catalog = Catalog()
    for name, pay, rows, skip in (("l", "lv", 40, 0), ("r", "rv", 90, 1)):
        keys = domain[rng.integers(skip, len(domain), rows) % len(domain)]
        catalog.register(
            Table.from_arrays(name, k=keys, **{pay: rng.integers(0, 50, rows)})
        )
    return catalog


def join_plan(kind: str):
    joined = scan("l").join(scan("r"), on="k", kind=kind)
    return joined.aggregate(
        group_by=[], aggs=[("sum", col("rv"), "total"), ("count", col("rv"), "n")]
    ).plan


def outcome(plan, catalog, ranks, mode, strategy):
    """The cell's result frame, or the error lowering refused it with."""
    try:
        lowered = lower_to_modularis(
            plan, catalog, SimCluster(ranks), join_strategy=strategy
        )
    except TypeCheckError as exc:
        return exc
    return lowered.result_frame(lowered.run(catalog, RunOptions(mode=mode)))


@pytest.mark.parametrize("kind", ["inner", "semi", "anti"])
@pytest.mark.parametrize("atom", list(KEYS))
def test_join_key_matches_the_reference_or_is_refused_on_every_cell(atom, kind):
    catalog, plan = catalog_for(atom), join_plan(kind)
    reference = run_logical_plan(plan, catalog)
    cells = [
        outcome(plan, catalog, ranks, mode, strategy)
        for ranks in (1, 8)
        for mode in MODES
        for strategy in ("exchange", "broadcast")
    ]
    if atom in INTEGER_STORED:
        assert all(frames_match(reference, frame) for frame in cells)
    else:
        assert all(isinstance(cell, TypeCheckError) for cell in cells)
        assert {(cell.rule_id, str(cell)) for cell in cells} == {
            (cells[0].rule_id, str(cells[0]))
        }
        assert cells[0].rule_id == "MOD003" and atom in str(cells[0])


@pytest.mark.parametrize("ranks", [1, 3, 8])
@pytest.mark.parametrize("atom", list(KEYS))
def test_group_by_takes_every_key_atom(atom, ranks):
    catalog = catalog_for(atom)
    plan = (
        scan("r")
        .aggregate(group_by=["k"], aggs=[("sum", col("rv"), "total")])
        .plan
    )
    reference = run_logical_plan(plan, catalog)
    for mode in MODES:
        frame = outcome(plan, catalog, ranks, mode, "exchange")
        assert frames_match(reference, frame)
