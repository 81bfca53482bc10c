"""Key domains across the configuration lattice.

A join or group-by key of any declared atom either gives the reference
interpreter's answer on every cell or is refused with the same typed error
when the plan is built.  The differential oracle (``tests/test_oracle.py``)
draws keys of every atom on every cell; these are its pinned cells for the
join kinds × atoms and the group-by rank counts.

Partition functions read the key's bits, so a join key must be stored as an
integer (``RadixPartition``/``HashPartition``'s type rule); grouping never
partitions on the key and takes every atom.
"""

import numpy as np
import pytest

from repro.errors import TypeCheckError
from repro.relational.builder import scan
from repro.relational.expressions import col
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from tests.test_oracle import Cell, check, logical_case

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


@pytest.mark.parametrize("kind", ["inner", "semi", "anti"])
@pytest.mark.parametrize("atom", list(KEYS))
def test_join_key_matches_the_reference_or_is_refused_on_every_cell(atom, kind):
    catalog = catalog_for(atom)
    query = scan("l").join(scan("r"), on="k", kind=kind).aggregate(
        group_by=[], aggs=[("sum", col("rv"), "total"), ("count", col("rv"), "n")]
    )
    case = logical_case(query, lambda: catalog, atom)
    check(case, Cell(ranks=8, mode="interpreted", strategy="broadcast"))
    if atom not in INTEGER_STORED:
        with pytest.raises(TypeCheckError, match=atom) as refused:
            case.prepare(Cell())
        assert refused.value.rule_id == "MOD003"


@pytest.mark.parametrize("ranks", [1, 3, 8])
@pytest.mark.parametrize("atom", list(KEYS))
def test_group_by_takes_every_key_atom(atom, ranks):
    catalog = catalog_for(atom)
    query = scan("r").aggregate(group_by=["k"], aggs=[("sum", col("rv"), "total")])
    case = logical_case(query, lambda: catalog, atom)
    check(case, Cell(ranks=ranks, mode="interpreted"))
