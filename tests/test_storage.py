"""Unit tests for tables, statistics, and the catalog."""

import numpy as np
import pytest

from repro.errors import CatalogError
from repro.storage import Catalog, Table
from repro.types import INT64, STRING


class TestTable:
    def test_from_arrays_infers_schema(self):
        table = Table.from_arrays(
            "t",
            a=np.arange(4, dtype=np.int64),
            s=np.array(["x", "y", "z", "w"], dtype="U8"),
        )
        assert table.schema["a"] == INT64
        assert table.schema["s"] == STRING
        assert len(table) == 4

    def test_ragged_columns_rejected(self):
        with pytest.raises(CatalogError, match="ragged"):
            Table.from_arrays("t", a=np.arange(3), b=np.arange(4))

    def test_empty_table_name_rejected(self):
        from repro.types import RowVector, TupleType

        data = RowVector.from_rows(TupleType.of(a=INT64), [(1,)])
        with pytest.raises(CatalogError):
            Table("", data)

    def test_no_columns_rejected(self):
        with pytest.raises(CatalogError, match="at least one column"):
            Table.from_arrays("t")

    def test_stats_computed(self):
        table = Table.from_arrays(
            "t", a=np.array([1, 1, 2, 3], dtype=np.int64)
        )
        assert table.stats.row_count == 4

    def test_stats_for_strings(self):
        table = Table.from_arrays("t", s=np.array(["a", "b", "a"], dtype="U4"))
        assert table.stats.row_count == 3


class TestCatalog:
    @pytest.fixture
    def table(self):
        return Table.from_arrays("t", a=np.arange(3, dtype=np.int64))

    def test_register_and_get(self, table):
        catalog = Catalog()
        catalog.register(table)
        assert catalog.get("t") is table
        assert "t" in catalog
        assert len(catalog) == 1

    def test_duplicate_register_rejected(self, table):
        catalog = Catalog()
        catalog.register(table)
        with pytest.raises(CatalogError, match="already exists"):
            catalog.register(table)

    def test_replace_allowed_when_asked(self, table):
        catalog = Catalog()
        catalog.register(table)
        other = Table.from_arrays("t", a=np.arange(9, dtype=np.int64))
        catalog.register(other, replace=True)
        assert len(catalog.get("t")) == 9

    def test_unknown_table_lists_known(self, table):
        catalog = Catalog()
        catalog.register(table)
        with pytest.raises(CatalogError, match=r"catalog has \['t'\]"):
            catalog.get("ghost")

    def test_drop(self, table):
        catalog = Catalog()
        catalog.register(table)
        catalog.drop("t")
        assert "t" not in catalog
        with pytest.raises(CatalogError):
            catalog.drop("t")

    def test_iteration(self, table):
        catalog = Catalog()
        catalog.register(table)
        assert [t.name for t in catalog] == ["t"]
