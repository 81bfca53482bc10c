"""In-memory tables: named, typed, columnar base relations.

A :class:`Table` is the storage-side face of a
:class:`~repro.types.collections.RowVector`: the same columnar payload plus
a name and lightweight statistics for the optimizer, and, for each string
column, its sorted dictionary and int32 codes (what a lowered query binds
in place of the strings).  In the paper's
architecture base tables live on a shared file system that every worker can
read; here they live in driver memory and workers scan rank-sized shards
(see ``RowScan(shard_by_rank=True)``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CatalogError
from repro.types.atoms import atom_from_numpy_dtype
from repro.types.collections import RowVector
from repro.types.tuples import Field, TupleType

__all__ = ["Table", "TableStats", "dictionary_encode"]

#: A string column's sorted distinct values and its int32 codes into them.
Dictionary = tuple[np.ndarray, np.ndarray]


def dictionary_encode(pool: np.ndarray, index: np.ndarray) -> Dictionary:
    """The dictionary of the column ``pool[index]``, without sorting its rows.

    Only the pool is sorted; ``pool`` may hold duplicates and values
    ``index`` never picks, which the dictionary leaves out.
    """
    used = np.flatnonzero(np.bincount(index, minlength=len(pool)))
    values, inverse = np.unique(pool[used], return_inverse=True)
    lookup = np.zeros(len(pool), dtype=np.int32)
    lookup[used] = inverse
    return values, lookup[index]


@dataclass(frozen=True)
class TableStats:
    """Statistics the simplistic optimizer uses (paper §4.4)."""

    row_count: int


class Table:
    """A named base relation, immutable once constructed.

    A lowered query and its bound inputs are memoized on the identity of
    the tables they read, so the same ``Table`` object must mean the same
    contents: new contents are a new ``Table``, registered with
    ``Catalog.register(table, replace=True)``.
    """

    __slots__ = ("name", "data", "stats", "dictionaries")

    def __setattr__(self, name: str, value) -> None:
        if name in ("data", "stats", "dictionaries") and hasattr(self, name):
            raise AttributeError(
                f"Table.{name} cannot be rebound; register a new Table instead"
            )
        object.__setattr__(self, name, value)

    def __init__(self, name: str, data: RowVector, stats: TableStats | None = None,
                 dictionaries: dict[str, Dictionary] | None = None) -> None:
        """``dictionaries`` holds the dictionary of any string column whose
        codes the caller already has (a generator drawing from a pool); the
        others are encoded here."""
        if not name:
            raise CatalogError("table name must be non-empty")
        self.name = name
        self.data = data
        self.dictionaries = dict(dictionaries or {})
        for field in data.element_type:
            column = data.column(field.name)
            if column.dtype.kind == "U" and field.name not in self.dictionaries:
                values, codes = np.unique(column, return_inverse=True)
                self.dictionaries[field.name] = (values, codes.astype(np.int32))
        self.stats = stats or TableStats(len(data))

    @property
    def schema(self) -> TupleType:
        return self.data.element_type

    def __len__(self) -> int:
        return len(self.data)

    @classmethod
    def from_arrays(
        cls, name: str, dictionaries: dict[str, Dictionary] | None = None,
        **columns: np.ndarray,
    ) -> "Table":
        """Build a table from named numpy arrays (types are inferred)."""
        if not columns:
            raise CatalogError(f"table {name!r} needs at least one column")
        arrays = {k: np.asarray(v) for k, v in columns.items()}
        lengths = {len(a) for a in arrays.values()}
        if len(lengths) != 1:
            raise CatalogError(
                f"table {name!r}: ragged columns with lengths {sorted(lengths)}"
            )
        schema = TupleType(
            Field(col, atom_from_numpy_dtype(arr.dtype)) for col, arr in arrays.items()
        )
        return cls(name, RowVector(schema, list(arrays.values())), None, dictionaries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.name!r}, rows={len(self)}, schema={self.schema!r})"
