"""Atomic types of the Modularis type system.

The paper (Section 3.2) defines tuples recursively::

    tuple := <item, ..., item>
    item  := atom | collection of tuples

An *atom* is "a particular domain of undividable values".  This module
defines the atom domains used throughout the reproduction together with
their numpy representation, which is what the columnar ``RowVector``
materialization format stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AtomType",
    "INT64",
    "INT32",
    "FLOAT64",
    "BOOL",
    "STRING",
    "DATE",
    "atom_from_numpy_dtype",
    "string_codes",
]


@dataclass(frozen=True)
class AtomType:
    """An undividable value domain.

    Attributes:
        name: Human-readable type name (``"INT64"``, ...).
        numpy_dtype: The dtype used when the atom is stored in a columnar
            ``RowVector``.  Strings use a fixed-width unicode dtype large
            enough for the TPC-H columns we generate.
        size_bytes: Width used by the network cost model when tuples
            containing this atom travel through a simulated RDMA window.
        width: For a STRING stored as codes (:func:`string_codes`), the
            character width of the column the codes were drawn from; not
            part of the type's identity.
    """

    name: str
    numpy_dtype: str
    size_bytes: int
    width: int = field(default=0, compare=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name

    @property
    def domain_kind(self) -> str:
        """The numpy kind of the declared domain: ``"U"`` for a STRING
        however it is stored, so type rules do not mistake codes for
        integers."""
        return "U" if self.name == "STRING" else np.dtype(self.numpy_dtype).kind

    def validate(self, value: object) -> bool:
        """Return ``True`` if ``value`` belongs to this atom's domain."""
        if self.name in ("INT64", "INT32", "DATE"):
            return isinstance(value, (int, np.integer)) and not isinstance(
                value, bool
            )
        if self.name == "FLOAT64":
            return isinstance(value, (int, float, np.integer, np.floating))
        if self.name == "BOOL":
            return isinstance(value, (bool, np.bool_))
        if self.name == "STRING":
            return isinstance(value, (str, np.str_))
        return False


#: 64-bit signed integer; the paper's 8-byte join keys and payloads.
INT64 = AtomType("INT64", "int64", 8)

#: 32-bit signed integer, used for partition and bucket identifiers.
INT32 = AtomType("INT32", "int32", 4)

#: IEEE-754 double; TPC-H prices, discounts, aggregates.
FLOAT64 = AtomType("FLOAT64", "float64", 8)

#: Boolean atom, produced by predicates.
BOOL = AtomType("BOOL", "bool", 1)

#: Fixed-width string atom (TPC-H flags, modes, priorities).
STRING = AtomType("STRING", "U32", 32)

#: Date stored as days since 1970-01-01 (TPC-H date columns).
DATE = AtomType("DATE", "int64", 8)


def string_codes(width: int) -> AtomType:
    """STRING as a lowered query carries it: int32 codes into the query's
    sorted dictionary, modelled at STRING's width so every simulated byte
    count is the one the strings would cost."""
    return AtomType("STRING", "int32", STRING.size_bytes, width)


_BY_KIND = {
    "i": {8: INT64, 4: INT32},
    "f": {8: FLOAT64},
    "b": {1: BOOL},
}


def atom_from_numpy_dtype(dtype: np.dtype) -> AtomType:
    """Map a numpy dtype to the library atom that stores it.

    Used when importing external numpy structured arrays into the catalog.

    Raises:
        ValueError: If no atom represents ``dtype``.
    """
    dt = np.dtype(dtype)
    if dt.kind == "U":
        return STRING
    by_size = _BY_KIND.get(dt.kind)
    if by_size and dt.itemsize in by_size:
        return by_size[dt.itemsize]
    raise ValueError(f"no AtomType for numpy dtype {dt!r}")
