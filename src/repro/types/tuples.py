"""Tuple types: named, ordered fields of atoms or collections.

A :class:`TupleType` is the static type of the records that flow between
sub-operators.  Unlike First-Normal-Form relations, fields may themselves be
*collections* of tuples (see :mod:`repro.types.collections`), which is what
lets a ``MaterializeRowVector`` hand an entire materialization to a
``RowScan`` as a single record, and what makes nested plans possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from repro.errors import TypeCheckError
from repro.types.atoms import AtomType

__all__ = ["Field", "TupleType", "ItemType", "concat_tuple_types"]

#: A field's type: an atom or a collection (duck-typed to avoid an import
#: cycle; collections expose ``element_type`` and ``size_bytes``).
ItemType = Union[AtomType, "CollectionTypeLike"]


class CollectionTypeLike:
    """Structural stand-in so ``isinstance`` checks read naturally.

    :class:`repro.types.collections.CollectionType` registers itself as a
    virtual subclass; nothing else should subclass this.
    """


def _is_item_type(obj: object) -> bool:
    return isinstance(obj, (AtomType, CollectionTypeLike))


@dataclass(frozen=True)
class Field:
    """A single named field of a tuple type."""

    name: str
    item_type: ItemType

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise TypeCheckError(f"field name must be a non-empty string, got {self.name!r}")
        if not _is_item_type(self.item_type):
            raise TypeCheckError(
                f"field {self.name!r}: {self.item_type!r} is not an atom or collection type"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}: {self.item_type!r}"


class TupleType:
    """An ordered mapping from field names to item types.

    Tuple *values* at runtime are plain Python tuples positionally aligned
    with ``fields``; the type object is the single source of truth for field
    lookup.  Instances are immutable and hashable so operators can use them
    as cache keys.
    """

    __slots__ = ("_fields", "_index", "_names", "_row_size")

    def __init__(self, fields: Iterable[Field]) -> None:
        fields = tuple(fields)
        index: dict[str, int] = {}
        for pos, field in enumerate(fields):
            if field.name in index:
                raise TypeCheckError(f"duplicate field name {field.name!r} in tuple type")
            index[field.name] = pos
        self._fields = fields
        self._index = index
        # Immutable, so the per-morsel queries are answered once here.
        self._names = tuple(index)
        self._row_size = sum(
            f.item_type.size_bytes if isinstance(f.item_type, AtomType) else 8
            for f in fields
        )

    @classmethod
    def of(cls, **fields: ItemType) -> "TupleType":
        """Build a tuple type from keyword arguments.

        Example::

            TupleType.of(key=INT64, payload=INT64)
        """
        return cls(Field(name, item) for name, item in fields.items())

    @property
    def fields(self) -> tuple[Field, ...]:
        return self._fields

    @property
    def field_names(self) -> tuple[str, ...]:
        return self._names

    def __len__(self) -> int:
        return len(self._fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self._fields)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> ItemType:
        try:
            return self._fields[self._index[name]].item_type
        except KeyError:
            raise TypeCheckError(
                f"tuple type has no field {name!r}; fields are {self.field_names}"
            ) from None

    def position(self, name: str) -> int:
        """Return the positional index of ``name`` inside runtime tuples."""
        try:
            return self._index[name]
        except KeyError:
            raise TypeCheckError(
                f"tuple type has no field {name!r}; fields are {self.field_names}"
            ) from None

    def project(self, names: Iterable[str]) -> "TupleType":
        """The tuple type keeping only ``names``, in the order given."""
        return TupleType(Field(n, self[n]) for n in names)

    def drop(self, names: Iterable[str]) -> "TupleType":
        """The tuple type with ``names`` removed, preserving field order."""
        dropped = set(names)
        missing = dropped - set(self._index)
        if missing:
            raise TypeCheckError(f"cannot drop unknown fields {sorted(missing)}")
        return TupleType(f for f in self._fields if f.name not in dropped)

    def rename(self, mapping: dict[str, str]) -> "TupleType":
        """The same tuple type with some fields renamed."""
        return TupleType(
            Field(mapping.get(f.name, f.name), f.item_type) for f in self._fields
        )

    def row_size_bytes(self) -> int:
        """Flat byte width of one tuple; nested collections count as pointers."""
        return self._row_size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TupleType):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(f) for f in self._fields)
        return f"<{inner}>"


def concat_tuple_types(left: TupleType, right: TupleType) -> TupleType:
    """Concatenate two tuple types, requiring distinct field names.

    This implements the typing rule shared by ``CartesianProduct`` and
    ``Zip`` (Section 3.3.2): "the input field names need to be distinct and
    the output field names and types are those of the inputs".
    """
    clash = set(left.field_names) & set(right.field_names)
    if clash:
        raise TypeCheckError(
            f"cannot concatenate tuple types with shared field names {sorted(clash)}"
        )
    return TupleType(tuple(left.fields) + tuple(right.fields))
