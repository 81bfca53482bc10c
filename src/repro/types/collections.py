"""Collection types and the ``RowVector`` materialization format.

A *collection* is "the generalization of any physical data format of tuples
of a particular type" (paper, Section 3.2).  The paper's running example —
and the only format its plans need — is ``RowVector``: a contiguous array of
fixed-width rows, i.e. the C-array-of-C-structs the scan/materialize
sub-operators read and write.

In this reproduction a :class:`RowVector` is stored *columnar* over numpy
arrays.  This preserves the two properties the cost model cares about
(contiguity and fixed row width, so transfer cost is ``rows × row_size``)
while giving the vectorized kernels (the JIT-compilation analogue) direct
access to the columns.  Nested collection fields are stored as
object columns holding the nested :class:`RowVector` instances.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import TypeCheckError
from repro.types.atoms import AtomType
from repro.types.tuples import CollectionTypeLike, TupleType

__all__ = [
    "CollectionType",
    "row_vector_type",
    "chunked_type",
    "RowVector",
    "RowVectorBuilder",
    "ChunkedRowVector",
]


class CollectionType(CollectionTypeLike):
    """The static type ``Kind<TupleType>`` of a materialized collection.

    Attributes:
        kind: Physical format name; ``"RowVector"`` is the format used by
            every plan in the paper.
        element_type: Tuple type of the contained records.
    """

    __slots__ = ("kind", "element_type")

    #: Byte width charged for the handle itself when a collection is a field.
    size_bytes = 8

    def __init__(self, kind: str, element_type: TupleType) -> None:
        if not isinstance(element_type, TupleType):
            raise TypeCheckError(
                f"collection element type must be a TupleType, got {element_type!r}"
            )
        self.kind = kind
        self.element_type = element_type

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CollectionType):
            return NotImplemented
        return self.kind == other.kind and self.element_type == other.element_type

    def __hash__(self) -> int:
        return hash((self.kind, self.element_type))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}{self.element_type!r}"


def row_vector_type(element_type: TupleType) -> CollectionType:
    """Shorthand for ``CollectionType("RowVector", element_type)``."""
    return CollectionType("RowVector", element_type)


def chunked_type(element_type: TupleType) -> CollectionType:
    """Shorthand for ``CollectionType("ChunkedRowVector", element_type)``."""
    return CollectionType("ChunkedRowVector", element_type)


def _column_dtype(item_type: object) -> str:
    if isinstance(item_type, AtomType):
        return item_type.numpy_dtype
    return "object"  # nested collections


class RowVector:
    """An immutable, columnar materialization of tuples of one type.

    The canonical way to build one is :class:`RowVectorBuilder` (used by the
    ``MaterializeRowVector`` sub-operator) or the constructor over columns
    (used by bulk paths such as table scans and the network exchange).
    """

    __slots__ = ("element_type", "_columns", "_length")

    def __init__(self, element_type: TupleType, columns: Sequence[np.ndarray]) -> None:
        if len(columns) != len(element_type):
            raise TypeCheckError(
                f"RowVector of {element_type!r} needs {len(element_type)} columns, "
                f"got {len(columns)}"
            )
        lengths = {len(col) for col in columns}
        if len(lengths) > 1:
            raise TypeCheckError(f"ragged RowVector columns: lengths {sorted(lengths)}")
        self.element_type = element_type
        self._columns = tuple(np.asarray(col) for col in columns)
        self._length = lengths.pop() if lengths else 0

    # -- constructors ----------------------------------------------------

    @classmethod
    def empty(cls, element_type: TupleType) -> "RowVector":
        columns = [
            np.empty(0, dtype=_column_dtype(f.item_type)) for f in element_type
        ]
        return cls(element_type, columns)

    @classmethod
    def from_rows(cls, element_type: TupleType, rows: Iterable[tuple]) -> "RowVector":
        """Materialize an iterable of runtime tuples."""
        builder = RowVectorBuilder(element_type)
        for row in rows:
            builder.append(row)
        return builder.finish()

    @classmethod
    def of_row(cls, element_type: TupleType, row: tuple) -> "RowVector":
        """A one-row vector holding ``row``, such as a control tuple."""
        _check_arity(element_type, row)
        return cls._view(
            element_type, [_column_of([v], f.item_type) for f, v in zip(element_type, row)]
        )

    @classmethod
    def _view(cls, element_type: TupleType, columns: Iterable[np.ndarray]) -> "RowVector":
        """Wrap ``columns`` unchecked: the caller cut them alike from arrays
        already known to fit ``element_type``."""
        vector = object.__new__(cls)
        vector.element_type = element_type
        vector._columns = tuple(columns)
        vector._length = len(vector._columns[0]) if vector._columns else 0
        return vector

    @classmethod
    def concat(cls, element_type: TupleType, parts: Sequence["RowVector"]) -> "RowVector":
        """Column-wise concatenation of morsels into one vector.

        The bulk counterpart of feeding every part through a
        :class:`RowVectorBuilder`; blocking operators use it to assemble
        their input from a batch stream without a per-row Python loop.

        When the parts are adjacent contiguous slices of one parent vector
        — the shape ``RowVector.slice`` morselization and the partition
        scatter produce — each column re-merges into a single view of the
        shared parent buffer instead of being copied.
        """
        parts = [part for part in parts if len(part)]
        if not parts:
            return cls.empty(element_type)
        if len(parts) == 1:
            return parts[0]
        columns = []
        for i in range(len(element_type)):
            arrays = [part._columns[i] for part in parts]
            merged = _merge_contiguous_views(arrays)
            if merged is None:
                merged = np.concatenate(arrays)
            columns.append(merged)
        return cls(element_type, columns)

    # -- accessors -------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return self._columns

    def column(self, name: str) -> np.ndarray:
        """Return the column storing field ``name``."""
        return self._columns[self.element_type.position(name)]

    def row(self, index: int) -> tuple:
        """Materialize row ``index`` as a runtime tuple."""
        return tuple(_as_python(col[index]) for col in self._columns)

    def iter_rows(self) -> Iterator[tuple]:
        """Yield runtime tuples, for row consumers of a morsel."""
        if self._length == 0:
            return
        pythonized = [_pythonize_column(col) for col in self._columns]
        yield from zip(*pythonized)

    def take(self, indices: np.ndarray) -> "RowVector":
        """Gather rows by position into a new RowVector."""
        return self._view(self.element_type, [col[indices] for col in self._columns])

    def slice(self, start: int, stop: int) -> "RowVector":
        """Zero-copy contiguous slice (a morsel)."""
        return self._view(self.element_type, [col[start:stop] for col in self._columns])

    def size_bytes(self) -> int:
        """Flat payload size, the quantity the network cost model charges."""
        return self._length * self.element_type.row_size_bytes()

    def owned_bytes(self) -> int:
        """Bytes of backing storage this vector owns.

        A vector whose columns are all views of other arrays (a ``slice``
        morsel, a re-merged zero-copy concat, a ``Window.read``) holds no
        storage of its own — the bytes already live in the parent buffer
        — so memory accounting must not count it a second time.
        """
        if self._length and all(col.base is not None for col in self._columns):
            return 0
        return self.size_bytes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RowVector):
            return NotImplemented
        if self.element_type != other.element_type or len(self) != len(other):
            return False
        return all(
            np.array_equal(a, b) for a, b in zip(self._columns, other._columns)
        )

    def __hash__(self) -> int:  # pragma: no cover - collections are not keys
        raise TypeError("RowVector is unhashable")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RowVector({self.element_type!r}, rows={self._length})"


def _merge_contiguous_views(arrays: Sequence[np.ndarray]) -> np.ndarray | None:
    """One view covering ``arrays`` if they are adjacent slices of one base.

    Returns ``None`` (caller copies) unless every array is a 1-D view of
    the same 1-D parent buffer and their address ranges chain end-to-end
    without gaps — the exact layout ``slice`` morselization produces.
    """
    base = arrays[0].base
    if base is None or base.ndim != 1:
        return None
    stride = base.strides[0]
    if stride <= 0:
        return None
    base_addr = base.__array_interface__["data"][0]
    offset = arrays[0].__array_interface__["data"][0] - base_addr
    if offset % stride:
        return None
    start = offset // stride
    position = start
    for array in arrays:
        if (
            array.base is not base
            or array.ndim != 1
            or array.dtype != base.dtype
            or array.strides != base.strides
            or array.__array_interface__["data"][0] != base_addr + position * stride
        ):
            return None
        position += len(array)
    if position > len(base):
        return None
    return base[start:position]


def _as_python(value: object) -> object:
    """Convert a numpy scalar to its Python counterpart; pass through others."""
    if isinstance(value, np.generic):
        return value.item()
    return value


def _pythonize_column(col: np.ndarray) -> list:
    if col.dtype == object:
        return list(col)
    return col.tolist()


def _check_arity(element_type: TupleType, row: tuple) -> None:
    if len(row) != len(element_type):
        raise TypeCheckError(
            f"row arity {len(row)} does not match type {element_type!r}"
        )


def _column_of(values: list, item_type: object) -> np.ndarray:
    """One column holding ``values`` (Python scalars or nested collections)."""
    dtype = _column_dtype(item_type)
    if dtype != "object":
        return np.array(values, dtype=dtype)
    # Assign element-wise so numpy never tries to interpret a nested
    # RowVector as a sequence to flatten.
    col = np.empty(len(values), dtype=object)
    for i, value in enumerate(values):
        col[i] = value
    return col


class RowVectorBuilder:
    """Accumulates rows and freezes them into a :class:`RowVector`.

    The paper notes (Section 5.1.2) that its ``MaterializeRowVector`` grows
    buffers with ``realloc``; the builder mirrors that by accumulating in
    amortized-O(1) Python lists and converting to numpy once at the end.
    :meth:`extend_vector` is the bulk-append counterpart: already-columnar
    morsels are kept as whole segments and never pythonized, so a batch
    drain through the builder costs one concat instead of a per-row loop.
    """

    __slots__ = ("element_type", "_buffers", "_count", "_segments", "_total")

    def __init__(self, element_type: TupleType) -> None:
        self.element_type = element_type
        self._buffers: list[list] = [[] for _ in element_type]
        self._count = 0
        self._segments: list[RowVector] = []
        self._total = 0

    def __len__(self) -> int:
        return self._total

    def append(self, row: tuple) -> None:
        _check_arity(self.element_type, row)
        for buf, value in zip(self._buffers, row):
            buf.append(value)
        self._count += 1
        self._total += 1

    def extend(self, rows: Iterable[tuple]) -> None:
        for row in rows:
            self.append(row)

    def extend_vector(self, vector: RowVector) -> None:
        """Bulk-append a whole RowVector without materializing its rows."""
        if vector.element_type != self.element_type:
            raise TypeCheckError(
                f"cannot extend builder of {self.element_type!r} with a vector "
                f"of {vector.element_type!r}"
            )
        if len(vector) == 0:
            return
        if self._count:
            self._seal_buffers()
        self._segments.append(vector)
        self._total += len(vector)

    def _seal_buffers(self) -> None:
        """Freeze the scalar buffers into a segment, preserving row order."""
        columns = [
            _column_of(buf, field.item_type)
            for buf, field in zip(self._buffers, self.element_type)
        ]
        self._segments.append(RowVector(self.element_type, columns))
        self._buffers = [[] for _ in self.element_type]
        self._count = 0

    def finish(self) -> RowVector:
        if self._count or not self._segments:
            self._seal_buffers()
        segments = self._segments
        if len(segments) == 1:
            return segments[0]
        return RowVector.concat(self.element_type, segments)


class ChunkedRowVector:
    """A second physical format: a sequence of fixed-capacity row chunks.

    The paper's design principle 2 says every physical materialization
    format gets its own dedicated scan/materialize sub-operators so that
    *all other* operators stay format-agnostic.  ``ChunkedRowVector`` is
    the demonstration format: the same logical contents as a
    :class:`RowVector`, stored as a list of bounded chunks (the shape of
    a paged buffer pool or an Arrow record-batch stream).  Only
    ``ChunkScan`` and ``MaterializeChunks`` know this layout; histograms,
    filters, joins, and partitioners consume either format unchanged.
    """

    __slots__ = ("element_type", "chunks")

    def __init__(self, element_type: TupleType, chunks: Sequence[RowVector]) -> None:
        for chunk in chunks:
            if chunk.element_type != element_type:
                raise TypeCheckError(
                    f"chunk of {chunk.element_type!r} in ChunkedRowVector of "
                    f"{element_type!r}"
                )
        self.element_type = element_type
        self.chunks = tuple(chunks)

    @classmethod
    def from_row_vector(cls, data: RowVector, chunk_rows: int) -> "ChunkedRowVector":
        if chunk_rows < 1:
            raise TypeCheckError(f"chunk size must be positive, got {chunk_rows}")
        chunks = [
            data.slice(start, min(start + chunk_rows, len(data)))
            for start in range(0, len(data), chunk_rows)
        ]
        return cls(data.element_type, chunks)

    def __len__(self) -> int:
        return sum(len(chunk) for chunk in self.chunks)

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)

    def iter_rows(self) -> Iterator[tuple]:
        for chunk in self.chunks:
            yield from chunk.iter_rows()

    def size_bytes(self) -> int:
        return sum(chunk.size_bytes() for chunk in self.chunks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChunkedRowVector):
            return NotImplemented
        return (
            self.element_type == other.element_type
            and len(self) == len(other)
            and list(self.iter_rows()) == list(other.iter_rows())
        )

    def __hash__(self) -> int:  # pragma: no cover - collections are not keys
        raise TypeError("ChunkedRowVector is unhashable")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChunkedRowVector({self.element_type!r}, rows={len(self)}, "
            f"chunks={self.n_chunks})"
        )
