"""RMA windows: registered memory regions for one-sided transfers.

A :class:`Window` models the memory region a rank reserves, pins, and
registers with the NIC (paper Section 2.1).  Remote ranks write into it with
one-sided puts at offsets they computed *locally* from the global histogram;
no synchronization happens during the transfer.  The simulation preserves —
and asserts — the property that makes this safe on real RDMA hardware:
within one RMA epoch (between two fences), the regions written by different
ranks must be disjoint.  Overlap would be a silent data race on InfiniBand;
here it raises :class:`~repro.errors.MpiSemanticsError` (MOD050), the one
check of that rule; the runtime sanitizer only names the operators.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MpiSemanticsError, SimulationError
from repro.types.atoms import AtomType
from repro.types.collections import RowVector
from repro.types.tuples import TupleType

__all__ = ["Window"]


def _column_dtype(item_type: object) -> str:
    if isinstance(item_type, AtomType):
        return item_type.numpy_dtype
    return "object"


class Window:
    """A typed, fixed-capacity RMA window owned by one rank.

    Rows are addressed by row offset rather than byte offset; the byte view
    used by the cost model is ``rows × element_type.row_size_bytes()``.
    """

    __slots__ = (
        "owner_rank",
        "element_type",
        "capacity",
        "sanitizer",
        "_columns",
        "epoch_puts",
    )

    def __init__(self, owner_rank: int, element_type: TupleType, capacity: int) -> None:
        if capacity < 0:
            raise SimulationError(f"window capacity must be >= 0, got {capacity}")
        self.owner_rank = owner_rank
        self.element_type = element_type
        self.capacity = capacity
        #: The sanitizer's state of this window (MOD052/053), or None.
        self.sanitizer = None
        self._columns = [
            np.zeros(capacity, dtype=_column_dtype(f.item_type)) for f in element_type
        ]
        #: ``(start, stop, source_rank, origin)`` of each put in the current
        #: epoch; ``origin`` is opaque here (the sanitizer's operator).
        self.epoch_puts: list[tuple[int, int, int, object]] = []

    def size_bytes(self) -> int:
        """Registered size in bytes, charged at registration time."""
        return self.capacity * self.element_type.row_size_bytes()

    # -- one-sided access --------------------------------------------------

    def write(
        self, offset: int, data: RowVector, source_rank: int, rows=None, origin=None
    ) -> None:
        """Deposit ``data`` — or its rows at positions ``rows``, gathered
        straight into the window — at row ``offset`` for ``source_rank``,
        recording the put with ``origin``.

        Raises:
            MpiSemanticsError: (MOD050) On element-type mismatches,
                out-of-bounds writes, or overlap with a region another rank
                wrote in the same epoch (a would-be RDMA data race).
        """
        stop = offset + (len(data) if rows is None else len(rows))
        if data.element_type != self.element_type:
            raise self._refused(
                "type", f"put of {data.element_type!r} into window of "
                f"{self.element_type!r}", (source_rank,), (origin,), (offset, stop),
            )
        if offset < 0 or stop > self.capacity:
            raise self._refused(
                "bounds", f"put [{offset}, {stop}) outside window of capacity "
                f"{self.capacity}", (source_rank,), (origin,), (offset, stop),
            )
        for start0, stop0, src0, origin0 in self.epoch_puts:
            if src0 != source_rank and offset < stop0 and start0 < stop:
                overlap = (max(offset, start0), min(stop, stop0))
                raise self._refused(
                    "race", f"RDMA race: ranks {src0} and {source_rank} both "
                    f"wrote rows [{overlap[0]}, {overlap[1]}) of the window on "
                    f"rank {self.owner_rank} within one epoch",
                    (source_rank, src0), (origin, origin0), overlap,
                )
        self.epoch_puts.append((offset, stop, source_rank, origin))
        for dst, src in zip(self._columns, data.columns):
            if rows is None:
                dst[offset:stop] = src
            elif src.dtype == dst.dtype:
                # "clip" skips the buffered, bounds-checked path of
                # mode="raise"; a scatter order holds only valid positions.
                src.take(rows, out=dst[offset:stop], mode="clip")
            else:
                dst[offset:stop] = src[rows]

    def read(self, start: int = 0, stop: int | None = None) -> RowVector:
        """Read rows ``[start, stop)`` as a RowVector (one-sided get)."""
        stop = self.capacity if stop is None else stop
        if start < 0 or stop > self.capacity or start > stop:
            raise SimulationError(
                f"get [{start}, {stop}) outside window of capacity {self.capacity}"
            )
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.on_read(self, start, stop)
        return RowVector._view(self.element_type, [c[start:stop] for c in self._columns])

    def _refused(self, kind, detail, ranks, origins, rows) -> MpiSemanticsError:
        return MpiSemanticsError(
            "MOD050", kind, detail, ranks, origins, self.owner_rank, rows
        )

    # -- epochs --------------------------------------------------------------

    def end_epoch(self) -> int:
        """Close the current RMA epoch (at a fence); returns rows written."""
        written = sum(stop - start for start, stop, _, _ in self.epoch_puts)
        self.epoch_puts.clear()
        return written
