"""Reduce and ReduceByKey: associative aggregation (§3.3.2)."""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.core.context import ExecutionContext
from repro.core.functions import ReduceFunction
from repro.core.kernels.scatter import key_order
from repro.core.operator import Operator, require_fields
from repro.errors import TypeCheckError
from repro.types.collections import RowVector, RowVectorBuilder

__all__ = ["Reduce", "ReduceByKey"]


class Reduce(Operator):
    """Fold all upstream tuples into a single tuple with ``fn``.

    ``fn`` must be associative and commutative; its two arguments and its
    result all have the upstream's tuple type, which is also the operator's
    output type.  An empty upstream yields no output tuple.
    """

    abbreviation = "RD"
    phase_name = "aggregation"
    breaks_pipeline = True

    def __init__(self, upstream: Operator, fn: ReduceFunction) -> None:
        self.fn = fn
        super().__init__(upstreams=(upstream,))

    def infer_type(self, upstream_types):
        return upstream_types[0]

    def signature(self) -> tuple:
        return (id(self.fn),)

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        acc: tuple | None = None
        count = 0
        for row in self.upstreams[0].rows(ctx):
            count += 1
            acc = row if acc is None else self.fn(acc, row)
        ctx.charge_cpu(self, "reduce", count)
        if acc is not None:
            yield acc

    def batches(self, ctx: ExecutionContext) -> Iterator[RowVector]:
        sum_fields = self.fn.vectorized_sum_fields
        if sum_fields is None or set(sum_fields) != set(self.output_type.field_names):
            yield from self._rows_as_morsels(ctx)
            return
        totals: list | None = None
        for batch in self.upstreams[0].stream_batches(ctx):
            ctx.charge_cpu(self, "reduce", len(batch))
            if len(batch) == 0:
                continue
            partial = [col.sum() for col in batch.columns]
            totals = partial if totals is None else [a + b for a, b in zip(totals, partial)]
        builder = RowVectorBuilder(self.output_type)
        if totals is not None:
            builder.append(tuple(np.asarray(t).item() for t in totals))
        yield builder.finish()


class ReduceByKey(Operator):
    """Combine all tuples sharing a key value into one tuple (§3.3.2).

    The key field is stripped from the tuples handed to ``fn`` and re-added
    to the aggregated result, so the output tuple type equals the input's.
    Both data paths are deterministic: the scalar fold emits groups in
    first-seen key order, the vectorized sum kernel in ascending key order.
    """

    abbreviation = "RK"
    phase_name = "aggregation"
    breaks_pipeline = True

    def __init__(
        self, upstream: Operator, key_fields: Sequence[str] | str, fn: ReduceFunction
    ) -> None:
        if isinstance(key_fields, str):
            key_fields = (key_fields,)
        if not key_fields:
            raise TypeCheckError("ReduceByKey needs at least one key field")
        self.key_fields = tuple(key_fields)
        self.fn = fn
        super().__init__(upstreams=(upstream,))
        in_type = upstream.output_type
        self._key_positions = tuple(in_type.position(f) for f in self.key_fields)
        self._value_positions = tuple(
            i for i in range(len(in_type)) if i not in self._key_positions
        )

    def infer_type(self, upstream_types):
        (in_type,) = upstream_types
        require_fields("ReduceByKey", in_type, self.key_fields)
        if len(set(self.key_fields)) == len(in_type):
            raise TypeCheckError(
                f"ReduceByKey needs at least one non-key field to aggregate in {in_type!r}"
            )
        return in_type

    def signature(self) -> tuple:
        return (self.key_fields, id(self.fn))

    def _emit(self, groups: dict) -> Iterator[tuple]:
        out_len = len(self.output_type)
        for key, values in groups.items():
            row: list = [None] * out_len
            for pos, val in zip(self._key_positions, key):
                row[pos] = val
            for pos, val in zip(self._value_positions, values):
                row[pos] = val
            yield tuple(row)

    def rows(self, ctx: ExecutionContext) -> Iterator[tuple]:
        key_pos, val_pos, fn = self._key_positions, self._value_positions, self.fn
        groups: dict[tuple, tuple] = {}
        count = 0
        for row in self.upstreams[0].rows(ctx):
            count += 1
            key = tuple(row[p] for p in key_pos)
            values = tuple(row[p] for p in val_pos)
            acc = groups.get(key)
            groups[key] = values if acc is None else fn(acc, values)
        ctx.charge_cpu(self, "reduce", count)
        yield from self._emit(groups)

    def batches(self, ctx: ExecutionContext) -> Iterator[RowVector]:
        value_names = {
            self.output_type.field_names[p] for p in self._value_positions
        }
        vectorizable = (
            self.fn.vectorized_sum_fields is not None
            and set(self.fn.vectorized_sum_fields) == value_names
            and len(self._key_positions) == 1
        )
        if not vectorizable:
            yield from self._rows_as_morsels(ctx)
            return
        yield from self._sum_by_single_key(ctx)

    def _sum_by_single_key(self, ctx: ExecutionContext) -> Iterator[RowVector]:
        """Vectorized single-key sum aggregation via sort + reduceat."""
        key_pos = self._key_positions[0]
        key_chunks: list[np.ndarray] = []
        value_chunks: list[list[np.ndarray]] = [[] for _ in self._value_positions]
        total = 0
        for batch in self.upstreams[0].stream_batches(ctx):
            if len(batch) == 0:
                continue
            total += len(batch)
            key_chunks.append(batch.columns[key_pos])
            for store, pos in zip(value_chunks, self._value_positions):
                store.append(batch.columns[pos])
        ctx.charge_cpu(self, "reduce", total)
        if not key_chunks:
            yield RowVector.empty(self.output_type)
            return
        keys = np.concatenate(key_chunks)
        order = key_order(keys)
        sorted_keys = keys[order]
        boundaries = np.flatnonzero(
            np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
        )
        out_columns: list[np.ndarray | None] = [None] * len(self.output_type)
        out_columns[key_pos] = sorted_keys[boundaries]
        for store, pos in zip(value_chunks, self._value_positions):
            values = np.concatenate(store)[order]
            out_columns[pos] = np.add.reduceat(values, boundaries)
        yield RowVector(self.output_type, out_columns)
