"""Reduce and ReduceByKey: associative aggregation (§3.3.2)."""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.core.context import ExecutionContext
from repro.core.functions import ReduceFunction
from repro.core.kernels.scatter import key_sums
from repro.core.lockstep import Lockstep, Step, drained_parts, each_lane, pulled
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

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        accs: list = [None] * len(lx.ctxs)
        for step in pulled(self.upstreams[0], lx):
            for lane, part in zip(step.lanes, step.parts):
                accs[lane] = self.fold(lx.ctxs[lane], accs[lane], part)
        yield each_lane([self.result(acc) for acc in accs])

    def fold(self, ctx: ExecutionContext, acc, batch: RowVector):
        """Charge one morsel and fold it into the accumulator ``acc``."""
        ctx.charge_cpu(self, "reduce", len(batch))
        if len(batch) == 0:
            return acc
        if self._sums():
            partial = [col.sum() for col in batch.columns]
            return partial if acc is None else [a + b for a, b in zip(acc, partial)]
        for row in batch.iter_rows():  # any other combiner folds the rows
            acc = row if acc is None else self.fn(acc, row)
        return acc

    def result(self, acc) -> RowVector:
        """The output of a fold: one tuple, or none for an empty upstream."""
        builder = RowVectorBuilder(self.output_type)
        if acc is not None:
            sums = self._sums()
            builder.append(tuple(np.asarray(v).item() for v in acc) if sums else acc)
        return builder.finish()

    def _sums(self) -> bool:
        sum_fields = self.fn.vectorized_sum_fields
        return sum_fields is not None and set(sum_fields) == set(
            self.output_type.field_names
        )


class ReduceByKey(Operator):
    """Combine all tuples sharing a key value into one tuple (§3.3.2).

    The key field is stripped from the tuples handed to ``fn`` and re-added
    to the aggregated result, so the output tuple type equals the input's.
    Deterministic either way: the single-key sum kernel emits groups in
    ascending key order, the fold of any other combiner or key set in
    first-seen key order.
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

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        yield self.aggregated(
            self, lx, lambda ctx, n_rows: ctx.charge_cpu(self, "reduce", n_rows)
        )

    def aggregated(self, op: Operator, lx: Lockstep, charge) -> Step:
        """Each lane's non-empty morsels of ``op``'s upstream, charged by
        ``charge`` and aggregated (``op`` is this operator or an operator
        billing its aggregation elsewhere)."""
        outputs = []
        for ctx, parts in zip(lx.ctxs, drained_parts(pulled(op.upstreams[0], lx), lx)):
            parts = [part for part in parts if len(part)]
            charge(ctx, sum(len(part) for part in parts))
            outputs.append(self.aggregate(parts))
        return each_lane(outputs)

    def aggregate(self, parts: list[RowVector]) -> RowVector:
        """One tuple per key of the non-empty morsels ``parts``.

        The sum kernel when ``fn`` only sums and there is one key; for any
        other combiner or key set, a fold of the morsels' rows.  Charges
        nothing: ``NicPartialAggregate`` bills the same work to the NIC.
        """
        if not parts:
            return RowVector.empty(self.output_type)
        value_names = {
            self.output_type.field_names[p] for p in self._value_positions
        }
        if (
            self.fn.vectorized_sum_fields is not None
            and set(self.fn.vectorized_sum_fields) == value_names
            and len(self._key_positions) == 1
        ):
            return self._sum_by_single_key(parts)
        return self._fold(parts)

    def _fold(self, parts: list[RowVector]) -> RowVector:
        """Per-key accumulators over the morsels' rows, in first-seen key order."""
        key_pos, val_pos, fn = self._key_positions, self._value_positions, self.fn
        groups: dict[tuple, tuple] = {}
        for batch in parts:
            for row in batch.iter_rows():
                key = tuple(row[p] for p in key_pos)
                values = tuple(row[p] for p in val_pos)
                acc = groups.get(key)
                groups[key] = values if acc is None else fn(acc, values)
        return RowVector.from_rows(self.output_type, self._emit(groups))

    def _sum_by_single_key(self, parts: list[RowVector]) -> RowVector:
        """Vectorized single-key sum aggregation (``scatter.key_sums``)."""
        key_pos = self._key_positions[0]
        keys = np.concatenate([batch.columns[key_pos] for batch in parts])
        values = [
            np.concatenate([batch.columns[pos] for batch in parts])
            for pos in self._value_positions
        ]
        out_columns: list[np.ndarray | None] = [None] * len(self.output_type)
        out_columns[key_pos], sums = key_sums(keys, values)
        for pos, column in zip(self._value_positions, sums):
            out_columns[pos] = column
        return RowVector(self.output_type, out_columns)
