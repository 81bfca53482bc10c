"""Reference interpreter for logical plans.

Executes a logical plan directly over numpy columns, with no distribution
and no cost accounting.  It serves two purposes:

* the *ground truth* every Modularis plan (and both engine models) is
  checked against, through the one result comparator :func:`frames_match`;
* the shared execution core of the Presto/MemSQL engine models, which
  compute real results through :func:`join_frames` and
  :func:`aggregate_frame` while charging their own cost models.

Columnar frames are plain ``dict[str, np.ndarray]``; helper
:class:`Frame` adds the row count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import PlanError
from repro.relational.logical import (
    AggregateNode,
    AggregateSpec,
    FilterNode,
    JoinNode,
    LimitNode,
    LogicalPlan,
    ProjectNode,
    ScanNode,
    SortNode,
)
from repro.storage.catalog import Catalog

__all__ = [
    "Frame", "run_logical_plan", "frames_match", "join_frames", "aggregate_frame",
    "sort_frame",
]


@dataclass
class Frame:
    """A columnar intermediate result."""

    columns: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        lengths = {len(a) for a in self.columns.values()}
        if len(lengths) > 1:
            raise PlanError(f"ragged frame: column lengths {sorted(lengths)}")

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def take(self, indices: np.ndarray) -> "Frame":
        return Frame({k: v[indices] for k, v in self.columns.items()})

    def mask(self, keep: np.ndarray) -> "Frame":
        return self.take(np.flatnonzero(keep))


def run_logical_plan(plan: LogicalPlan, catalog: Catalog) -> Frame:
    """Evaluate a logical plan bottom-up; returns the result frame."""
    if isinstance(plan, ScanNode):
        table = catalog.get(plan.table)
        names = plan.columns or table.schema.field_names
        return Frame({name: table.data.column(name) for name in names})
    if isinstance(plan, FilterNode):
        frame = run_logical_plan(plan.child, catalog)
        keep = np.asarray(plan.predicate.evaluate(frame.columns), dtype=bool)
        return frame.mask(keep)
    if isinstance(plan, ProjectNode):
        frame = run_logical_plan(plan.child, catalog)
        return Frame(
            {
                alias: np.asarray(expr.evaluate(frame.columns))
                for alias, expr in plan.outputs
            }
        )
    if isinstance(plan, JoinNode):
        left = run_logical_plan(plan.left, catalog)
        right = run_logical_plan(plan.right, catalog)
        return join_frames(left, right, plan.key, plan.kind)
    if isinstance(plan, AggregateNode):
        frame = run_logical_plan(plan.child, catalog)
        return aggregate_frame(frame, plan.group_by, plan.aggregates)
    if isinstance(plan, SortNode):
        return sort_frame(run_logical_plan(plan.child, catalog), plan)
    if isinstance(plan, LimitNode):
        frame = run_logical_plan(plan.child, catalog)
        return Frame({k: v[: plan.n] for k, v in frame.columns.items()})
    raise PlanError(f"unknown logical node {type(plan).__name__}")


def frames_match(
    expected, actual, tolerance: float = 1e-9, ordered: bool = False
) -> bool:
    """Whether two results hold the same rows — the one result comparator.

    A result is a :class:`Frame` or a ``(column names, column arrays)``
    pair; columns are matched by name.  Integers, strings and booleans
    compare exactly, floats within ``tolerance`` relative to
    ``max(1, |expected|)``.  ``ordered`` compares rows position by position
    (a result an ORDER BY fixes, or bit-identity of two runs of one plan);
    otherwise rows compare as sorted multisets.
    """
    expected, actual = _columns(expected), _columns(actual)
    names = sorted(expected)
    if names != sorted(actual):
        return False
    left = [np.asarray(expected[name]) for name in names]
    right = [np.asarray(actual[name]) for name in names]
    if any(len(a) != len(b) for a, b in zip(left, right)):
        return False
    if not ordered:
        left, right = _sorted_rows(left), _sorted_rows(right)
    return all(_same(a, b, tolerance) for a, b in zip(left, right))


def _columns(result) -> dict[str, np.ndarray]:
    """A :class:`Frame`'s columns, or a ``(names, arrays)`` pair's."""
    return result.columns if isinstance(result, Frame) else dict(zip(*result))


def _sorted_rows(columns: list[np.ndarray]) -> list[np.ndarray]:
    rows = sorted(zip(*(column.tolist() for column in columns)))
    return [np.asarray(column) for column in zip(*rows)] if rows else columns


def _same(a: np.ndarray, b: np.ndarray, tolerance: float) -> bool:
    if "f" not in (a.dtype.kind, b.dtype.kind):
        return np.array_equal(a, b)
    close = np.abs(a - b) <= tolerance * np.maximum(1.0, np.abs(a))
    return bool((close | (a == b)).all())


def sort_frame(frame: Frame, plan: SortNode) -> Frame:
    """Order ``frame`` as ``plan`` says, ties broken by the other columns.

    Descending keys sort by negation, so they must be numeric — a rule on
    the column's type, checked whether or not there are rows.
    """
    keys, directions = plan.total_order(tuple(frame.columns))
    key_columns = []
    for key, desc in zip(reversed(keys), reversed(directions)):
        column = frame.columns[key]
        if desc:
            if column.dtype.kind not in "iuf":
                raise PlanError(f"descending sort key {key!r} must be numeric")
            column = -column
        key_columns.append(column)
    return frame.take(np.lexsort(key_columns))


def join_frames(left: Frame, right: Frame, key: str, kind: str = "inner") -> Frame:
    """Equi-join two frames on a same-named key column.

    ``semi``/``anti`` keep right rows with/without a left match (the
    BuildProbe convention: the left side builds).
    """
    for side, frame in (("left", left), ("right", right)):
        if key not in frame.columns:
            raise PlanError(f"{side} join input lacks key column {key!r}")
    left_keys = left.columns[key]
    right_keys = right.columns[key]

    order = np.argsort(left_keys, kind="stable")
    sorted_keys = left_keys[order]
    lo = np.searchsorted(sorted_keys, right_keys, side="left")
    hi = np.searchsorted(sorted_keys, right_keys, side="right")
    match_counts = hi - lo

    if kind == "semi":
        return right.mask(match_counts > 0)
    if kind == "anti":
        return right.mask(match_counts == 0)
    if kind != "inner":
        raise PlanError(f"unknown join kind {kind!r}")

    emitted = int(match_counts.sum())
    right_idx = np.repeat(np.arange(right.n_rows), match_counts)
    offsets = np.repeat(hi - np.cumsum(match_counts), match_counts)
    left_idx = order[np.arange(emitted) + offsets]
    columns: dict[str, np.ndarray] = {key: right_keys[right_idx]}
    for name, column in left.columns.items():
        if name != key:
            if name in right.columns:
                raise PlanError(f"join sides share non-key column {name!r}")
            columns[name] = column[left_idx]
    for name, column in right.columns.items():
        if name != key:
            columns[name] = column[right_idx]
    return Frame(columns)


def aggregate_frame(
    frame: Frame,
    group_by: Sequence[str],
    aggregates: Sequence[AggregateSpec],
) -> Frame:
    """Grouped (or scalar, with no keys) aggregation of a frame."""
    if not group_by:
        outputs: dict[str, np.ndarray] = {}
        for agg in aggregates:
            outputs[agg.alias] = np.asarray([_scalar_agg(agg.func, agg.expr, frame)])
        return Frame(outputs)

    key_arrays = [np.asarray(frame.columns[k]) for k in group_by]
    order = np.lexsort(key_arrays[::-1])
    sorted_keys = [k[order] for k in key_arrays]
    if frame.n_rows == 0:
        empty = {k: sorted_keys[i][:0] for i, k in enumerate(group_by)}
        for agg in aggregates:
            empty[agg.alias] = np.zeros(0, dtype=np.int64)
        return Frame(empty)
    changed = np.zeros(frame.n_rows, dtype=bool)
    changed[0] = True
    for k in sorted_keys:
        changed[1:] |= k[1:] != k[:-1]
    bounds = np.flatnonzero(changed)

    outputs = {name: sorted_keys[i][bounds] for i, name in enumerate(group_by)}
    for agg in aggregates:
        values = _agg_input(agg.func, agg.expr, frame)[order]
        if agg.func in ("sum", "count"):
            outputs[agg.alias] = np.add.reduceat(values, bounds)
        elif agg.func == "min":
            outputs[agg.alias] = np.minimum.reduceat(values, bounds)
        else:
            outputs[agg.alias] = np.maximum.reduceat(values, bounds)
    return Frame(outputs)


def _agg_input(func: str, expr, frame: Frame) -> np.ndarray:
    if func == "count":
        return np.ones(frame.n_rows, dtype=np.int64)
    values = np.asarray(expr.evaluate(frame.columns))
    if values.ndim == 0:
        values = np.full(frame.n_rows, values)
    if values.dtype == bool:
        values = values.astype(np.int64)
    return values


def _scalar_agg(func: str, expr, frame: Frame) -> object:
    values = _agg_input(func, expr, frame)
    if len(values) == 0:
        return 0
    if func in ("sum", "count"):
        return values.sum()
    if func == "min":
        return values.min()
    return values.max()
