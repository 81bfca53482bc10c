"""Cost-model execution engines standing in for Presto and MemSQL.

The paper's Figure 9 compares Modularis against two closed systems we
cannot run here.  Per the substitution rule, each is modeled as an
*execution-model class*: the engine computes the **real** query result
(through the reference interpreter, so correctness is checked against the
same ground truth as Modularis) while charging a simulated cost per logical
operator, with constants describing the engine's structure:

* how data is read (in-memory columns vs. replicated files on disk),
* per-row processing cost (compiled kernels vs. an interpreted engine),
* how joins shuffle data (planned RDMA-style exchange vs. serialized
  TCP exchange through a coordinator-managed stage boundary),
* fixed per-query overhead (coordinator round-trips, stage scheduling).

The constants are calibrated to the paper's testbed; the *shape* of
Figure 9 — who wins and by what factor on each query — emerges from which
term dominates, not from per-query tuning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PlanError
from repro.relational.interpreter import (
    Frame,
    aggregate_frame,
    join_frames,
    run_logical_plan,
    sort_frame,
)
from repro.relational.logical import (
    AggregateNode,
    FilterNode,
    JoinNode,
    LimitNode,
    LogicalPlan,
    ProjectNode,
    ScanNode,
    SortNode,
)
from repro.storage.catalog import Catalog

__all__ = ["EngineProfile", "EngineRun", "EngineModel"]


@dataclass(frozen=True)
class EngineProfile:
    """Structural cost constants of one engine class."""

    name: str
    #: Worker machines executing the query.
    n_workers: int = 8
    #: Seconds of fixed per-query overhead (coordination, scheduling).
    query_overhead: float = 0.0
    #: Extra fixed seconds per blocking stage boundary (exchanges).
    stage_overhead: float = 0.0
    #: Per-row cost of streaming operators (scan decode, filter, project).
    cpu_row: float = 2.0e-9
    #: Per-row cost of hash-table build / probe work.
    cpu_join_row: float = 4.0e-9
    #: Per-row cost of aggregation updates.
    cpu_agg_row: float = 4.0e-9
    #: Bytes/second each worker reads base-table data at.
    scan_bandwidth: float = 10.0e9
    #: Extra per-row decode cost when reading base tables (file formats).
    scan_row_decode: float = 0.0
    #: Bytes/second each worker moves through exchanges.
    exchange_bandwidth: float = 3.0e9
    #: Per-row (de)serialization cost at exchanges (0 for zero-copy RDMA).
    exchange_row_cost: float = 0.0
    #: Load-imbalance factor: the slowest worker's share vs. the average.
    skew: float = 1.08


@dataclass
class EngineRun:
    """Result and timing of one engine-model execution."""

    frame: Frame
    seconds: float
    breakdown: dict[str, float]


def _frame_row_bytes(frame: Frame) -> int:
    """Stored row width: numbers at native width, strings dictionary-ish.

    numpy unicode columns occupy 4 bytes per character in memory, but every
    engine modeled here stores short categorical strings encoded (ORC/
    columnstore dictionaries); 16 bytes per string column is a generous
    stand-in that matches the STRING atom's network width order.
    """
    total = 0
    for column in frame.columns.values():
        if column.dtype.kind == "U":
            total += 16
        elif column.dtype == object:
            total += 8
        else:
            total += column.dtype.itemsize
    return max(total, 8)


class EngineModel:
    """Executes logical plans while charging an :class:`EngineProfile`."""

    def __init__(self, profile: EngineProfile) -> None:
        self.profile = profile

    def run_query(self, plan: LogicalPlan, catalog: Catalog) -> EngineRun:
        """Compute the real result and the modeled execution time."""
        breakdown: dict[str, float] = {"fixed": self.profile.query_overhead}
        frame = self._execute(plan, catalog, breakdown)
        return EngineRun(frame, sum(breakdown.values()), breakdown)

    # -- node execution -------------------------------------------------------

    def _charge(self, breakdown: dict[str, float], phase: str, seconds: float) -> None:
        breakdown[phase] = breakdown.get(phase, 0.0) + seconds * self.profile.skew

    def _per_worker(self, rows: int) -> float:
        return rows / self.profile.n_workers

    def _execute(
        self, plan: LogicalPlan, catalog: Catalog, breakdown: dict[str, float]
    ) -> Frame:
        profile = self.profile
        if isinstance(plan, ScanNode):
            frame = run_logical_plan(plan, catalog)
            rows = self._per_worker(frame.n_rows)
            row_bytes = _frame_row_bytes(frame)
            self._charge(
                breakdown,
                "scan",
                rows * (profile.cpu_row + profile.scan_row_decode)
                + rows * row_bytes / profile.scan_bandwidth,
            )
            return frame

        if isinstance(plan, FilterNode):
            child = self._execute(plan.child, catalog, breakdown)
            self._charge(
                breakdown, "filter", self._per_worker(child.n_rows) * profile.cpu_row
            )
            keep = np.asarray(plan.predicate.evaluate(child.columns), dtype=bool)
            return child.mask(keep)

        if isinstance(plan, ProjectNode):
            child = self._execute(plan.child, catalog, breakdown)
            self._charge(
                breakdown, "project", self._per_worker(child.n_rows) * profile.cpu_row
            )
            return Frame(
                {
                    alias: np.asarray(expr.evaluate(child.columns))
                    for alias, expr in plan.outputs
                }
            )

        if isinstance(plan, JoinNode):
            left = self._execute(plan.left, catalog, breakdown)
            right = self._execute(plan.right, catalog, breakdown)
            for side in (left, right):
                rows = self._per_worker(side.n_rows)
                bytes_per_row = _frame_row_bytes(side)
                self._charge(
                    breakdown,
                    "exchange",
                    profile.stage_overhead
                    + rows * profile.exchange_row_cost
                    + rows * bytes_per_row / profile.exchange_bandwidth,
                )
            joined = join_frames(left, right, plan.key, plan.kind)
            self._charge(
                breakdown,
                "join",
                self._per_worker(left.n_rows) * profile.cpu_join_row
                + self._per_worker(right.n_rows + joined.n_rows)
                * profile.cpu_join_row,
            )
            return joined

        if isinstance(plan, AggregateNode):
            child = self._execute(plan.child, catalog, breakdown)
            self._charge(
                breakdown,
                "aggregate",
                self._per_worker(child.n_rows) * profile.cpu_agg_row
                + profile.stage_overhead,
            )
            return aggregate_frame(child, plan.group_by, plan.aggregates)

        if isinstance(plan, SortNode):
            child = self._execute(plan.child, catalog, breakdown)
            # Final ordering of an aggregate result is coordinator work
            # over a small frame; charge it at the aggregation rate.
            self._charge(breakdown, "finalize", child.n_rows * profile.cpu_agg_row)
            return sort_frame(child, plan)

        if isinstance(plan, LimitNode):
            child = self._execute(plan.child, catalog, breakdown)
            self._charge(breakdown, "finalize", child.n_rows * profile.cpu_agg_row)
            return Frame({k: v[: plan.n] for k, v in child.columns.items()})

        raise PlanError(f"unknown logical node {type(plan).__name__}")
