"""Logical relational algebra: the intermediate plan representation.

The paper's front end translates user queries into "an intermediate plan
representation, which can be illustrated as a DAG of operators", optimizes
it (projection push-downs, data-parallel transformation), and lowers it to
sub-operator plans (§3.4).  These classes are that intermediate layer; the
optimizer passes live in :mod:`repro.relational.optimizer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import PlanError
from repro.relational.expressions import Expression

__all__ = [
    "LogicalPlan",
    "ScanNode",
    "FilterNode",
    "ProjectNode",
    "JoinNode",
    "AggregateNode",
    "AggregateSpec",
    "SortNode",
    "LimitNode",
]

JOIN_KINDS = ("inner", "semi", "anti")
AGG_FUNCS = ("sum", "count", "min", "max")


@dataclass(frozen=True)
class AggregateSpec:
    """One output aggregate: ``func(expr) AS alias``.

    ``count`` ignores the expression (``COUNT(*)``); pass any expression.
    """

    func: str
    expr: Expression
    alias: str

    def __post_init__(self) -> None:
        if self.func not in AGG_FUNCS:
            raise PlanError(f"unknown aggregate {self.func!r}; have {AGG_FUNCS}")


class LogicalPlan:
    """Base class of logical nodes."""

    @property
    def children(self) -> tuple["LogicalPlan", ...]:
        return ()

    def describe(self) -> str:
        raise NotImplementedError

    def explain(self, depth: int = 0) -> str:
        lines = ["  " * depth + self.describe()]
        for child in self.children:
            lines.append(child.explain(depth + 1))
        return "\n".join(lines)


@dataclass(frozen=True)
class ScanNode(LogicalPlan):
    """Read a base table from the catalog."""

    table: str
    #: Columns to read; None means all (the optimizer prunes this).
    columns: tuple[str, ...] | None = None

    def describe(self) -> str:
        cols = "*" if self.columns is None else ", ".join(self.columns)
        return f"Scan {self.table} [{cols}]"


@dataclass(frozen=True)
class FilterNode(LogicalPlan):
    """Keep rows satisfying a boolean expression."""

    child: LogicalPlan
    predicate: Expression

    @property
    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Filter {self.predicate!r}"


@dataclass(frozen=True)
class ProjectNode(LogicalPlan):
    """Compute named output columns from expressions."""

    child: LogicalPlan
    #: alias -> expression, in output order.
    outputs: tuple[tuple[str, Expression], ...]

    @property
    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    @classmethod
    def of(cls, child: LogicalPlan, outputs: Mapping[str, Expression]) -> "ProjectNode":
        return cls(child, tuple(outputs.items()))

    def describe(self) -> str:
        names = ", ".join(alias for alias, _ in self.outputs)
        return f"Project [{names}]"


@dataclass(frozen=True)
class JoinNode(LogicalPlan):
    """Equi-join of two inputs on same-named key columns.

    ``semi``/``anti`` keep *right* rows with/without a left match, matching
    the BuildProbe convention (left side builds).
    """

    left: LogicalPlan
    right: LogicalPlan
    key: str
    kind: str = "inner"

    def __post_init__(self) -> None:
        if self.kind not in JOIN_KINDS:
            raise PlanError(f"unknown join kind {self.kind!r}; have {JOIN_KINDS}")

    @property
    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        return f"Join[{self.kind}] on {self.key}"


@dataclass(frozen=True)
class AggregateNode(LogicalPlan):
    """Grouped (or, with no keys, scalar) aggregation."""

    child: LogicalPlan
    group_by: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.aggregates:
            raise PlanError("aggregation needs at least one aggregate")

    @property
    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def describe(self) -> str:
        keys = ", ".join(self.group_by) or "<scalar>"
        aggs = ", ".join(f"{a.func}({a.expr!r}) as {a.alias}" for a in self.aggregates)
        return f"Aggregate by [{keys}]: {aggs}"


@dataclass(frozen=True)
class SortNode(LogicalPlan):
    """Order the result by columns (driver-side post-processing).

    ``descending`` is either one flag for all keys or one flag per key
    (e.g. TPC-H Q3 orders by ``revenue desc, o_orderdate asc``).
    """

    child: LogicalPlan
    keys: tuple[str, ...]
    descending: bool | tuple[bool, ...] = False

    def __post_init__(self) -> None:
        if not self.keys:
            raise PlanError("ORDER BY needs at least one column")
        if not isinstance(self.descending, bool) and len(self.descending) != len(
            self.keys
        ):
            raise PlanError("per-key sort directions must match the keys")

    def directions(self) -> tuple[bool, ...]:
        if isinstance(self.descending, bool):
            return (self.descending,) * len(self.keys)
        return self.descending

    def total_order(self, columns: tuple[str, ...]) -> tuple[tuple, tuple]:
        """The sort keys with their directions, then every other column of
        ``columns`` ascending: rows that tie on the keys come out in one
        order however they arrived, so ORDER BY … LIMIT keeps the same rows
        on every execution configuration."""
        rest = tuple(c for c in columns if c not in self.keys)
        return tuple(self.keys) + rest, tuple(self.directions()) + (False,) * len(rest)

    @property
    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def describe(self) -> str:
        parts = [
            f"{key} {'desc' if desc else 'asc'}"
            for key, desc in zip(self.keys, self.directions())
        ]
        return f"Sort [{', '.join(parts)}]"


@dataclass(frozen=True)
class LimitNode(LogicalPlan):
    """Keep the first N result rows (driver-side post-processing)."""

    child: LogicalPlan
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise PlanError(f"LIMIT must be non-negative, got {self.n}")

    @property
    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Limit {self.n}"
