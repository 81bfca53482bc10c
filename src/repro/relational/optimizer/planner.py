"""Lower logical plans to distributed Modularis sub-operator plans.

This is the paper's "very simplistic query optimizer" (§4.4): it handles
queries following the TPC-H pattern — *a single join on two tables that
were previously filtered, then a projection and post-aggregation of the
join results* — and produces the same plan shape as Figure 3, with the
query's post-processing spliced in at the innermost nesting level and
post-aggregations at every level on the way out (§4.4, "exactly as in the
case of the distributed GROUP BY").

Lowering steps:

1. run the rewrite rules (filter pushdown, projection pruning);
2. pattern-match the plan into two *sides* (scan → filter → payload
   projection), a join kind, an optional residual post-join filter, and an
   aggregation (grouped or scalar) with an optional final projection;
3. emit the physical plan: per rank, each side runs
   ``RowScan → Filter → Map → LocalHistogram → MpiHistogram → MpiExchange``
   (hash partitioning — TPC-H keys are not dense, so no radix compression),
   the sides are zipped and joined through the nested-map levels — the
   local partitioning level only when the build side's catalog bound
   exceeds the cache budget (:func:`_choose_fanouts`) — and
   ``ReduceByKey``/``Reduce`` post-aggregations run at every level plus a
   final one on the driver.  The ladders and levels themselves are
   :mod:`repro.core.plans.fragments` (``partitioned_join``, ``replicate``);
   this module decides what to pass them.

Strings are codes until the result frame: a lowered query binds each
string column as int32 codes into one sorted dictionary
(:class:`_Dictionary`) and decodes only in
:meth:`ModularisQuery.result_frame`.  An int64 column a side only
compares is bound at its narrowest integer width (:data:`NARROW_COMPARED`).
"""

from __future__ import annotations

import copy
import functools
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.executor import ExecutionReport, execution_steps
from repro.core.options import RunOptions
from repro.core.functions import (
    HashPartition,
    Predicate,
    ReduceFunction,
    TupleFunction,
)
from repro.core.operator import Operator
from repro.core.operators import (
    BuildProbe,
    Filter,
    Limit,
    LocalSort,
    Map,
    MaterializeRowVector,
    MpiExecutor,
    ParameterSlot,
    Reduce,
    ReduceByKey,
)
from repro.core.plans.fragments import (
    cache_fanout,
    collect,
    exchange,
    partitioned_join,
    replicate,
    sharded_scan,
)
from repro.errors import PlanError
from repro.mpi.cluster import SimCluster
from repro.relational.expressions import Column, Expression, Literal, col, infer_atom_type, lit
from repro.relational.interpreter import Frame
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
from repro.relational.optimizer.rules import optimize
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.types.atoms import AtomType, string_codes
from repro.types.collections import RowVector, row_vector_type
from repro.types.tuples import Field, TupleType

__all__ = ["ModularisQuery", "lower_to_modularis"]


# -- pattern extraction --------------------------------------------------------


@dataclass(frozen=True)
class _Side:
    """One join input: a filtered, projected base-table scan."""

    table: str
    columns: tuple[str, ...]
    predicate: Expression | None
    outputs: tuple[tuple[str, Expression], ...]  # includes the join key


@dataclass(frozen=True)
class _Stage:
    """One additional join applied to the running intermediate result."""

    side: _Side
    key: str
    kind: str


@dataclass(frozen=True)
class _Shape:
    """The query patterns the simplistic optimizer supports: a single join
    of two filtered tables (the paper's TPC-H pattern) or a single-table
    scan-filter-aggregate (the Q1-style extension)."""

    left: _Side
    #: None for single-table aggregation queries (no join).
    right: _Side | None
    key: str
    join_kind: str
    post_filter: Expression | None
    group_by: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]
    final_outputs: tuple[tuple[str, Expression], ...] | None
    #: Driver-side ORDER BY / LIMIT post-processing (§3.4).
    order_by: SortNode | None = None
    limit: int | None = None
    #: Left-deep joins beyond the first (extension; the paper's optimizer
    #: handles only the single-join TPC-H pattern).
    extra_stages: tuple[_Stage, ...] = ()


def _extract_side(
    plan: LogicalPlan, catalog: Catalog, key: str | None = None
) -> _Side:
    """A scan → filter* → project? chain: a join input producing ``key``, or
    (``key=None``) the one table of a single-table aggregation."""
    outputs: tuple[tuple[str, Expression], ...] | None = None
    if isinstance(plan, ProjectNode):
        outputs = plan.outputs
        plan = plan.child
    predicate = None
    while isinstance(plan, FilterNode):
        predicate = (
            plan.predicate if predicate is None else plan.predicate & predicate
        )
        plan = plan.child
    if not isinstance(plan, ScanNode):
        what = "each join side" if key else "a single-table aggregation's input"
        raise PlanError(
            f"the simplistic optimizer needs {what} to be "
            f"scan → filter* → project?, found {type(plan).__name__}"
        )
    columns = plan.columns or catalog.get(plan.table).schema.field_names
    if outputs is None:
        outputs = tuple((c, col(c)) for c in columns)
    if key and key not in [alias for alias, _ in outputs]:
        raise PlanError(f"join side over {plan.table!r} does not produce key {key!r}")
    return _Side(plan.table, tuple(columns), predicate, outputs)


def _extract_shape(plan: LogicalPlan, catalog: Catalog) -> _Shape:
    limit = None
    order_by = None
    if isinstance(plan, LimitNode):
        limit = plan.n
        plan = plan.child
    if isinstance(plan, SortNode):
        order_by = plan
        plan = plan.child
    final_outputs = None
    if isinstance(plan, ProjectNode):
        final_outputs = plan.outputs
        plan = plan.child
    if not isinstance(plan, AggregateNode):
        raise PlanError(
            "the simplistic optimizer expects an aggregation on top of the "
            f"join (the TPC-H pattern of §4.4); found {type(plan).__name__}"
        )
    aggregate = plan
    plan = plan.child
    post_filter = None
    while isinstance(plan, FilterNode):
        post_filter = (
            plan.predicate if post_filter is None else plan.predicate & post_filter
        )
        plan = plan.child
    # Left-deep multi-join chains: peel enclosing joins whose left child is
    # itself a join; each peeled join becomes a stage over the intermediate.
    extra_stages: list[_Stage] = []
    while isinstance(plan, JoinNode) and isinstance(plan.left, JoinNode):
        extra_stages.append(
            _Stage(
                side=_extract_side(plan.right, catalog, plan.key),
                key=plan.key,
                kind=plan.kind,
            )
        )
        plan = plan.left
    extra_stages.reverse()

    if not isinstance(plan, JoinNode):
        # No join: accept a plain side (scan → filter* → project?) — the
        # single-table aggregation pattern (e.g. TPC-H Q1).
        side = _extract_side(plan, catalog)
        return _Shape(
            left=side,
            right=None,
            key="",
            join_kind="none",
            post_filter=post_filter,
            group_by=aggregate.group_by,
            aggregates=aggregate.aggregates,
            final_outputs=final_outputs,
            order_by=order_by,
            limit=limit,
        )
    return _Shape(
        left=_extract_side(plan.left, catalog, plan.key),
        right=_extract_side(plan.right, catalog, plan.key),
        key=plan.key,
        join_kind=plan.kind,
        post_filter=post_filter,
        group_by=aggregate.group_by,
        aggregates=aggregate.aggregates,
        final_outputs=final_outputs,
        order_by=order_by,
        limit=limit,
        extra_stages=tuple(extra_stages),
    )


def _sides(shape: _Shape) -> list[_Side]:
    """The base-table inputs in slot order: left, right, then each stage."""
    if shape.right is None:
        return [shape.left]
    return [shape.left, shape.right, *(stage.side for stage in shape.extra_stages)]


def _expressions(shape: _Shape):
    """Every expression the shape evaluates, and each of their sub-expressions."""
    roots = [shape.post_filter, *(agg.expr for agg in shape.aggregates)]
    roots += [expr for _alias, expr in shape.final_outputs or ()]
    for side in _sides(shape):
        roots += [side.predicate, *(expr for _alias, expr in side.outputs)]
    return _walk(roots)


def _walk(roots):
    """``roots`` and each of their sub-expressions."""
    stack = [root for root in roots if root is not None]
    while stack:
        expr = stack.pop()
        yield expr
        stack += [c for c in vars(expr).values() if isinstance(c, Expression)]


# -- strings ----------------------------------------------------------------------


def _is_string(atom: object) -> bool:
    return isinstance(atom, AtomType) and atom.name == "STRING"


class _Dictionary:
    """The lowered query's one sorted string dictionary.

    Inside the engine a STRING value is an int32 code into ``values``, the
    sorted union of the dictionaries of the string columns the query binds
    and the string literals it names.  Codes order as their strings do and
    every input shares them, so joins, group keys, ORDER BY, MIN/MAX and
    column-to-column comparisons are exact on codes; a sub-expression over
    a single string column is evaluated once, over ``values``, and then
    read by code (:meth:`lower`, :class:`_ByCode`).
    """

    def __init__(self, shape: _Shape, catalog: Catalog) -> None:
        tables = [(catalog.get(side.table), side) for side in _sides(shape)]
        parts = [t.dictionaries[c][0] for t, side in tables for c in side.columns
                 if c in t.dictionaries]
        parts += [np.array([e.value]) for e in _expressions(shape)
                  if isinstance(e, Literal) and isinstance(e.value, str)]
        self.values = np.unique(np.concatenate(parts)) if parts else np.empty(0, "U1")

    def encode(self, table: Table, column: str) -> np.ndarray:
        """``column``'s codes into this dictionary (a remap of the table's)."""
        values, codes = table.dictionaries[column]
        if not np.isin(values, self.values).all():
            raise PlanError(f"{table.name}.{column} changed since this query was lowered")
        if len(values) == len(self.values):
            return codes
        return np.searchsorted(self.values, values).astype(np.int32)[codes]

    def lower(self, expr: Expression, schema: TupleType) -> Expression:
        """``expr`` over codes: each largest sub-expression that reads one
        string column and nothing else becomes a table indexed by code,
        computed by the expression itself over the dictionary (cut to the
        column's width, so it sees the values the column holds)."""
        names = expr.references()
        if len(names) == 1 and not isinstance(expr, Column):
            (name,) = names
            atom = schema[name] if name in schema else None
            if _is_string(atom):
                over = self.values.astype(f"U{atom.width}")
                table = np.asarray(expr.evaluate({name: over}))
                return _ByCode(name, np.broadcast_to(table, over.shape))
        lowered = copy.copy(expr)
        for attr, child in vars(expr).items():
            if isinstance(child, Expression):
                setattr(lowered, attr, self.lower(child, schema))
        return lowered

    def output(self, expr: Expression, schema: TupleType) -> tuple[Expression, object]:
        """A Map output over codes and its atom: a string literal is its code."""
        if isinstance(expr, Literal) and isinstance(expr.value, str):
            code = int(np.searchsorted(self.values, expr.value))
            return Literal(code), string_codes(max(1, len(expr.value)))
        return self.lower(expr, schema), infer_atom_type(expr, schema)


#: Most runs of true codes ``_ByCode`` compares rather than gathers.  Per
#: 300k int32 codes (one pinned CPU, numpy 2.4.6): the gather
#: ``table[codes]`` 1.08 ms; ``==`` 0.05 ms, a range ``(codes >= lo) &
#: (codes < hi)`` 0.16 ms, each ``|`` about 0.05 ms.  The break-even is near
#: six ranges; four cost 0.70 ms, two thirds of the gather.
_MAX_RUNS = 4


class _ByCode(Expression):
    """A sub-expression over one string column, tabulated by code.

    The dictionary is sorted, so a truth table (bool, or an integer one of
    0s and 1s) is true on few runs of codes — one for a range or a prefix,
    one per literal at most for ``isin`` — and up to :data:`_MAX_RUNS` of
    them are compared, not looked up.  Either path is elementwise the
    lookup, so the two are bit-identical.
    """

    def __init__(self, name: str, table: np.ndarray) -> None:
        self.name = name
        self.table = table
        self.runs = None
        if table.dtype.kind in "biu" and np.isin(table, (0, 1)).all():
            edges = np.flatnonzero(np.diff(table.astype(np.int8), prepend=0, append=0))
            if len(edges) <= 2 * _MAX_RUNS:
                self.runs = [(int(lo), int(hi)) for lo, hi in zip(edges[::2], edges[1::2])]

    def evaluate(self, columns):
        codes = columns[self.name]
        if self.runs is None:
            return self.table[codes]
        runs = [codes == lo if hi - lo == 1 else (codes >= lo) & (codes < hi)
                for lo, hi in self.runs]
        hit = functools.reduce(np.logical_or, runs) if runs else np.zeros(codes.shape, bool)
        return hit if self.table.dtype == bool else hit.astype(self.table.dtype)

    def references(self) -> set[str]:
        return {self.name}


# -- integers ---------------------------------------------------------------------

#: Bind an int64 column that its side only compares as int16 or int32,
#: whichever is narrowest and holds its ``[min, max]``.  Q12's date
#: conjunction over 300k rows takes 0.98 ms on int64, 0.53 ms on int32 and
#: 0.17 ms on int16 (one pinned CPU, numpy 2.4.6).  Off, every integer
#: column is bound as stored; the rows and simulated figures are the same.
NARROW_COMPARED = True


def _compared_only(side: _Side) -> set[str]:
    """The columns every occurrence of which is a direct operand of a
    comparison in the side's predicate, and which no side output reads."""
    compared = set()
    other = {name for _alias, expr in side.outputs for name in expr.references()}
    for expr in _walk([side.predicate]):
        names = {c.name for c in vars(expr).values() if isinstance(c, Column)}
        is_comparison = getattr(expr, "op", None) in ("<", "<=", ">", ">=", "==", "!=")
        (compared if is_comparison else other).update(names)
    return compared - other


def _narrowest(column: np.ndarray) -> np.dtype:
    """The narrower of int16/int32 holding a non-empty int64 ``column``, else its dtype."""
    if column.dtype == np.int64 and len(column):
        lo, hi = column.min(), column.max()
        for dtype in map(np.dtype, ("int16", "int32")):
            if np.iinfo(dtype).min <= lo and hi <= np.iinfo(dtype).max:
                return dtype
    return column.dtype


# -- expression lowering ----------------------------------------------------------


def _expr_tuple_fn(
    outputs: tuple[tuple[str, Expression], ...],
    input_type: TupleType,
    strings: _Dictionary,
) -> TupleFunction:
    """Compile named expressions into a vectorizable Map UDF."""
    names = input_type.field_names
    lowered = [strings.output(expr, input_type) for _alias, expr in outputs]
    exprs = [expr for expr, _atom in lowered]
    out_type = TupleType(
        Field(alias, atom) for (alias, _expr), (_, atom) in zip(outputs, lowered)
    )
    dtypes = [f.item_type.numpy_dtype for f in out_type]

    def vectorized(columns: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
        env = dict(zip(names, columns))
        n = len(columns[0]) if columns else 0
        return tuple(
            _broadcast(np.asarray(e.evaluate(env)), n, dt)
            for e, dt in zip(exprs, dtypes)
        )

    return TupleFunction(None, out_type, vectorized)


def _broadcast(values: np.ndarray, n: int, dtype: str) -> np.ndarray:
    if values.ndim == 0:
        values = np.full(n, values)
    return values.astype(dtype, copy=False)


def _expr_predicate(
    expr: Expression, input_type: TupleType, strings: _Dictionary
) -> Predicate:
    names = input_type.field_names
    expr = strings.lower(expr, input_type)

    def vectorized(columns: tuple[np.ndarray, ...]) -> np.ndarray:
        return np.asarray(expr.evaluate(dict(zip(names, columns))), dtype=bool)

    return Predicate(None, vectorized)


def _agg_reduce_fn(aggregates: tuple[AggregateSpec, ...]) -> ReduceFunction:
    """Combiner merging partial aggregates position-wise."""
    funcs = tuple(a.func for a in aggregates)

    def combine(acc: tuple, row: tuple) -> tuple:
        out = []
        for func, a, b in zip(funcs, acc, row):
            if func in ("sum", "count"):
                out.append(_wrap_int64(a + b))
            elif func == "min":
                out.append(min(a, b))
            else:
                out.append(max(a, b))
        return tuple(out)

    sum_fields = None
    if all(f in ("sum", "count") for f in funcs):
        sum_fields = tuple(a.alias for a in aggregates)
    return ReduceFunction(combine, vectorized_sum_fields=sum_fields)


def _wrap_int64(total: object) -> object:
    """An integer sum wrapped as numpy's int64 sum wraps it (the fused kernel)."""
    if isinstance(total, int):
        return (total + (1 << 63)) % (1 << 64) - (1 << 63)
    return total


def _agg_input_outputs(shape: _Shape) -> tuple[tuple[str, Expression], ...]:
    """The Map outputs feeding the partial aggregation: keys then inputs."""
    outputs: list[tuple[str, Expression]] = [(k, col(k)) for k in shape.group_by]
    for agg in shape.aggregates:
        expr = lit(1) if agg.func == "count" else agg.expr
        outputs.append((agg.alias, expr))
    return tuple(outputs)


# -- the lowered plan ---------------------------------------------------------------


@dataclass
class ModularisQuery:
    """A logical query lowered to a distributed Modularis plan."""

    root: Operator
    slot: ParameterSlot
    executor: MpiExecutor
    cluster: SimCluster
    shape: _Shape
    output_columns: tuple[str, ...]
    #: The dictionary every STRING value is a code into, from ``bind``
    #: until :meth:`result_frame`.
    strings: _Dictionary
    #: Join strategy the lowering chose: "exchange" or "broadcast".
    strategy: str = "exchange"
    #: Local (second-level) partitioning fan-out the lowering used — the
    #: largest over the stages of a multi-join; 1 means no local
    #: partitioning level was planned.
    local_fanout: int = 1
    #: Strategy the optimizer *wanted* before a fault policy degraded it
    #: (e.g. ``"broadcast"`` refused under injected memory pressure).
    degraded_from: str | None = None
    #: The last ``bind``: the scanned ``Table`` objects and their relations.
    _bound: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def bind(self, catalog: Catalog) -> tuple[RowVector, ...]:
        """Extract and prune this query's input relations from ``catalog``.

        ``run`` and ``execution`` both go through here.  Tables are
        immutable, so when the catalog holds the same ``Table`` objects as
        at the last call, the relations bound then are returned again.
        """
        tables = tuple(catalog.get(side.table) for side in _sides(self.shape))
        if self._bound is not None:
            scanned, bound = self._bound
            if all(map(operator.is_, scanned, tables)):
                return bound
        schemas = [f.item_type.element_type for f in self.slot.param_type]
        bound = tuple(
            RowVector(schema, [self._column(table, f) for f in schema])
            for table, schema in zip(tables, schemas)
        )
        self._bound = (tables, bound)
        return bound

    def _column(self, table: Table, field: Field) -> np.ndarray:
        """``table``'s column as the lowering declared it: a string column
        as codes, a compared-only one at the integer width chosen then."""
        if field.name in table.dictionaries:
            return self.strings.encode(table, field.name)
        column = table.data.column(field.name)
        dtype = np.dtype(field.item_type.numpy_dtype)
        if dtype.itemsize >= column.dtype.itemsize:
            return column
        if len(column) and _narrowest(column).itemsize > dtype.itemsize:
            raise PlanError(f"{table.name}.{field.name} changed since this query was lowered")
        return column.astype(dtype)

    def execution(
        self, catalog: Catalog, options: RunOptions | None = None, ctx=None
    ):
        """Stepwise execution: a generator yielding per driver morsel.

        The planner-level twin of
        :func:`repro.core.executor.execution_steps` — same contract (each
        ``next()`` advances one morsel; ``StopIteration.value`` is the
        :class:`ExecutionReport`), plus this query's planning-time
        evidence (the broadcast-fallback recovery action, appended to the
        run's record before the first morsel).  The serving scheduler
        interleaves many of these on one cluster.

        Args:
            ctx: Pre-built driver context to run under (the serving layer
                passes one so it can watch the query's simulated clock
                for deadline enforcement and charge retry backoff to it);
                ``None`` builds a fresh context from ``options``.
        """
        from repro.core.context import ExecutionContext

        if ctx is None:
            ctx = ExecutionContext.from_options(options or RunOptions())
        if self.degraded_from is not None:
            # The broadcast-fallback decision happened at planning time:
            # it opens the run's record, at simulated time zero.
            ctx.record.recovery("broadcast_fallback", 0.0, 0.0, stage=self.strategy)
        return (
            yield from execution_steps(
                self.root, {self.slot: self.bind(catalog)}, options, ctx=ctx
            )
        )

    def run(
        self,
        catalog: Catalog,
        options: RunOptions | None = None,
    ) -> ExecutionReport:
        """Execute against the catalog's current table contents.

        ``options`` configures the run (see
        :class:`~repro.core.options.RunOptions`): with ``profile=True``
        the report carries a
        :class:`~repro.observability.profile.PlanProfile`; with
        ``metrics=True`` a
        :class:`~repro.observability.metrics.MetricsSnapshot`;
        ``faults`` arms fault injection for the execution (the
        memory-pressure *planning* degradation happens earlier, in
        :func:`lower_to_modularis`); ``join_kernel`` pins the fused
        ``BuildProbe`` kernel for kernel-equivalence sweeps and
        benchmarks.
        """
        steps = self.execution(catalog, options)
        while True:
            try:
                next(steps)
            except StopIteration as done:
                return done.value

    def result_frame(self, result: ExecutionReport) -> Frame:
        """The final output as a columnar frame.

        A scalar aggregation over zero qualifying rows yields one all-zero
        row, matching the reference interpreter (and SUM-as-0 SQL engines),
        unless a LIMIT 0 drops it.
        """
        (row,) = result.rows
        vector: RowVector = row[0]
        if not self.shape.group_by and len(vector) == 0 and self.shape.limit != 0:
            return Frame(
                {
                    field.name: np.zeros(1, dtype="U1" if _is_string(field.item_type)
                                         else field.item_type.numpy_dtype)
                    for field in vector.element_type
                }
            )
        return Frame(
            {
                field.name: self.strings.values[vector.column(field.name)]
                if _is_string(field.item_type) else vector.column(field.name)
                for field in vector.element_type
            }
        )


JOIN_STRATEGIES = ("auto", "exchange", "broadcast")


def _choose_strategy(
    strategy: str, shape: _Shape, catalog: Catalog, n_ranks: int
) -> str:
    """Pick exchange vs broadcast for the join (the stats-based rule).

    Broadcasting replicates the build side to every rank
    (``|L| · (n−1)`` tuples on the wire) but leaves the probe side in
    place; the exchange moves both sides once (``|L| + |R|`` tuples).
    Using base-table row counts from the catalog (filter selectivities are
    not estimated — the paper's optimizer is deliberately simplistic),
    broadcast wins when ``|L| · n < |L| + |R|``.
    """
    if shape.right is None:
        return "scan"
    if shape.extra_stages:
        if strategy == "broadcast":
            raise PlanError(
                "broadcast strategy is not supported for multi-join chains"
            )
        same_key = all(stage.key == shape.key for stage in shape.extra_stages)
        all_inner = shape.join_kind == "inner" and all(
            stage.kind == "inner" for stage in shape.extra_stages
        )
        if same_key and all_inner:
            # The paper's §4.2 optimization as an optimizer rule: joins on
            # one shared attribute pre-partition every relation once and
            # chain BuildProbes, instead of re-shuffling intermediates.
            return "cascade"
        return "multistage"
    if strategy != "auto":
        return strategy
    left_rows = catalog.get(shape.left.table).stats.row_count
    right_rows = catalog.get(shape.right.table).stats.row_count
    if left_rows * n_ranks < left_rows + right_rows:
        return "broadcast"
    return "exchange"


def _choose_fanouts(
    local_fanout: int | None,
    strategy: str,
    shape: _Shape,
    catalog: Catalog,
    n_net: int,
    budget: int,
) -> tuple[int, ...]:
    """Local partitioning fan-out per join stage (the cache-fit rule).

    The Barthels join partitions locally until the build side of each
    sub-partition is cache-resident, so the fan-out is the smallest power
    of two ``f`` with ``build_bytes / f <= budget`` (:func:`cache_fanout`,
    which the bulk builders share).  ``build_bytes`` is
    the build table's catalog row count times its pruned row width, over
    the network fan-out — an upper bound, since (as in
    :func:`_choose_strategy`) filter selectivities are not estimated, so
    the rule errs toward more partitions.  An intermediate build side
    (``multistage``) is bounded by the largest base relation joined so
    far; ``cascade`` builds on every relation but the first.  The choice
    affects cache fit only, never results.
    """
    sides = (shape.left, shape.right, *(st.side for st in shape.extra_stages))
    if strategy in ("exchange", "multistage"):
        # Stage i builds on everything joined before it (just the left
        # table for a single exchange join).
        builds = [sides[: i + 1] for i in range(len(sides) - 1)]
    elif strategy == "cascade":
        builds = [sides[1:]]
    else:
        return (1,)  # scan / broadcast plan no local partitioning level
    if local_fanout is not None:
        return (local_fanout,) * len(builds)

    def sized(sides: tuple[_Side, ...]) -> int:
        bound = max(
            (table := catalog.get(side.table)).stats.row_count
            * table.schema.project(side.columns).row_size_bytes()
            for side in sides
        ) // n_net
        return cache_fanout(bound, budget)

    return tuple(sized(sides) for sides in builds)


def lower_to_modularis(
    plan: LogicalPlan,
    catalog: Catalog,
    cluster: SimCluster,
    local_fanout: int | None = None,
    network_fanout: int | None = None,
    join_strategy: str = "exchange",
    options: RunOptions | None = None,
) -> ModularisQuery:
    """Optimize and lower a logical plan onto a simulated cluster.

    Args:
        local_fanout: ``None`` (the default) sizes the local partitioning
            level from catalog statistics and the cluster's cache budget
            (:func:`_choose_fanouts`), planning no such level when the
            build side already fits; an integer pins the fan-out (tests
            and ablations).
        join_strategy: ``exchange`` (the Figure 3 repartition join — the
            paper's plan and the default), ``broadcast`` (replicate the
            build side via MpiBroadcast — an extension this library adds),
            or ``auto`` to let the stats rule decide.
        options: :class:`~repro.core.options.RunOptions` known at planning
            time.  Under its fault policy's ``memory_pressure`` flag the
            lowering refuses the broadcast-join strategy — replicating the
            build side is exactly what a memory-pressured build rank
            cannot afford — and degrades to the shuffle (exchange) join
            plan, recording the original choice on
            ``ModularisQuery.degraded_from``.
    """
    if join_strategy not in JOIN_STRATEGIES:
        raise PlanError(
            f"unknown join strategy {join_strategy!r}; have {JOIN_STRATEGIES}"
        )
    if local_fanout is not None and local_fanout < 1:
        raise PlanError(f"local_fanout must be at least 1, got {local_fanout}")
    if network_fanout is not None and network_fanout < 1:
        raise PlanError(f"network_fanout must be at least 1, got {network_fanout}")
    faults = options.faults if options is not None else None
    optimized = optimize(plan, catalog)
    shape = _extract_shape(optimized, catalog)
    n_net = cluster.n_ranks if network_fanout is None else network_fanout
    strategy = _choose_strategy(join_strategy, shape, catalog, cluster.n_ranks)
    degraded_from = None
    if (
        faults is not None
        and getattr(faults, "memory_pressure", False)
        and strategy == "broadcast"
    ):
        degraded_from, strategy = "broadcast", "exchange"
    fanouts = _choose_fanouts(
        local_fanout, strategy, shape, catalog, n_net,
        cluster.cost_model.cache_budget_bytes,
    )
    strings = _Dictionary(shape, catalog)

    left_schema = _pruned_schema(catalog, shape.left)
    if shape.right is None:
        slot = ParameterSlot(TupleType.of(left=row_vector_type(left_schema)))
        right_schema = None
        stage_schemas = []
    else:
        right_schema = _pruned_schema(catalog, shape.right)
        stage_schemas = [
            _pruned_schema(catalog, stage.side) for stage in shape.extra_stages
        ]
        slot_fields = {
            "left": row_vector_type(left_schema),
            "right": row_vector_type(right_schema),
        }
        for i, schema in enumerate(stage_schemas):
            slot_fields[f"stage{i}"] = row_vector_type(schema)
        slot = ParameterSlot(TupleType.of(**slot_fields))

    def side_stream(worker_slot: ParameterSlot, side: _Side, schema, param: str) -> Operator:
        stream: Operator = sharded_scan(worker_slot, param)
        if side.predicate is not None:
            stream = Filter(stream, _expr_predicate(side.predicate, schema, strings))
        return Map(stream, _expr_tuple_fn(side.outputs, schema, strings))

    def post_join(stream: Operator) -> Operator:
        return _post_join(stream, shape, strings)

    def merge(stream: Operator) -> Operator:
        return _merge_partials(stream, shape)

    def exchange_join(streams, suffixes, key, local_fanout, join, merge, out_field):
        """:func:`partitioned_join` with the lowering's choices: uncorrelated
        hash functions at the two levels, a local level only above fan-out 1."""
        return partitioned_join(
            streams, suffixes,
            lambda stream, id_field, data_field: exchange(
                stream, HashPartition(key, n_net, salt=0), id_field, data_field
            ),
            None if local_fanout == 1
            else lambda: HashPartition(key, local_fanout, salt=1),
            join, merge, out_field,
        )

    def build_worker_exchange(worker_slot: ParameterSlot) -> Operator:
        flat = exchange_join(
            [
                side_stream(worker_slot, shape.left, left_schema, "left"),
                side_stream(worker_slot, shape.right, right_schema, "right"),
            ],
            ("_l", "_r"), shape.key, fanouts[0],
            lambda scans: post_join(
                BuildProbe(*scans, keys=shape.key, join_type=shape.join_kind)
            ),
            merge, "agg",
        )
        return MaterializeRowVector(merge(flat), field="result")

    def build_worker_broadcast(worker_slot: ParameterSlot) -> Operator:
        build = side_stream(worker_slot, shape.left, left_schema, "left")
        replicated = replicate(build, shape.key)
        probe = side_stream(worker_slot, shape.right, right_schema, "right")
        stream = post_join(
            BuildProbe(replicated, probe, keys=shape.key, join_type=shape.join_kind)
        )
        merged = _merge_partials(stream, shape)
        return MaterializeRowVector(merged, field="result")

    def build_worker_single(worker_slot: ParameterSlot) -> Operator:
        stream = side_stream(worker_slot, shape.left, left_schema, "left")
        merged = _merge_partials(post_join(stream), shape)
        return MaterializeRowVector(merged, field="result")

    def build_worker_cascade(worker_slot: ParameterSlot) -> Operator:
        """Same-key join chain: the Figure 4 'optimized' plan shape.

        All N+1 relations are network-partitioned up front on the shared
        key; per partition, the sides are joined by a chain of BuildProbes
        whose intermediates never materialize or re-shuffle.
        """
        sides = [
            ("left", shape.left, left_schema),
            ("right", shape.right, right_schema),
        ] + [
            (f"stage{i}", stage.side, stage_schemas[i])
            for i, stage in enumerate(shape.extra_stages)
        ]

        def chain(scans: list[Operator]) -> Operator:
            acc = scans[0]
            for side_scan in scans[1:]:
                acc = BuildProbe(side_scan, acc, keys=shape.key)
            return post_join(acc)

        flat = exchange_join(
            [side_stream(worker_slot, side, schema, p) for p, side, schema in sides],
            range(len(sides)), shape.key, fanouts[0], chain, merge, "agg",
        )
        return MaterializeRowVector(merge(flat), field="result")

    def build_worker_multistage(worker_slot: ParameterSlot) -> Operator:
        """One full exchange join per stage, each on its own key.

        From the second stage on the build input is the previous stage's
        output; it has two consumers (histogram and exchange), so the plan
        compiler materializes it: the intermediate-result materialization
        every re-shuffling join chain pays (§5.2.1).
        """
        stream = side_stream(worker_slot, shape.left, left_schema, "left")
        stages = [(shape.right, right_schema, "right", shape.key, shape.join_kind)] + [
            (stage.side, stage_schemas[i], f"stage{i}", stage.key, stage.kind)
            for i, stage in enumerate(shape.extra_stages)
        ]
        for fanout, (side, schema, param, key, kind) in zip(fanouts, stages):
            stream = exchange_join(
                [stream, side_stream(worker_slot, side, schema, param)],
                ("_l", "_r"), key, fanout,
                lambda scans, key=key, kind=kind: BuildProbe(
                    *scans, keys=key, join_type=kind
                ),
                lambda matches: matches, "matches",
            )
        return MaterializeRowVector(merge(post_join(stream)), field="result")

    if strategy == "scan":
        build_worker = build_worker_single
    elif strategy == "broadcast":
        build_worker = build_worker_broadcast
    elif strategy == "multistage":
        build_worker = build_worker_multistage
    elif strategy == "cascade":
        build_worker = build_worker_cascade
    else:
        build_worker = build_worker_exchange
    executor, flat = collect(slot, build_worker, cluster)
    final = _merge_partials(flat, shape)
    if shape.final_outputs is not None:
        final = Map(
            final, _expr_tuple_fn(shape.final_outputs, final.output_type, strings)
        )
    if shape.order_by is not None:
        keys, descending = shape.order_by.total_order(final.output_type.field_names)
        final = LocalSort(final, keys, descending=descending)
    if shape.limit is not None:
        final = Limit(final, shape.limit)
    root = MaterializeRowVector(final, field="result")
    if degraded_from is not None:
        # The memory-pressure fallback is a machine-made plan rewrite:
        # re-verify it here, before anything executes it, the same way the
        # degraded cluster re-shard is re-verified in stage recovery.
        from repro.analysis import verify

        verify(root, name=f"lowered plan (degraded from {degraded_from})")
    return ModularisQuery(
        root=root,
        slot=slot,
        executor=executor,
        cluster=cluster,
        shape=shape,
        output_columns=root.output_type["result"].element_type.field_names,
        strings=strings,
        strategy=strategy,
        local_fanout=max(fanouts),
        degraded_from=degraded_from,
    )


def _pruned_schema(catalog: Catalog, side: _Side) -> TupleType:
    """The side's columns as the engine binds them: a string column as
    codes, a compared-only int64 one at its narrowest width, modelled at
    its own 8 bytes (:data:`NARROW_COMPARED`)."""
    table = catalog.get(side.table)
    narrow = _compared_only(side) if NARROW_COMPARED else set()

    def atom(c: str) -> AtomType:
        column = table.data.column(c)
        if c in table.dictionaries:
            return string_codes(column.dtype.itemsize // 4)
        if c in narrow:
            return replace(table.schema[c], numpy_dtype=_narrowest(column).name)
        return table.schema[c]

    return TupleType(Field(c, atom(c)) for c in side.columns)


def _merge_partials(stream: Operator, shape: _Shape) -> Operator:
    """Post-aggregate partial results at a nesting boundary (§4.4)."""
    if shape.group_by:
        return ReduceByKey(stream, shape.group_by, _agg_reduce_fn(shape.aggregates))
    return Reduce(stream, _agg_reduce_fn(shape.aggregates))


def _post_join(stream: Operator, shape: _Shape, strings: _Dictionary) -> Operator:
    """Residual filter plus the projection feeding the partial aggregation."""
    if shape.post_filter is not None:
        stream = Filter(
            stream, _expr_predicate(shape.post_filter, stream.output_type, strings)
        )
    return Map(
        stream, _expr_tuple_fn(_agg_input_outputs(shape), stream.output_type, strings)
    )

