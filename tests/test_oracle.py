"""The differential oracle: one witness for every execution configuration.

Each example draws a *case* and a *cell*.  A case is a logical plan over a
generated catalog (scan, filter, project, inner/semi/anti joins up to a
left-deep chain of three, grouped or scalar aggregates, order-by/limit; keys
and payloads of every declared atom), a TPC-H query, or one of the four bulk
builders over generated relations in all four ``BuildProbe`` policies.  The
data is hostile on purpose: empty tables, single rows, fewer rows than
ranks, all-duplicate keys, and key spans and build sizes on either side of
the radix kernel's ``PASS_RANGE``, ``HARD_RANGE_CAP`` and ``RADIX_MIN_ROWS``.
A cell is one point of the lattice mode × join kernel × join strategy ×
ranks × morsel size × local fan-out × fault profile × direct | served.

:func:`check` holds the cell to one contract against the numpy reference
(``run_logical_plan``; a numpy join or group-by for the bulk builders):

* the cell returns the reference's rows — in order when the plan ends in
  ORDER BY, integers exactly, floats within a relative 1e-9; or
* lowering (or deploy) refuses it with a typed ``repro.errors`` exception,
  the one the same plan request gets with every execution knob at its
  default.  The reference may refuse with another class; if it refuses,
  the cell must.

Two metamorphic relations ride on the same draws: rows and simulated time
are bit-identical across ``join_kernel``, and swapping the operands of an
inner join leaves the result unchanged.  Results, not time, are compared
across morsel sizes: each morsel is one more message, so time rises as
morsels shrink.  The run is derandomized, so it is the same on every host;
to search further, wrap :func:`check` in a ``@given`` with a larger
``max_examples`` and no ``derandomize``.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import RunOptions
from repro.core import plans
from repro.core.kernels.radix_join import HARD_RANGE_CAP, PASS_RANGE, RADIX_MIN_ROWS
from repro.core.operators.build_probe import JOIN_TYPES
from repro.errors import ModularisError
from repro.faults.policy import fault_profile
from repro.mpi.cluster import SimCluster
from repro.mpi.costmodel import DEFAULT_COST_MODEL
from repro.relational import lower_to_modularis, run_logical_plan
from repro.relational.builder import scan
from repro.relational.expressions import col
from repro.relational.interpreter import (
    Frame, aggregate_frame, frames_match, join_frames,
)
from repro.relational.logical import AggregateSpec, LimitNode, SortNode
from repro.serving import Server
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.tpch import ALL_QUERIES, EXTENSION_QUERIES, load_catalog
from repro.types import BOOL, DATE, FLOAT64, INT64, STRING, RowVector, TupleType
from repro.workloads import make_groupby_table, make_join_relations

# -- the lattice ----------------------------------------------------------------

#: The chaos profiles the fault axis draws (:func:`fault_profile` names).
FAULTS = ("none", "transient", "crash", "straggler", "pressure")
#: Each kernel's partner in the kernel-independence relation.
OTHER_KERNEL = {"auto": "radix", "radix": "sorted", "sorted": "auto"}


@dataclass(frozen=True)
class Cell:
    """One point of the configuration lattice (bulk builders have no join
    strategy to choose and are not served, so they ignore those axes)."""

    mode: str = "fused"
    join_kernel: str = "auto"
    strategy: str = "exchange"
    ranks: int = 1
    morsel_rows: int | None = None
    local_fanout: int | None = None
    faults: str = "none"
    served: bool = False

    def options(self) -> RunOptions:
        return RunOptions(
            mode=self.mode, join_kernel=self.join_kernel,
            morsel_rows=self.morsel_rows,
            faults=fault_profile(self.faults, 2021, self.ranks),
        )


cells = st.builds(
    Cell,
    mode=st.sampled_from(("fused", "interpreted")),
    join_kernel=st.sampled_from(tuple(OTHER_KERNEL)),
    strategy=st.sampled_from(("exchange", "broadcast", "auto")),
    ranks=st.sampled_from((1, 2, 3, 4, 8)),
    morsel_rows=st.sampled_from((None, 1, 7, 97)),
    local_fanout=st.sampled_from((None, 1, 4)),
    faults=st.sampled_from(FAULTS),
    served=st.booleans(),
)

# -- cases ----------------------------------------------------------------------

Runner = Callable[[], "tuple[Frame, float]"]


@dataclass(eq=False)
class Case:
    """A plan the lattice runs, and the reference it is held to."""

    label: str
    reference: Callable[[], Frame]
    #: Builds the cell's plan (a typed refusal raises here) and returns the
    #: runner, which gives the result and its simulated time.
    prepare: Callable[[Cell], Runner]
    ordered: bool = False
    #: The same case with the operands of its inner join swapped.
    swapped: "Case | None" = None

    def __repr__(self) -> str:
        return self.label

    def _repr_pretty_(self, printer, cycle) -> None:  # how hypothesis prints it
        printer.text(self.label)


def logical_case(
    query, catalog: Callable[[], Catalog], label: str, swapped: Case | None = None
) -> Case:
    plan = query.plan

    def prepare(cell: Cell) -> Runner:
        options = cell.options()
        if cell.served:
            server = Server(SimCluster(cell.ranks), catalog(), n_workers=1)
            try:
                handle = server.deploy(
                    "oracle", plan, join_strategy=cell.strategy, defaults=options
                ).handle
            except BaseException:
                server.close()
                raise

            def served() -> tuple[Frame, float]:
                with server:
                    outcome = server.run(handle)
                return outcome.frame, outcome.report.simulated_time

            return served
        lowered = lower_to_modularis(
            plan, catalog(), SimCluster(cell.ranks), local_fanout=cell.local_fanout,
            join_strategy=cell.strategy, options=options,
        )

        def direct() -> tuple[Frame, float]:
            report = lowered.run(catalog(), options)
            return lowered.result_frame(report), report.simulated_time

        return direct

    top = plan.child if isinstance(plan, LimitNode) else plan
    return Case(
        f"{label}\n{plan.explain()}", lambda: run_logical_plan(plan, catalog()),
        prepare, isinstance(top, SortNode), swapped,
    )


@functools.cache
def tpch_catalog(sf: float) -> Catalog:
    return load_catalog(scale_factor=sf)


def tpch_case(qnum: int, sf: float = 0.002) -> Case:
    query = {**ALL_QUERIES, **EXTENSION_QUERIES}[qnum]()
    catalog = functools.partial(tpch_catalog, sf)
    return logical_case(query, catalog, f"TPC-H Q{qnum} sf={sf}")


def as_frame(vector: RowVector) -> Frame:
    names = vector.element_type.field_names
    return Frame({name: vector.column(name) for name in names})


def join_reference(left: Frame, right: Frame, join_type: str) -> Frame:
    """``join_frames`` plus ``left_outer``: unmatched build rows, probe side 0."""
    if join_type != "left_outer":
        return join_frames(left, right, "key", join_type)
    inner = join_frames(left, right, "key")
    unmatched = left.mask(~np.isin(left.columns["key"], right.columns["key"]))
    padding = np.zeros(unmatched.n_rows, np.int64)
    padded = {**{name: padding for name in right.columns}, **unmatched.columns}
    return Frame({n: np.concatenate([c, padded[n]]) for n, c in inner.columns.items()})


BUILDERS = {
    "join": plans.build_distributed_join,
    "broadcast_join": plans.build_broadcast_join,
    "groupby": plans.build_distributed_groupby,
}


def bulk_case(builder: str, *relations: RowVector, join_type="inner", **kwargs) -> Case:
    """A bulk builder over ``relations`` (a join sequence takes three or more)."""
    case = _bulk(builder, relations, join_type, kwargs)
    if builder in ("join", "broadcast_join") and join_type == "inner":
        case.swapped = _bulk(builder, relations[::-1], join_type, kwargs)
    return case


def _bulk(builder: str, relations, join_type: str, kwargs: dict) -> Case:
    frames = [as_frame(r) for r in relations]
    types = [r.element_type for r in relations]
    if builder == "groupby":
        spec = AggregateSpec("sum", col("value"), "value")
        reference = lambda: aggregate_frame(frames[0], ["key"], [spec])  # noqa: E731
    elif builder == "join_sequence":
        reference = lambda: functools.reduce(  # noqa: E731
            lambda left, right: join_frames(left, right, "key"), frames
        )
    else:
        reference = lambda: join_reference(*frames, join_type)  # noqa: E731
        kwargs = {**kwargs, "join_type": join_type}

    def prepare(cell: Cell) -> Runner:
        fanout = {"local_fanout": cell.local_fanout}
        if cell.local_fanout is None or builder == "broadcast_join":
            fanout = {}  # the builder's default; a broadcast has no local level
        cluster = SimCluster(cell.ranks)
        if builder == "join_sequence":
            plan = plans.build_join_sequence(cluster, types, **kwargs, **fanout)
            inputs = (list(relations),)
        else:
            plan = BUILDERS[builder](cluster, *types, **kwargs, **fanout)
            inputs = relations

        def run() -> tuple[Frame, float]:
            report = plan.run(*inputs, cell.options())
            return as_frame(plan.result(report)), report.simulated_time

        return run

    label = f"{builder}({kwargs}) over " + "; ".join(
        f"{r.element_type!r}={list(r.iter_rows())[:12]}" for r in relations
    )
    return Case(label, reference, prepare)


# -- data -----------------------------------------------------------------------

ATOMS = (INT64, FLOAT64, BOOL, STRING, DATE)
#: Hostile row counts first: empty, one row, fewer rows than ranks.  Only
#: the first input grows past a dozen rows, so joins on all-duplicate keys
#: stay small, and only it reaches the build sizes either side of the radix
#: kernel's floor.  Unique and duplicate keys are a draw of their own, so
#: both build shapes fall on both sides of the dispatch rule.
ROWS = (0, 1, 2, 3, 5) + (12,) * 5
FIRST_ROWS = ROWS + (40,) * 10 + (RADIX_MIN_ROWS - 1, RADIX_MIN_ROWS)
#: Key spans either side of the radix kernel's one-pass range and hard cap.
SPANS = (1, 2, 9, PASS_RANGE, PASS_RANGE + 1, HARD_RANGE_CAP, HARD_RANGE_CAP + 1)


def typed(atom, values: np.ndarray) -> np.ndarray:
    """Integer draws as a column of ``atom`` (floats stay binary-exact)."""
    if atom is FLOAT64:
        return values / 4
    if atom is BOOL:
        return values % 2 == 1
    if atom is STRING:  # every fourth value is wider than STRING's 32 characters
        values = values.astype(np.int64).tolist()
        return np.array([f"s{v}" + "." * 33 * (v % 4 == 0) for v in values], str)
    return values.astype(np.int64)


@st.composite
def key_pools(draw, base=st.sampled_from((0, 0, -(1 << 62), 1 << 40))):
    """A few distinct keys spanning exactly one of ``SPANS``."""
    span = draw(st.sampled_from(SPANS))
    inner = draw(st.lists(st.integers(0, span - 1), max_size=5))
    return draw(base) + np.unique(np.array([0, span - 1, *inner], dtype=np.int64))


def distinct_keys(pool: np.ndarray, n: int) -> np.ndarray:
    """``n`` distinct keys: the pool's ends first (two or more keep its
    span), then its inner keys, then a dense run up from its low end."""
    ordered = np.concatenate((pool[-1:], pool, pool[0] + np.arange(n, dtype=np.int64)))
    _, first = np.unique(ordered, return_index=True)
    return ordered[np.sort(first)][:n]


def keys_of(rng, pool: np.ndarray, n: int, unique: bool) -> np.ndarray:
    """``n`` keys over the pool's span: all distinct (a unique build), or
    drawn with repeats from the pool, widened to ``n // 64`` distinct keys
    for the largest builds so that a join chain over them stays small."""
    if unique:
        return rng.permutation(distinct_keys(pool, n))
    return rng.choice(distinct_keys(pool, max(len(pool), n // 64)), n)


@st.composite
def bulk_cases(draw):
    builder = draw(st.sampled_from((*BUILDERS, "join_sequence")))
    rng = np.random.default_rng(draw(st.integers(0, 1 << 16)))
    pool = draw(key_pools(base=st.just(0)))
    names = {"groupby": ["value"], "join_sequence": ["p0", "p1", "p2", "p3"]}.get(
        builder, ["lpay", "rpay"]
    )
    if builder == "join_sequence":
        names = names[: draw(st.sampled_from((3, 4)))]
    relations = []
    for i, name in enumerate(names):
        n = draw(st.sampled_from(FIRST_ROWS if i == 0 else ROWS))
        columns = [keys_of(rng, pool, n, draw(st.booleans())), rng.integers(0, 1000, n)]
        relations.append(RowVector(TupleType.of(key=INT64, **{name: INT64}), columns))
    if builder == "join_sequence":
        variant = draw(st.sampled_from(("naive", "optimized")))
        return bulk_case(builder, *relations, variant=variant)
    if builder == "groupby":
        return bulk_case(builder, *relations)
    return bulk_case(builder, *relations, join_type=draw(st.sampled_from(JOIN_TYPES)))


def predicate(rng, name: str, atom, column: np.ndarray):
    """A filter on ``name`` keeping some of ``column``'s rows (or all, or none)."""
    if len(column):
        pivot = column[rng.integers(len(column))]
    else:
        pivot = typed(atom, np.zeros(1))[0]
    if atom is BOOL:
        return col(name) == bool(pivot)
    if atom is STRING:  # present, or absent and sorting before/between/after
        pivot = str(pivot)
        literal, other = rng.choice([pivot, "", pivot[:-1], pivot + "~", "t"], 2)
        form = rng.integers(8)
        if form == 6:
            return col(name).isin([str(literal), str(other)])
        if form == 7:
            return col(name).startswith(str(literal))
        compare = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)
        return compare[form](col(name), str(literal))
    return col(name) <= pivot.item()


@st.composite
def logical_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 1 << 16)))
    key_atom = draw(st.sampled_from(ATOMS))
    pool = draw(key_pools())
    catalog, sides, payloads = Catalog(), [], []
    for i, table in enumerate("abc"[: draw(st.sampled_from((1, 2, 2, 3)))]):
        n = draw(st.sampled_from(FIRST_ROWS if i == 0 else ROWS))
        payload = draw(st.lists(st.sampled_from(ATOMS), min_size=1, max_size=2))
        atoms = {"k": key_atom, **{f"{table}{j}": a for j, a in enumerate(payload)}}
        keys = keys_of(rng, pool, n, draw(st.booleans()))
        if draw(st.booleans()):  # stored sorted by its join key, as TPC-H's tables are
            keys = np.sort(keys)
        columns = [typed(key_atom, keys)]
        # Numeric payloads over 13 values, or spread 2^20 apart: grouped on,
        # they are dense or sparse keys of the sum kernel's density rule.
        spread = draw(st.sampled_from((1, 1, 1 << 20)))
        columns += [
            typed(atom, rng.integers(-6, 7, n) * (spread if atom in (INT64, FLOAT64) else 1))
            for atom in payload
        ]
        catalog.register(Table(table, RowVector(TupleType.of(**atoms), columns)))
        side, first = scan(table), f"{table}0"
        if draw(st.booleans()):
            side = side.filter(predicate(rng, first, atoms[first], columns[1]))
        if draw(st.booleans()):  # a side projection computing one payload
            numeric = atoms[first] in (INT64, FLOAT64)
            computed = col(first) + 1 if numeric else col(first)
            side = side.project({c: computed if c == first else col(c) for c in atoms})
        sides.append(side)
        payloads.append({c: a for c, a in atoms.items() if c != "k"})
    kinds = [draw(st.sampled_from(("inner", "semi", "anti"))) for _ in sides[1:]]
    visible = dict(payloads[0])
    for kind, right in zip(kinds, payloads[1:]):
        visible = {**visible, **right} if kind == "inner" else dict(right)
    visible = {"k": key_atom, **visible}

    group_by = draw(st.sampled_from([[]] + [[c] for c in visible] * 2))
    numeric = [c for c, a in visible.items() if a in (INT64, FLOAT64, DATE)]
    numeric = [c for c in numeric if c not in group_by]
    aggs = [("count", col("k"), "n")]
    if numeric:
        # Counts and sums alone take ReduceByKey's sum kernel; a MIN or MAX
        # folds the rows.
        funcs = draw(st.sampled_from((("sum",), ("sum", "min", "max"))))
        for name in draw(st.lists(st.sampled_from(numeric), max_size=2, unique=True)):
            func = draw(st.sampled_from(funcs))
            aggs.append((func, col(name), f"{func}_{name}"))
    outputs = group_by + [alias for _, _, alias in aggs]
    order = []
    if draw(st.sampled_from((True, True, True, False))):
        keys = st.lists(st.sampled_from(outputs), min_size=1, max_size=2, unique=True)
        order = draw(keys)
    descending = [draw(st.booleans()) for _ in order]
    # LIMIT only under ORDER BY: otherwise which rows it keeps is unspecified.
    limit = draw(st.sampled_from((None, 0, 1, 2))) if order else None

    def query_over(sides):
        query = sides[0]
        for side, kind in zip(sides[1:], kinds):
            query = query.join(side, on="k", kind=kind)
        query = query.aggregate(group_by=group_by, aggs=aggs)
        if order:
            query = query.order_by(*order, descending=descending)
        return query if limit is None else query.limit(limit)

    swapped = None
    if kinds == ["inner"]:
        swapped = logical_case(query_over(sides[::-1]), lambda: catalog, "swapped")
    label = "\n".join(
        f"{t.name}: " + ", ".join(
            f"{f.name} {f.item_type!r} {t.data.column(f.name).tolist()[:12]}"
            for f in t.schema
        )
        for t in catalog
    )
    return logical_case(query_over(sides), lambda: catalog, label, swapped)


# -- the contract ---------------------------------------------------------------


def refusal(exc: BaseException | None):
    return None if exc is None else (type(exc).__name__, str(exc))


def check(case: Case, cell: Cell) -> None:
    """Hold ``cell`` to the oracle's contract for ``case`` (module docstring)."""
    try:
        expected = case.reference()
    except ModularisError as exc:
        expected = exc
    canonical = Cell(strategy=cell.strategy, local_fanout=cell.local_fanout)
    try:
        case.prepare(canonical)
        wanted = None
    except ModularisError as exc:
        wanted = exc
    try:
        run = case.prepare(cell)
    except ModularisError as exc:
        assert refusal(exc) == refusal(wanted), f"{exc!r}; {canonical}: {wanted!r}"
        return
    frame, simulated = run()  # first: a served runner closes its server
    assert wanted is None, f"{cell} runs, but {canonical} is refused: {wanted!r}"
    assert not isinstance(expected, Exception), f"the reference refuses ({expected!r})"
    assert frames_match(expected, frame, 1e-9, case.ordered), (expected, frame)
    other = replace(cell, join_kernel=OTHER_KERNEL[cell.join_kernel])
    other_frame, other_simulated = case.prepare(other)()
    assert other_simulated == simulated, f"simulated time moves with {other}"
    assert frames_match(frame, other_frame, 0.0, True), f"rows move with {other}"
    if case.swapped is not None:
        swapped, _ = case.swapped.prepare(cell)()
        assert frames_match(expected, swapped, 1e-9, case.ordered), (expected, swapped)


def catalog_of(**tables: dict) -> Callable[[], Catalog]:
    catalog = Catalog()
    for name, columns in tables.items():
        arrays = {c: np.asarray(v) for c, v in columns.items()}
        catalog.register(Table.from_arrays(name, **arrays))
    return lambda: catalog


_JOIN = make_join_relations(1 << 10)
_GROUPS = make_groupby_table(1 << 10)


def _sparse_build(duplicate: bool):
    """A one-rank join whose build reaches the one-pass allowance of the
    dispatch rule: floor-many keys over a span of exactly ``PASS_RANGE``."""
    rng = np.random.default_rng(5)
    keys = rng.permutation(distinct_keys(np.array([0, PASS_RANGE - 1]), RADIX_MIN_ROWS))
    if duplicate:
        keys[1] = keys[0]
    probe = np.concatenate((keys[::7], [-1, PASS_RANGE, PASS_RANGE - 1]))
    left, right = (
        RowVector(TupleType.of(key=INT64, **{name: INT64}), [k, np.arange(len(k))])
        for k, name in ((keys, "lpay"), (probe, "rpay"))
    )
    return bulk_case("join", left, right, join_type="left_outer", compression=False)


#: Shrunk examples of the defects generated examples found.
_TIES = logical_case(
    scan("a").join(scan("b"), on="k")
    .aggregate(["a0"], [("count", col("k"), "n"), ("min", col("k"), "min_k")])
    .order_by("n"),
    catalog_of(a={"k": [0, 0], "a0": [5, 2]}, b={"k": [0], "b0": [0]}),
    "rows tied on the ORDER BY key",
)
_DESC_BOOL = logical_case(
    scan("a").join(scan("b"), on="k")
    .aggregate(["b0"], [("count", col("k"), "n")]).order_by("b0", descending=True),
    catalog_of(
        a={"k": np.zeros(0, int), "a0": np.zeros(0, int)},
        b={"k": np.zeros(0, int), "b0": np.zeros(0, bool)},
    ),
    "a descending BOOL key",
)
_LIMIT_0 = logical_case(
    scan("a").aggregate([], [("count", col("k"), "n")]).order_by("n").limit(0),
    catalog_of(a={"k": np.zeros(0, int)}), "a scalar aggregate under LIMIT 0",
)
_LONG = logical_case(
    scan("t").filter(col("s") != "a").aggregate(["s"], [("count", col("k"), "n")]),
    catalog_of(t={"k": np.arange(4), "s": ["x" * 40, "x" * 40 + "y", "a", "b"]}),
    "strings longer than 32 characters",
)
_WRAP = logical_case(
    scan("a").aggregate(["a0"], [("sum", col("k"), "sum_k")]),
    catalog_of(a={"k": [-(1 << 62)] * 3, "a0": [0] * 3}), "an INT64 sum that wraps",
)
_SUM_BOOL = logical_case(
    scan("a").aggregate(["a0"], [("sum", col("b"), "s")]),
    catalog_of(a={"a0": [0, 0, 1], "b": [True, True, False]}), "a SUM over BOOL",
)
_DENSE_SUMS = logical_case(
    scan("a").aggregate(["a0"], [("count", col("k"), "n"), ("sum", col("k"), "sum_k")]),
    catalog_of(a={"k": [5, -3, 7, 5, 2, -(1 << 62)], "a0": [2, 0, 1, 2, 0, 1]}),
    "dense INT64 group keys: the sums are counted",
)
_SPARSE_SUMS = logical_case(
    scan("a").aggregate(
        ["a0"], [("sum", col("k"), "sum_k"), ("sum", col("a1"), "sum_a1")]
    ),
    catalog_of(a={"k": [5, -3, 7, 5, 2, 1], "a0": [1 << 40, 0, 7, 1 << 40, -9, 7],
                  "a1": [0.25, -0.0, 1.5, -0.0, 2.0, 0.5]}),
    "sparse INT64 group keys with FLOAT64 sums: sorted",
)
_OUTER = bulk_case(
    "broadcast_join", RowVector.from_rows(_JOIN.left.element_type, [(0, 850)]),
    RowVector.empty(_JOIN.right.element_type), join_type="left_outer",
)
_BULK = {
    "join": bulk_case("join", _JOIN.left, _JOIN.right, key_bits=_JOIN.key_bits),
    "broadcast_join": bulk_case("broadcast_join", _JOIN.left, _JOIN.right),
    "groupby": bulk_case("groupby", _GROUPS.table, key_bits=_GROUPS.key_bits),
}
#: An exchange join whose build arrives sorted with every key three times:
#: each rank's build keeps no run table and is searched.
_SORTED_BUILD = bulk_case(
    "join",
    RowVector(_JOIN.left.element_type,
              [np.sort(_JOIN.left.column("key") // 3), _JOIN.left.column("lpay")]),
    _JOIN.right,
)
#: A broadcast whose replicated build holds every even key twice: each rank
#: shares one build over repeated keys.
_REPEATED_SEMI = bulk_case(
    "broadcast_join",
    RowVector(_JOIN.left.element_type,
              [_JOIN.left.column("key") // 2 * 2, _JOIN.left.column("lpay")]),
    _JOIN.right, join_type="semi",
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=st.one_of(logical_cases(), logical_cases(), bulk_cases()), cell=cells)
# TPC-H, and every configuration BENCHMARK.json runs (at a smaller scale).
@example(case=tpch_case(1), cell=Cell(ranks=2))
@example(case=tpch_case(3), cell=Cell(ranks=4, strategy="auto"))
@example(case=tpch_case(6), cell=Cell(ranks=4, faults="transient"))
@example(case=tpch_case(4), cell=Cell(ranks=1))
@example(case=tpch_case(12), cell=Cell(ranks=1))
@example(case=tpch_case(14), cell=Cell(ranks=1))
@example(case=tpch_case(19), cell=Cell(ranks=1))
@example(case=tpch_case(4), cell=Cell(ranks=8))
@example(case=tpch_case(12), cell=Cell(ranks=8))
@example(case=tpch_case(14), cell=Cell(ranks=8))
@example(case=tpch_case(19), cell=Cell(ranks=8))
@example(case=tpch_case(4), cell=Cell(ranks=4, served=True))
@example(case=tpch_case(12), cell=Cell(ranks=4, served=True))
@example(case=tpch_case(14), cell=Cell(ranks=4, served=True))
@example(case=tpch_case(19), cell=Cell(ranks=4, served=True))
@example(case=_BULK["join"], cell=Cell(ranks=4))
@example(case=_BULK["broadcast_join"], cell=Cell(ranks=4))
@example(case=_BULK["broadcast_join"], cell=Cell(ranks=3, join_kernel="sorted"))
@example(case=_REPEATED_SEMI, cell=Cell(ranks=4))
@example(case=_SORTED_BUILD, cell=Cell(ranks=4))
@example(case=_BULK["groupby"], cell=Cell(ranks=4))
@example(case=_TIES, cell=Cell())
@example(case=_DESC_BOOL, cell=Cell())
@example(case=_LIMIT_0, cell=Cell())
@example(case=_OUTER, cell=Cell(ranks=2))
@example(case=_LONG, cell=Cell(ranks=2))
@example(case=_WRAP, cell=Cell(mode="interpreted"))
@example(case=_SUM_BOOL, cell=Cell(mode="interpreted"))
@example(case=_DENSE_SUMS, cell=Cell(ranks=2))
@example(case=_SPARSE_SUMS, cell=Cell(ranks=2))
@example(case=_sparse_build(duplicate=False), cell=Cell(ranks=1, local_fanout=1))
@example(case=_sparse_build(duplicate=True), cell=Cell(ranks=1, local_fanout=1))
def test_every_cell_returns_the_reference_rows_or_the_same_refusal(case, cell):
    check(case, cell)



# -- model relations ------------------------------------------------------------

#: A cost model under which the modes' one difference, the overhead rate
#: ``ExecutionContext.overhead_for`` charges, is gone.
FLAT = DEFAULT_COST_MODEL.with_overrides(
    interpreted_overhead=1.0, fused_overhead=1.0, small_pipeline_overhead=1.0
)


def flat_run(name: str, mode: str):
    """``q12`` or the bulk join on four ranks under :data:`FLAT`."""
    cluster = SimCluster(4, cost_model=FLAT)
    options = RunOptions(mode=mode, metrics=True, cost_model=FLAT)
    if name == "join":
        types = _JOIN.left.element_type, _JOIN.right.element_type
        plan = plans.build_distributed_join(cluster, *types, key_bits=_JOIN.key_bits)
        report = plan.run(_JOIN.left, _JOIN.right, options)
        return as_frame(plan.result(report)), report
    catalog = tpch_catalog(0.002)
    lowered = lower_to_modularis(ALL_QUERIES[12]().plan, catalog, cluster)
    report = lowered.run(catalog, options)
    return lowered.result_frame(report), report


@pytest.mark.parametrize("name", ["q12", "join"])
def test_the_modes_differ_only_through_overhead_for(name):
    """Both modes run the same kernels, so with one overhead rate for both
    they are one execution: the same rows, clocks, messages and morsels."""
    (fused_frame, fused), (interp_frame, interp) = (
        flat_run(name, mode) for mode in ("fused", "interpreted")
    )
    assert frames_match(fused_frame, interp_frame, 0.0, True)
    assert fused.simulated_time == interp.simulated_time
    assert fused.phase_breakdown() == interp.phase_breakdown()
    for metric in ("comm_puts", "shuffle_bytes", "morsels_drained"):
        assert fused.metrics.total(metric) == interp.metrics.total(metric) > 0, metric
