"""One sub-operator, one declaration.

An operator class declares its type rule (``infer_type``), its static
parameters (``signature``) and its pipeline shape; the constructor, the plan
compiler and the analyzer all read those declarations and keep no table of
classes.  Checked here:

* *agreement* — for every exported operator class, the constructor and the
  analyzer refuse the same bad upstream under the same rule with the same
  message, because both run the same method;
* *open world* — an operator defined in this file is cut into pipelines,
  type-checked and structurally compared like a built-in one, and one that
  declares nothing keeps the unknown-class behaviour;
* *import closure* — the analyzer and the plan compiler import only the
  operator classes they name for a reason, so a class table cannot grow back
  unseen (also run by ``make lint``);
* *one scatter kernel* — no ``argsort`` call under ``repro.core.operators``,
  and under ``repro.core.kernels`` only in ``scatter.py`` and
  ``hash_join.py``, so a merge sort cannot come back into a scatter unseen;
* *one composition per fragment* — outside ``repro.core.operators`` only
  ``core/plans/fragments.py`` constructs the exchange/broadcast/local-level
  operators or re-attributes a phase, so a second ladder cannot appear unseen;
* *one data path* — no class under ``repro`` defines ``rows`` or
  ``batches``, and every exported operator class implements ``lanes``, so a
  second data path cannot come back unseen;
* *no run state on plan nodes* — no method of an operator or partition
  function but ``__init__`` (and two build-time methods) assigns to
  ``self``, so one lowered plan can serve concurrent runs.
"""

import ast
import functools
import importlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

import repro.core.operators as operators
from repro import RunOptions
from repro.analysis import analyze
from repro.analysis.structure import plan_signature
from repro.core.compression import RadixCompression
from repro.core.functions import (
    ParamTupleFunction,
    Predicate,
    RadixPartition,
    TupleFunction,
    field_sum,
)
from repro.core.lockstep import Step, drained_rows, steps
from repro.core.operator import Operator, require_fields
from repro.core.operators import *  # noqa: F403 - the table below names every class
from repro.core.plan import SharedScan, prepare, walk
from repro.errors import TypeCheckError
from repro.mpi.cluster import SimCluster
from repro.types import INT64, STRING, RowVector, TupleType, row_vector_type
from repro.types.collections import chunked_type
from repro.workloads.targets import ALL_TARGETS, resolve

from tests.conftest import KV
from tests.test_analysis_typeflow import source, table

AB = TupleType.of(a=INT64, b=INT64)
KS = TupleType.of(key=STRING, value=INT64)
KP = TupleType.of(key=INT64, pay=INT64)
KV3 = TupleType.of(key=INT64, value=INT64, extra=INT64)
HIST = operators.HISTOGRAM_TYPE

OPERATOR_CLASSES = [
    cls
    for cls in (getattr(operators, name) for name in operators.__all__)
    if isinstance(cls, type) and issubclass(cls, Operator)
]


def keep_key(tuple_type):
    """A UDF type rule that needs a ``key`` field."""
    return tuple_type.project(["key"])


def materialized(slot):
    return MaterializeRowVector(ParameterLookup(slot))


@dataclass
class Case:
    """One bad-upstream shape of one operator class.

    ``make(*upstreams)`` constructs the operator; ``good`` and ``bad`` are
    the upstream types of a valid instance and of the refused shape.  With
    ``refused=False`` the constructor accepts any upstream (a passthrough
    rule, or a nested plan typed against whatever it is given) and only the
    rewired plan is wrong: the analyzer reports the changed result, MOD001.
    """

    cls: type
    make: Callable[..., Operator]
    good: tuple
    bad: tuple
    rule: str
    refused: bool = True


CASES = [
    # wrong collection format
    Case(RowScan, lambda up: RowScan(up, field="t"),
         (TupleType.of(t=row_vector_type(KV)),), (TupleType.of(t=chunked_type(KV)),),
         "MOD003"),
    Case(ChunkScan, lambda up: ChunkScan(up, field="t"),
         (TupleType.of(t=chunked_type(KV)),), (TupleType.of(t=row_vector_type(KV)),),
         "MOD003"),
    # missing field
    Case(Projection, lambda up: Projection(up, ["key"]), (KV,), (AB,), "MOD002"),
    Case(Map, lambda up: Map(up, TupleFunction(None, keep_key)), (KV,), (AB,), "MOD002"),
    Case(ParametrizedMap,
         lambda up, param: ParametrizedMap(up, param, ParamTupleFunction(None, keep_key)),
         (KV, AB), (AB, AB), "MOD002"),
    Case(LocalSort, lambda up: LocalSort(up, "key"), (KV,), (AB,), "MOD002"),
    Case(ReduceByKey, lambda up: ReduceByKey(up, "key", field_sum("value")),
         (KV,), (AB,), "MOD002"),
    Case(NicPartialAggregate,
         lambda up: NicPartialAggregate(up, "key", field_sum("value")),
         (KV,), (AB,), "MOD002"),
    Case(MergeJoin, lambda left, right: MergeJoin(left, right, "key"),
         (KV, KP), (KV, AB), "MOD002"),
    Case(LocalHistogram, lambda up: LocalHistogram(up, RadixPartition("key", 4)),
         (KV,), (AB,), "MOD002"),
    # mismatched join key types
    Case(BuildProbe, lambda left, right: BuildProbe(left, right, "key"),
         (KV, KP), (KS, KP), "MOD002"),
    # clashing names
    Case(Zip, lambda a, b: Zip([a, b]), (KV, AB), (KV, KV), "MOD002"),
    Case(CartesianProduct, CartesianProduct, (KV, AB), (KV, KV), "MOD002"),
    # non-histogram side input
    Case(MpiHistogram, lambda hist: MpiHistogram(hist, 4), (HIST,), (KV,), "MOD004"),
    Case(LocalPartitioning,
         lambda data, hist: LocalPartitioning(data, hist, RadixPartition("key", 4)),
         (KV, HIST), (KV, KV), "MOD004"),
    Case(MpiBroadcast, MpiBroadcast, (KV, HIST, HIST), (KV, HIST, KV), "MOD004"),
    # wire-format constraint
    Case(MpiExchange,
         lambda data, local, global_: MpiExchange(
             data, local, global_, RadixPartition("key", 4),
             compression=RadixCompression(key_bits=10, fanout_bits=2),
         ),
         (KV, HIST, HIST), (KV3, HIST, HIST), "MOD003"),
    # stale nested parameter type
    Case(NestedMap, lambda up: NestedMap(up, materialized), (KV,), (AB,), "MOD001",
         refused=False),
    Case(MpiExecutor, lambda up: MpiExecutor(up, materialized, SimCluster(2)),
         (KV,), (AB,), "MOD001", refused=False),
    # passthrough and wrapping rules: nothing to refuse, the result moves
    Case(Filter, lambda up: Filter(up, Predicate(None)), (KV,), (AB,), "MOD001",
         refused=False),
    Case(Limit, lambda up: Limit(up, 3), (KV,), (AB,), "MOD001", refused=False),
    Case(Reduce, lambda up: Reduce(up, field_sum("key", "value")), (KV,), (AB,),
         "MOD001", refused=False),
    Case(MaterializeRowVector, MaterializeRowVector, (KV,), (AB,), "MOD001",
         refused=False),
    Case(MaterializeChunks, lambda up: MaterializeChunks(up, chunk_rows=4),
         (KV,), (AB,), "MOD001", refused=False),
]


TYPE_FLOW_RULES = {"MOD001", "MOD002", "MOD003", "MOD004", "MOD005"}


def findings_at_root(op):
    """The type-flow findings at the plan root (MPI operators stand outside
    a cluster scope here, which the communication pass has its own words on)."""
    return [
        d for d in analyze(op)
        if d.rule.id in TYPE_FLOW_RULES and d.path == f"plan/{type(op).__name__}"
    ]


class TestConstructorAndAnalyzerAgree:
    def test_every_exported_class_has_a_case(self):
        # ParameterLookup has no upstream edge to break; its rule is covered
        # by test_lookup_of_a_retyped_slot below.
        assert {case.cls for case in CASES} == set(OPERATOR_CLASSES) - {ParameterLookup}

    @pytest.mark.parametrize("case", CASES, ids=lambda case: case.cls.__name__)
    def test_same_rule_same_message(self, case):
        bad = tuple(source(t) for t in case.bad)
        op = case.make(*(source(t) for t in case.good))
        assert findings_at_root(op) == []
        op.upstreams = bad
        (finding,) = findings_at_root(op)
        assert finding.rule.id == case.rule
        if case.refused:
            with pytest.raises(TypeCheckError) as refusal:
                case.make(*bad)
            assert refusal.value.rule_id == case.rule
            assert finding.message == str(refusal.value)
        else:
            case.make(*bad)  # a valid plan of another type

    def test_lookup_of_a_retyped_slot(self):
        lookup = source(KV)
        lookup.slot = ParameterSlot(AB)
        (finding,) = findings_at_root(lookup)
        assert finding.rule.id == "MOD001"

    @pytest.mark.parametrize("cls", OPERATOR_CLASSES, ids=lambda cls: cls.__name__)
    def test_every_exported_class_declares_its_rule_and_signature(self, cls):
        assert "infer_type" in vars(cls) and "signature" in vars(cls)

    @pytest.mark.parametrize("name", ALL_TARGETS)
    def test_the_rule_reproduces_every_declared_type(self, name):
        target = resolve(name, machines=4, log2_tuples=8, sf=0.002)
        plan = target.plan or target.lower(RunOptions())
        nodes = list(walk(prepare(plan.root), into_nested=True))
        assert any(isinstance(op, SharedScan) for op in nodes)
        for op in nodes:
            declared = tuple(up.output_type for up in op.upstreams)
            assert op.infer_type(declared) == op.output_type, op


# -- open world -----------------------------------------------------------------


class _Enrich(Operator):
    """A blocking operator from outside the library: adds ``field`` to every
    tuple, after draining a one-tuple ``lookup`` side input."""

    abbreviation = "EN"
    breaks_pipeline = True
    side_inputs = frozenset({1})

    def __init__(self, upstream, lookup, field):
        self.field = field
        super().__init__(upstreams=(upstream, lookup))

    def infer_type(self, upstream_types):
        data_type, lookup_type = upstream_types
        require_fields("_Enrich", lookup_type, [self.field])
        if self.field in data_type:
            raise TypeCheckError(
                f"_Enrich: {data_type!r} already has a field {self.field!r}", "MOD001"
            )
        return TupleType.of(
            **{f.name: f.item_type for f in data_type}, **{self.field: INT64}
        )

    def signature(self):
        return (self.field,)

    def lanes(self, lx):
        position = self.upstreams[1].output_type.position(self.field)
        extras = [rows[0][position] for rows in drained_rows(steps(self.upstreams[1], lx), lx)]
        for step in steps(self.upstreams[0], lx):
            yield Step(step.lanes, [
                RowVector.from_rows(self.output_type, [r + (extras[i],) for r in part.iter_rows()])
                for i, part in zip(step.lanes, step.parts)
            ])


class _Undeclared(Operator):
    """Declares nothing: no rule, identity signature, not a breaker."""

    def __init__(self, upstream):
        super().__init__(upstreams=(upstream,))
        self._output_type = upstream.output_type

    def lanes(self, lx):
        return steps(self.upstreams[0], lx)


def enriched(field="a"):
    scan = Projection(RowScan(table(KV), field="t"), ["key", "value"])
    lookup = Projection(source(AB), ["a", "b"])
    return Limit(_Enrich(scan, lookup, field), 5)


class TestOpenWorld:
    def test_prepare_cuts_pipelines_at_a_declared_breaker_and_side_input(self):
        root = prepare(enriched())
        enrich = root.upstreams[0]
        scan, lookup = enrich.upstreams
        # Limit sits alone above the breaker; _Enrich fuses with its main
        # input (Projection, RowScan), whose ParameterLookup breaks again;
        # the side input is a pipeline of its own.
        assert root.pipeline_size == 1
        assert enrich.pipeline_size == scan.pipeline_size == 3
        assert scan.upstreams[0].pipeline_size == 3
        assert lookup.pipeline_size == 1

    def test_the_same_plan_without_declarations_fuses(self):
        scan = Projection(RowScan(table(KV), field="t"), ["key", "value"])
        root = prepare(Limit(_Undeclared(scan), 5))
        assert root.pipeline_size == root.upstreams[0].pipeline_size == 4

    def test_rewired_plan_is_reported_under_the_declared_rules(self):
        root = enriched()
        enrich = root.upstreams[0]
        scan, lookup = enrich.upstreams
        assert [d for d in analyze(root) if d.is_error] == []
        enrich.upstreams = (scan, source(KV))
        assert {d.rule.id for d in analyze(root) if d.is_error} == {"MOD002"}
        enrich.upstreams = (source(AB), lookup)
        assert {d.rule.id for d in analyze(root) if d.is_error} == {"MOD001"}

    def test_the_constructor_runs_the_declared_rule(self):
        with pytest.raises(TypeCheckError, match="lacks fields") as refusal:
            _Enrich(source(KV), source(KV), "a")
        assert refusal.value.rule_id == "MOD002"

    def test_equal_instances_are_structurally_equal(self):
        slot = ParameterSlot(TupleType.of(t=row_vector_type(KV)))
        lookup = source(AB)

        def build(field):
            return _Enrich(RowScan(ParameterLookup(slot), field="t"), lookup, field)

        assert plan_signature(build("a")) == plan_signature(build("a"))
        assert plan_signature(build("a")) != plan_signature(build("b"))

    def test_an_undeclared_class_keeps_the_unknown_class_behaviour(self):
        first, second = _Undeclared(source(KV)), _Undeclared(source(KV))
        assert first.infer_type((KV,)) is None
        assert plan_signature(first) == plan_signature(first)
        assert plan_signature(first) != plan_signature(second)
        # Not re-checked: rewiring it is invisible to the type-flow pass.
        first.upstreams = (source(AB),)
        assert [d for d in analyze(first) if d.is_error] == []


# -- import closure ---------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Operator modules each file may import, and why.
ALLOWED_OPERATOR_IMPORTS = {
    # The type-flow pass runs every class's own rule; it names none.
    "analysis/typeflow.py": set(),
    # The scope walk names the two operators that open a nested scope.
    "analysis/structure.py": {"mpi_executor", "nested_map"},
    # prepare() re-scans base tables by cloning exactly this chain.
    "core/plan.py": {"row_scan", "projection", "parameter_lookup"},
}


@functools.cache
def nodes(path: Path) -> list[ast.AST]:
    """Every node of ``path``'s syntax tree (parsed once for all the walks)."""
    return list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))


def operator_imports(path: Path) -> set[str]:
    """Modules under ``repro.core.operators`` imported anywhere in ``path``."""
    prefix = "repro.core.operators"
    found = set()
    for node in nodes(path):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            if node.module == prefix:  # from repro.core.operators import X
                modules = [f"{prefix}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(
            m[len(prefix):].lstrip(".") or "*" for m in modules if m.startswith(prefix)
        )
    return found


@pytest.mark.parametrize("relative", sorted(ALLOWED_OPERATOR_IMPORTS))
def test_no_class_table_can_grow_back(relative):
    assert operator_imports(SRC / relative) <= ALLOWED_OPERATOR_IMPORTS[relative]


# -- one scatter kernel -------------------------------------------------------------

#: The only data-plane modules that may sort: the radix-order kernel itself
#: (its narrow passes and fallback) and the sorted-hash build (64-bit hashes).
ARGSORT_ALLOWED = {"core/kernels/scatter.py", "core/kernels/hash_join.py"}


def calls_to(name: str, path: Path) -> list[int]:
    """Line numbers of every ``name`` call (function or method) in ``path``."""
    return [
        node.lineno
        for node in nodes(path)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == name
    ]


def test_no_merge_sort_can_come_back_into_a_scatter():
    """Operators and kernels order rows through ``kernels.scatter`` only, and
    operators count buckets through it too (``bucket_counts``: ``bincount``
    is at its slowest on the one bucket of a one-rank run)."""
    operators = [*(SRC / "core/operators").glob("*.py")]
    paths = [*operators, *(SRC / "core/kernels").glob("*.py")]
    calls = {str(path.relative_to(SRC)): calls_to("argsort", path) for path in paths}
    found = {name: lines for name, lines in calls.items() if lines}
    assert set(found) <= ARGSORT_ALLOWED, found
    assert "core/kernels/scatter.py" in found  # the walk sees the calls it polices
    counts = {str(path.relative_to(SRC)): calls_to("bincount", path) for path in operators}
    assert not any(counts.values()), counts
    assert calls_to("bincount", SRC / "core/kernels/scatter.py")


# -- one composition per plan fragment ------------------------------------------------

#: The sub-operators whose compositions (the exchange ladder, its broadcast
#: twin, the local partitioning level) are written once, in ``fragments``.
LADDER_OPERATORS = {
    "LocalHistogram", "MpiHistogram", "MpiExchange", "MpiBroadcast", "LocalPartitioning",
}
LADDER_SITE = "core/plans/fragments.py"


def ladder_sites(path: Path) -> list[int]:
    """Lines of ``path`` that construct a ladder operator or re-attribute a
    node's phase (an assignment to ``.phase_name``)."""
    lines = []
    for node in nodes(path):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in LADDER_OPERATORS:
                lines.append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(t, "attr", None) == "phase_name" for t in targets):
                lines.append(node.lineno)
    return lines


def test_no_second_copy_of_the_ladder_can_appear():
    """Outside the operator package only ``fragments`` builds the ladders."""
    paths = [p for p in SRC.rglob("*.py") if SRC / "core/operators" not in p.parents]
    sites = {str(p.relative_to(SRC)): ladder_sites(p) for p in paths}
    found = {name: lines for name, lines in sites.items() if lines}
    assert set(found) == {LADDER_SITE}, found  # and the walk sees what it polices


# -- no assert in the library -------------------------------------------------------


def test_no_assert_statement_under_src():
    """``python -O`` strips ``assert``; a check the library relies on raises a
    ``repro.errors`` type instead."""
    sites = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in nodes(path)
        if isinstance(node, ast.Assert)
    ]
    assert sites == [], sites


# -- one data path --------------------------------------------------------------


def test_every_sub_operator_has_one_data_path():
    """Interpreted mode is a cost rate, not a second implementation, and a
    walk of one rank is the one-lane walk of all of them: no class under
    ``repro`` (``Operator`` included) defines ``rows`` or ``batches``, and
    every exported operator class implements ``lanes``."""
    second_paths = [
        f"{path.relative_to(SRC)}:{node.lineno} {node.name}"
        for path in sorted(SRC.rglob("*.py")) for node in nodes(path)
        if isinstance(node, ast.ClassDef) and any(
            isinstance(n, ast.FunctionDef) and n.name in ("rows", "batches") for n in node.body
        )
    ]
    assert second_paths == []
    assert [cls.__name__ for cls in OPERATOR_CLASSES if cls.lanes is Operator.lanes] == []


# -- plan nodes hold no run state -------------------------------------------------

#: Methods that may assign an attribute of ``self`` outside ``__init__``: both
#: run while a plan is built (a lint suppression, a key position resolved
#: against the upstream type), never while it executes.
STATE_WRITES_ALLOWED = {"Operator.suppress", "_KeyedPartition.bind"}


def self_attribute_writes(path: Path, module: str) -> list[str]:
    """``Class.method:line`` of every assignment to ``self.<attr>`` (or into
    one) made by a method other than ``__init__`` of an ``Operator`` or
    ``PartitionFunction`` subclass defined in ``path``."""
    from repro.core.functions import PartitionFunction

    found = []
    for cls_node in nodes(path):
        if not isinstance(cls_node, ast.ClassDef):
            continue
        cls = getattr(importlib.import_module(module), cls_node.name)
        if not issubclass(cls, (Operator, PartitionFunction)):
            continue
        for method in cls_node.body:
            if not isinstance(method, ast.FunctionDef) or method.name == "__init__":
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                stores = (t for top in targets for t in ast.walk(top)
                          if isinstance(getattr(t, "ctx", None), ast.Store))
                for target in stores:
                    while isinstance(target, ast.Subscript) or (
                        isinstance(target, ast.Attribute)
                        and getattr(target.value, "id", None) != "self"
                    ):
                        target = target.value
                    if isinstance(target, ast.Attribute):
                        found.append(f"{cls_node.name}.{method.name}:{node.lineno}")
    return found


def test_plan_nodes_hold_no_run_state():
    """One lowered plan serves every run of a deployed query, concurrent ones
    included, so no operator or partition function method writes to ``self``
    at run time: run state lives in generator locals and the context."""
    paths = {
        SRC / "core/operator.py": "repro.core.operator",
        SRC / "core/functions.py": "repro.core.functions",
        SRC / "core/plan.py": "repro.core.plan",
        **{path: f"repro.core.operators.{path.stem}"
           for path in (SRC / "core/operators").glob("*.py")},
    }
    writes = [w for path, module in sorted(paths.items())
              for w in self_attribute_writes(path, module)]
    assert {w.split(":")[0] for w in writes} == STATE_WRITES_ALLOWED, writes
