"""The sub-operator interface.

Sub-operators are Volcano-style iterators over tuples of a statically known
type (paper Section 3.2).  In this reproduction every sub-operator has one
data path, :meth:`Operator.lanes`: a Python generator walking the operator
for every lane of a :class:`~repro.core.lockstep.Lockstep` at once — each
lane one rank's execution context — and yielding
:class:`~repro.core.lockstep.Step` morsels through a vectorized kernel, our
analogue of the paper's JiT-compiled pipelines.  A walk of one context
(the driver's) is its one-lane case; an ``MpiExecutor`` wave is the walk
over all of its ranks (:mod:`repro.core.lockstep`).  The
execution mode (``RunOptions.mode``, which operators see as
``ctx.options.mode``) does not pick another implementation: ``interpreted``
runs the same kernels and charges them at the cost model's
``interpreted_overhead`` rate
(:meth:`~repro.core.context.ExecutionContext.overhead_for`) — the
tuple-at-a-time Volcano interpreter the paper compares against, modelled as
a rate.  The few control operators that move a handful of tuples holding
whole collections (``Zip``, ``CartesianProduct``, ``MpiExecutor``) declare
``row_native``.

An operator defined outside this package implements ``lanes`` too.  The
walk is observed in one place, :func:`~repro.core.lockstep.steps`: the
profiler, the metrics and the sanitizer see every operator's morsels
there, and ``stream``, ``stream_batches`` and ``drain`` are views of the
one-lane walk.

Design-principle mapping (paper Section 3.1):

1. *One inner loop per operator* — each concrete operator implements one
   ``lanes`` loop.
2. *Dedicated scan/materialize operators per physical format* — only
   ``RowScan``/``ChunkScan`` and ``MaterializeRowVector``/
   ``MaterializeChunks`` (and the window-reading network operators) know
   what a collection looks like inside.
3. *Control flow as nested operators* — ``NestedMap``/``MpiExecutor`` run
   whole nested plans through this same interface.

A sub-operator is described in one place, its class.  Beside the data path
it declares its *type rule* (:meth:`Operator.infer_type`, the paper's one
rule per sub-operator: §3.2), its static parameters
(:meth:`Operator.signature`) and its pipeline shape and emitted cardinality
(class attributes).  The constructor, the plan compiler and the static
analyzer all read these declarations; none of them keeps a table of
operator classes, so an operator defined outside this package is typed,
cut into pipelines and compared exactly like the built-in ones.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.context import ExecutionContext
from repro.core.lockstep import Lockstep, Step, one_lane, pulled
from repro.errors import PlanError, TypeCheckError
from repro.types.collections import CollectionType, RowVector
from repro.types.tuples import TupleType, concat_tuple_types

__all__ = ["Operator", "require_fields", "scanned_collection", "join_output_type"]


class Operator:
    """Base class of all sub-operators.

    Subclasses assign their static parameters, call ``super().__init__``
    (which types the node by running :meth:`infer_type` over the upstreams'
    declared types) and implement :meth:`lanes`, their one data path in
    both execution modes and on any number of ranks.

    Instances are *plan nodes*: immutable descriptions plus the per-node
    pipeline-size annotation that the plan compiler fills in.  All mutable
    execution state lives in local variables of the generators, so the same
    plan can be executed many times (nested plans run once per input tuple).
    """

    #: Short display/abbreviation name, mirroring the paper's Table 1.
    abbreviation = "??"

    #: Algorithm phase this operator *defines* (e.g. LocalHistogram defines
    #: ``local_histogram``); None for plumbing operators, whose work is
    #: attributed to the phase of their consumer.  The plan compiler
    #: propagates these into ``assigned_phase``.
    phase_name: str | None = None

    #: Whether re-executing this operator over the same inputs yields
    #: bit-identical output.  Operators wrapping non-deterministic sources
    #: (random sampling, wall clocks, external feeds) set this False; the
    #: recovery lints (MOD03x) use it to flag plans whose fault recovery —
    #: which re-executes pipeline stages — would not be reproducible.
    deterministic: bool = True

    #: Pipeline shape, read by the plan compiler (:mod:`repro.core.plan`).
    #: ``breaks_pipeline``: the output is a materialization point, so
    #: downstream work starts a new pipeline.  ``side_inputs``: input
    #: positions fully drained before the main loop (hash-build sides,
    #: histograms, parameters); those edges cut pipelines too.
    #: ``heavy_loop``: a compound scatter/probe loop that stays large after
    #: fusion, whatever its pipeline's operator count.
    breaks_pipeline: bool = False
    side_inputs: frozenset[int] = frozenset()
    heavy_loop: bool = False

    #: Control operators (``Zip``, ``CartesianProduct``, ``MpiExecutor``)
    #: move a handful of tuples that hold whole collections: the profiler
    #: counts their rows, not batches.
    row_native: bool = False

    #: The operator issues collectives, which need every rank of the job
    #: (MOD010, MOD013).
    collective: bool = False

    #: Tuples emitted per run, as far as statically known: ``"one"``,
    #: ``"per_input"`` (one per tuple of upstream 0), ``"all_upstreams"``
    #: (exactly one iff every upstream emits exactly one) or ``"unproven"``.
    #: MOD005 folds it over nested plans.
    cardinality: str = "unproven"

    #: Analyzer rule ids silenced at this plan node (see
    #: :mod:`repro.analysis`); class-level default so that reading it never
    #: allocates on nodes without suppressions.
    lint_suppressions: frozenset[str] = frozenset()

    def __init__(self, upstreams: Sequence["Operator"]) -> None:
        for up in upstreams:
            if not isinstance(up, Operator):
                raise PlanError(f"upstream {up!r} is not an Operator")
        self.upstreams: tuple[Operator, ...] = tuple(upstreams)
        self._output_type: TupleType | None = self.infer_type(
            tuple(up.output_type for up in self.upstreams)
        )
        #: Number of operators in this node's pipeline; set by the plan
        #: compiler, consumed by the cost model's overhead rule.
        self.pipeline_size: int = 1
        #: Phase label charged for this node's work; set by the plan
        #: compiler (defaults to the node's own phase or "other").
        self.assigned_phase: str = self.phase_name or "other"

    # -- static typing ---------------------------------------------------------

    @property
    def output_type(self) -> TupleType:
        """The statically known type of the tuples this operator returns."""
        if self._output_type is None:
            raise PlanError(f"{type(self).__name__} did not set its output type")
        return self._output_type

    def infer_type(self, upstream_types: tuple[TupleType, ...]) -> TupleType | None:
        """The operator's one type rule: its output type for ``upstream_types``.

        Pure: reads only static parameters assigned before
        ``super().__init__``.  The constructor runs it to type the node and
        the analyzer (:mod:`repro.analysis.typeflow`) runs it again over the
        finished plan, so the two cannot disagree.  Violations raise
        :class:`~repro.errors.TypeCheckError` carrying the analyzer rule
        they are reported under.  The default declares no rule: the subclass
        sets ``_output_type`` itself and the analyzer does not re-check it.
        """
        return None

    def signature(self) -> tuple:
        """Static parameters defining this operator beyond its upstream shape.

        Two nodes of one class with equal signatures over equivalent
        upstreams provably compute the same stream
        (:func:`repro.analysis.structure.plan_signature`).  Function objects
        go in by identity — two separately constructed UDFs are never
        assumed equal.  The default is the node's own identity.
        """
        return (id(self),)

    # -- data path ---------------------------------------------------------------

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        """Yield the output of every lane of ``lx`` as lockstep morsels:
        the one data path, which every subclass implements.

        Each lane's rows are charged to that lane's own clock, at the point
        where a walk of that lane alone charges them.
        """
        raise NotImplementedError(f"{type(self).__name__} implements no lanes()")

    def stream(self, ctx: ExecutionContext) -> Iterator[tuple]:
        """The row iterator consumers should use: the one-lane walk's
        morsels unpacked."""
        for batch in one_lane(self, ctx):
            yield from batch.iter_rows()

    def stream_batches(self, ctx: ExecutionContext) -> Iterator[RowVector]:
        """The *batch* iterator consumers should use: the one-lane walk's
        morsels, as the walk pulls them (with metrics on, counted as
        drained).

        Batch-shaped consumers (joins, aggregations, partitioners, the
        network exchange) pull morsels through this method, so the
        upstream's kernel runs end to end in both modes.
        """
        for step in pulled(self, Lockstep.solo(ctx)):
            yield step.parts[0]

    def drain(self, ctx: ExecutionContext) -> RowVector:
        """Execute fully and materialize the result (no cost charged).

        Convenience for operators (and tests) that need a whole upstream at
        once; cost-bearing materialization is ``MaterializeRowVector``'s job.
        """
        return RowVector.concat(self.output_type, list(one_lane(self, ctx)))

    # -- plan structure ------------------------------------------------------------

    def nested_roots(self) -> tuple["Operator", ...]:
        """Roots of nested plans owned by this operator (NestedMap & co.)."""
        return ()

    def label(self) -> str:
        """Human-readable node label for plan explanations."""
        return type(self).__name__

    def suppress(self, *rule_ids: str) -> "Operator":
        """Silence analyzer rules at this node; returns ``self`` for chaining.

        Plans use this to record *intentional* deviations from the rule
        catalog (``docs/static_analysis.md``), e.g.
        ``exchange.suppress("MOD023")`` for a deliberately uncompressed
        network exchange.
        """
        self.lint_suppressions = self.lint_suppressions | frozenset(rule_ids)
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({', '.join(u.label() for u in self.upstreams)})"


# -- shared type-checking helpers used by several operators ---------------------


def require_fields(op_name: str, tuple_type: TupleType, names: Sequence[str]) -> None:
    """Fail plan construction unless ``tuple_type`` has all ``names``."""
    missing = [n for n in names if n not in tuple_type]
    if missing:
        raise TypeCheckError(
            f"{op_name}: upstream type {tuple_type!r} lacks fields {missing}"
        )


def scanned_collection(
    op_name: str, tuple_type: TupleType, field: str | None, kind: str
) -> tuple[str, CollectionType]:
    """Resolve the collection field a scan reads, checked against its format.

    If ``field`` is None the tuple type must hold exactly one collection of
    the scan's physical format ``kind``; otherwise the named field must be
    one.  Returns the resolved field name and its collection type.
    """
    if field is None:
        candidates = [
            f.name
            for f in tuple_type
            if isinstance(f.item_type, CollectionType) and f.item_type.kind == kind
        ]
        if len(candidates) != 1:
            raise TypeCheckError(
                f"{op_name}: cannot infer the {kind} field of {tuple_type!r}; "
                "project to a single field or name it explicitly",
                "MOD003",
            )
        field = candidates[0]
    require_fields(op_name, tuple_type, [field])
    item = tuple_type[field]
    if not isinstance(item, CollectionType):
        raise TypeCheckError(
            f"{op_name}: field {field!r} of {tuple_type!r} is not a collection",
            "MOD003",
        )
    if item.kind != kind:
        raise TypeCheckError(
            f"{op_name}: field {field!r} is not a {kind} collection but a "
            f"{item.kind}; use the scan operator dedicated to that format",
            "MOD003",
        )
    return field, item


def join_output_type(
    left: TupleType, right: TupleType, keys: Sequence[str], join_type: str
) -> TupleType:
    """The type rule shared by the equi-joins (``BuildProbe``, ``MergeJoin``).

    The join attributes, then the remaining left fields (dropped by
    ``semi``/``anti``), then the remaining right fields.
    """
    require_fields("join build side", left, keys)
    require_fields("join probe side", right, keys)
    for key in keys:
        if left[key] != right[key]:
            raise TypeCheckError(
                f"join attribute {key!r} has type {left[key]!r} on the left "
                f"but {right[key]!r} on the right"
            )
    head = left.project(keys)
    if join_type not in ("semi", "anti"):
        head = concat_tuple_types(head, left.drop(keys))
    return concat_tuple_types(head, right.drop(keys))
