"""Plan analysis: DAG → pipelines with materialization points (§3.2, §3.4).

The paper extends the Volcano model to DAGs by cutting them into
tree-shaped *pipelines*: a pipeline starts at plan inputs or at the result
of any operator with several consumers, and ends at a materialization
point, so each intermediate result is computed once and read by all its
consumers.  Each pipeline is then lowered and JiT-compiled as one unit.

:func:`prepare` performs the equivalent analysis on an operator DAG:

* operators with multiple consumers get wrapped in :class:`SharedScan`
  nodes, which materialize the shared result once per plan invocation and
  replay it to every consumer (the DAG→pipelines cut);
* operators are grouped into pipelines (streaming edges fuse, blocking
  edges cut) and annotated with their pipeline's size, which drives the
  cost model's abstraction-overhead rule;
* every operator is assigned the algorithm *phase* it works for — its own
  ``phase_name`` if it defines one, otherwise the phase of the consumer it
  feeds — producing the per-phase breakdowns of Figure 6a.

``prepare`` recurses into nested plans (``NestedMap``/``MpiExecutor``),
each of which forms its own scope.
"""

from __future__ import annotations

import threading
from typing import Iterator

from repro.core.lockstep import Lockstep, Step, drained_vectors, each_lane, steps
from repro.core.operator import Operator
from repro.core.operators.parameter_lookup import ParameterLookup
from repro.core.operators.projection import Projection
from repro.core.operators.row_scan import RowScan
from repro.errors import PlanError

__all__ = ["SharedScan", "prepare", "walk", "explain"]

#: Effective size assigned to pipelines containing a ``heavy_loop`` operator.
_HEAVY_PIPELINE_SIZE = 6

#: Serializes the first ``prepare`` of a plan shared between threads.
_PREPARE_LOCK = threading.Lock()


class SharedScan(Operator):
    """Materialize-once / read-many wrapper for multi-consumer operators.

    One SharedScan is inserted per consumer edge of a shared operator; all
    wrappers of the same operator serve from a single per-context cache, so
    the shared sub-plan executes exactly once per plan invocation (per
    nested-plan parameter binding), mirroring the paper's pipeline cut with
    a materialization point.
    """

    abbreviation = "MS"
    breaks_pipeline = True
    cardinality = "per_input"

    def __init__(self, wrapped: Operator) -> None:
        super().__init__(upstreams=(wrapped,))

    def infer_type(self, upstream_types):
        return upstream_types[0]

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        # The lanes of one walk share their bindings' shape: each lane's
        # cache holds this binding's result, or none does.
        wrapped = self.upstreams[0]
        key = id(wrapped)
        bindings = [ctx.parameter_binding_key() for ctx in lx.ctxs]
        cached = [ctx.shared_cache.get(key) for ctx in lx.ctxs]
        if all(c is not None and c[0] == b for c, b in zip(cached, bindings)):
            vectors = [c[1] for c in cached]
        else:
            vectors = drained_vectors(wrapped, steps(wrapped, lx), lx)
            for ctx, binding, vector in zip(lx.ctxs, bindings, vectors):
                ctx.charge_materialize(self, vector.size_bytes())
                ctx.shared_cache[key] = (binding, vector)
        yield each_lane(vectors)


def walk(root: Operator, into_nested: bool = False) -> Iterator[Operator]:
    """Yield each reachable operator once (DFS over upstream edges).

    Args:
        root: Plan root.
        into_nested: Also descend into nested plans.
    """
    seen: set[int] = set()
    stack = [root]
    while stack:
        op = stack.pop()
        if id(op) in seen:
            continue
        seen.add(id(op))
        yield op
        stack.extend(op.upstreams)
        if into_nested:
            stack.extend(op.nested_roots())


def _is_base_scan_chain(op: Operator) -> bool:
    """True for scans of already-materialized inputs (base tables).

    Re-reading such a chain costs one streaming pass and no materialization,
    so a multi-consumer base scan is cheaper to *re-execute* per consumer
    than to materialize — exactly what the monolithic algorithms do ("each
    rank reads the input again" for the partitioning pass).
    """
    if not isinstance(op, RowScan):
        return False
    current: Operator = op.upstreams[0]
    while isinstance(current, Projection):
        current = current.upstreams[0]
    return isinstance(current, ParameterLookup)


def _clone_scan_chain(op: Operator) -> Operator:
    """Fresh plan nodes for one consumer's private re-scan of a base table.

    Clones must carry the original nodes' lint suppressions: a suppression
    records an *intentional* deviation on the plan as the user built it,
    and analyses run after ``prepare()`` (e.g. the degraded-plan
    re-verification in stage recovery) must see the same verdicts as
    before compilation.
    """
    if isinstance(op, RowScan):
        clone: Operator = RowScan(
            _clone_scan_chain(op.upstreams[0]), op.field, shard_by_rank=op.shard_by_rank
        )
    elif isinstance(op, Projection):
        clone = Projection(_clone_scan_chain(op.upstreams[0]), op.fields)
    elif isinstance(op, ParameterLookup):
        clone = ParameterLookup(op.slot)
    else:
        raise PlanError(f"not a base-scan chain node: {op!r}")
    if op.lint_suppressions:
        clone.lint_suppressions = op.lint_suppressions
    return clone


def _insert_shared_scans(root: Operator) -> None:
    """Cut the DAG at multi-consumer operators.

    Base-table scan chains are *cloned* per consumer (each consumer
    re-reads the input, as the paper's algorithms do); every other shared
    operator is wrapped in a SharedScan, which materializes its result once
    and replays it — the pipeline materialization point of Section 3.2.
    """
    consumers: dict[int, list[tuple[Operator, int]]] = {}
    by_id: dict[int, Operator] = {}
    for op in walk(root):
        for pos, up in enumerate(op.upstreams):
            consumers.setdefault(id(up), []).append((op, pos))
            by_id[id(up)] = up
    for up_id, edges in consumers.items():
        upstream = by_id[up_id]
        if len(edges) < 2 or isinstance(upstream, (SharedScan, ParameterLookup)):
            continue
        rescan = _is_base_scan_chain(upstream)
        for index, (consumer, pos) in enumerate(edges):
            if rescan:
                if index == 0:
                    continue  # first consumer keeps the original chain
                replacement: Operator = _clone_scan_chain(upstream)
            else:
                replacement = SharedScan(upstream)
            new_upstreams = list(consumer.upstreams)
            new_upstreams[pos] = replacement
            consumer.upstreams = tuple(new_upstreams)


def _edge_is_fused(consumer: Operator, position: int, upstream: Operator) -> bool:
    return not upstream.breaks_pipeline and position not in consumer.side_inputs


def _assign_pipelines_and_phases(root: Operator) -> list[list[Operator]]:
    """Group one scope into pipelines and propagate phase labels."""
    pipelines: list[list[Operator]] = []
    visited: set[int] = set()

    def visit(op: Operator, pipeline: list[Operator], consumer_phase: str) -> None:
        if id(op) in visited:
            return
        visited.add(id(op))
        pipeline.append(op)
        op.assigned_phase = op.phase_name or consumer_phase
        for pos, up in enumerate(op.upstreams):
            if _edge_is_fused(op, pos, up):
                visit(up, pipeline, op.assigned_phase)
            else:
                fresh: list[Operator] = []
                visit(up, fresh, op.assigned_phase)
                if fresh:
                    pipelines.append(fresh)

    top: list[Operator] = []
    visit(root, top, root.phase_name or "other")
    pipelines.append(top)

    for pipeline in pipelines:
        size = len(pipeline)
        if any(op.heavy_loop for op in pipeline):
            size = max(size, _HEAVY_PIPELINE_SIZE)
        for op in pipeline:
            op.pipeline_size = size
    return pipelines


def prepare(root: Operator) -> Operator:
    """Compile a plan: cut the DAG into pipelines and annotate operators.

    Idempotent; returns ``root`` for chaining.  Must run before execution —
    :func:`repro.core.executor.execute` calls it automatically.  Safe to
    call from several threads at once: the first call rewrites
    ``upstreams``, so a racing second pass could cut the plan differently.
    """
    if getattr(root, "_prepared", False):
        return root
    with _PREPARE_LOCK:
        if getattr(root, "_prepared", False):
            return root
        scopes = [root]
        while scopes:
            scope_root = scopes.pop()
            _insert_shared_scans(scope_root)
            _assign_pipelines_and_phases(scope_root)
            for op in walk(scope_root):
                scopes.extend(op.nested_roots())
        root._prepared = True
    return root


def explain(root: Operator, indent: str = "") -> str:
    """Render a plan tree as text (nested plans included)."""
    lines: list[str] = []

    def emit(op: Operator, depth: int) -> None:
        pad = indent + "  " * depth
        lines.append(
            f"{pad}{op.abbreviation} {type(op).__name__}"
            f" -> {op.output_type!r} [phase={op.assigned_phase}]"
        )
        for up in op.upstreams:
            emit(up, depth + 1)
        for nested in op.nested_roots():
            lines.append(f"{pad}  (nested plan)")
            emit(nested, depth + 2)

    emit(root, 0)
    return "\n".join(lines)
