"""Plan traversal and structural equivalence for the static analyzer.

Two concerns shared by every analysis pass live here:

* **Scopes.**  A plan is a tree of *scopes*: the driver plan, plus one
  nested scope per ``NestedMap``/``MpiExecutor`` nested plan.  Each scope
  carries the facts the passes reason about — whether it executes inside an
  MPI worker, whether it sits under a per-tuple ``NestedMap`` loop, and
  which parameter slots are visible to it.

* **Structural equivalence.**  The plan compiler
  (:func:`repro.core.plan.prepare`) rewrites multi-consumer edges: shared
  operators get wrapped in ``SharedScan`` and base-table scan chains are
  *cloned* per consumer.  Analyses must give the same verdict before and
  after that rewrite, so "the same data stream" cannot mean object
  identity — :func:`equivalent_streams` compares signatures that see
  through ``SharedScan`` and match clones of the same chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.functions import PartitionFunction
from repro.core.operator import Operator
from repro.core.operators.mpi_executor import MpiExecutor
from repro.core.operators.nested_map import NestedMap
from repro.core.plan import SharedScan, walk
from repro.analysis.diagnostics import unwrap

__all__ = [
    "ScopeInfo",
    "iter_scopes",
    "scope_paths",
    "plan_signature",
    "same_partition_fn",
    "equivalent_streams",
]


@dataclass(frozen=True)
class ScopeInfo:
    """One scope of a plan: the driver plan or one nested plan."""

    root: Operator
    #: The NestedMap/MpiExecutor owning this nested plan; None at the top.
    owner: Operator | None
    #: Plan-node path of the scope root (diagnostic prefix).
    path: str
    #: True inside an MpiExecutor's nested plan (runs on MPI workers).
    in_cluster: bool
    #: True inside a per-tuple NestedMap loop (invocation count is
    #: data-dependent).
    in_nested_map: bool
    #: Slot ids introduced since entering the innermost MpiExecutor scope —
    #: the only bindings a worker's fresh context can see.
    cluster_slots: frozenset[int]


def iter_scopes(root: Operator, path: str = "plan") -> Iterator[ScopeInfo]:
    """Yield every scope of the plan, outermost first (pre-order)."""
    pending = [ScopeInfo(root, None, path, False, False, frozenset())]
    while pending:
        scope = pending.pop(0)
        yield scope
        paths = scope_paths(scope)
        for op in walk(scope.root):
            # A nested scope inherits its facts unless its owner is one of
            # the two operators that change them.
            in_cluster, in_nested_map = scope.in_cluster, scope.in_nested_map
            slots = scope.cluster_slots
            if isinstance(op, MpiExecutor):
                in_cluster, in_nested_map = True, False
                slots = frozenset({op.slot.id})
            elif isinstance(op, NestedMap):
                in_nested_map = True
                slots = slots | {op.slot.id} if in_cluster else frozenset()
            for inner in op.nested_roots():
                pending.append(
                    ScopeInfo(
                        inner, op, f"{paths[id(op)]}@inner",
                        in_cluster, in_nested_map, slots,
                    )
                )


def scope_paths(scope: ScopeInfo) -> dict[int, str]:
    """Path of every operator in one scope, keyed by ``id(op)``.

    ``SharedScan`` wrappers are skipped so paths are stable across
    ``prepare``; a node shared by several consumers keeps its first path.
    """
    paths: dict[int, str] = {}

    def visit(op: Operator, path: str) -> None:
        if isinstance(op, SharedScan):
            # Transparent: the wrapped operator takes the wrapper's place.
            paths.setdefault(id(op), path)
            visit(op.upstreams[0], path)
            return
        segment = f"{path}/{type(op).__name__}"
        if id(op) in paths:
            return
        paths[id(op)] = segment
        for pos, up in enumerate(op.upstreams):
            visit(up, f"{segment}.{pos}")

    visit(scope.root, scope.path)
    return paths


# -- structural signatures ------------------------------------------------------


def plan_signature(op: Operator) -> tuple:
    """A hashable structural fingerprint of the subtree rooted at ``op``.

    Equal signatures mean the subtrees provably compute the same stream
    (same operator classes, same static parameters as each class declares
    them in :meth:`~repro.core.operator.Operator.signature`, same slot
    references); ``SharedScan`` wrappers are transparent.
    """
    op = unwrap(op)
    return (
        type(op).__name__,
        op.signature(),
        tuple(plan_signature(up) for up in op.upstreams),
    )


def same_partition_fn(a: PartitionFunction, b: PartitionFunction) -> bool:
    """True if the two functions declare the same class and static parameters."""
    return a is b or a.signature() == b.signature()


def equivalent_streams(a: Operator, b: Operator) -> bool:
    """True if ``a`` and ``b`` provably produce the same tuple stream."""
    a, b = unwrap(a), unwrap(b)
    return a is b or plan_signature(a) == plan_signature(b)
