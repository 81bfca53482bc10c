"""Type-flow verification pass (rules MOD001–MOD005).

Every operator class declares one type rule,
:meth:`~repro.core.operator.Operator.infer_type`, and its constructor types
the node by running it.  Constructors only see the plan as it is being
built; plan *rewrites* (``prepare``'s SharedScan insertion, optimizer
splices, hand-patched ``upstreams``) happen afterwards and can silently
break the invariants the rule checked.  This pass restores the guarantee
statically by running the *same* rule again over the finished plan: a
violation is reported under the rule id its
:class:`~repro.errors.TypeCheckError` carries (MOD002–MOD004, and MOD001
for a stale nested plan), a changed result as MOD001.  The pass knows no
operator class; a class that declares no rule is not re-checked.

Using declared (not propagated) upstream types keeps diagnostics local:
one broken edge produces one finding at the broken operator, not a cascade
of downstream mismatches.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Reporter, unwrap
from repro.analysis.structure import ScopeInfo, scope_paths
from repro.core.operator import Operator
from repro.core.plan import walk
from repro.errors import PlanError, TypeCheckError

__all__ = ["run"]


def _yields_exactly_one(op: Operator) -> bool:
    """Statically prove the subtree emits exactly one tuple per run."""
    if op.cardinality == "one":
        return True
    if op.cardinality == "per_input":
        return _yields_exactly_one(op.upstreams[0])
    if op.cardinality == "all_upstreams":
        return all(_yields_exactly_one(up) for up in op.upstreams)
    return False


def run(scope: ScopeInfo, reporter: Reporter) -> None:
    """Type-check one scope, reporting through ``reporter``."""
    paths = scope_paths(scope)
    for op in walk(scope.root):
        path = paths[id(op)]
        try:
            declared = op.output_type
            inferred = op.infer_type(tuple(up.output_type for up in op.upstreams))
        except (TypeCheckError, PlanError) as exc:
            reporter.emit(exc.rule_id, op, path, str(exc))
            continue
        if inferred is not None and inferred != declared:
            reporter.emit(
                "MOD001", op, path,
                f"declared output type {declared!r} disagrees with "
                f"{inferred!r} re-inferred from the upstream edges",
            )
        if op.cardinality != "per_input":
            continue
        # An operator emitting one tuple per input *because* it runs a
        # nested plan per input needs that plan to yield exactly one.
        for inner in op.nested_roots():
            if not _yields_exactly_one(inner):
                reporter.emit(
                    "MOD005", op, path,
                    f"{type(op).__name__}'s nested plan (root "
                    f"{type(unwrap(inner)).__name__}) is not proven to yield "
                    "exactly one tuple per invocation; end it with "
                    "MaterializeRowVector/MaterializeChunks",
                )
