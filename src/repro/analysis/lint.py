"""Public analyzer entry points and the ``repro lint`` target resolver.

``analyze(plan)`` runs all three passes over every scope of a plan and
returns the findings; ``verify(plan)`` raises
:class:`~repro.errors.PlanVerificationError` when any finding is an error.
Both accept either a root :class:`~repro.core.operator.Operator` or any
object with a ``.root`` operator attribute (the shipped ``*Plan``
dataclasses).

The CLI half resolves lint *targets*: builtin plan names (the four
canonical plans, built with small representative schemas), Python files,
or directories of Python files.  A file participates by exposing a
module-level ``lint_plans()`` function returning ``(name, plan)`` pairs —
importing a file never executes it (``repro lint`` relies on the usual
``if __name__ == "__main__"`` guard).  A hook that fails while building a
plan (an operator's type rule refusing it) is reported as one error
diagnostic under the exception's rule id, and the other targets are still
linted.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis import commsafety, pipelines, recovery, typeflow
from repro.analysis.diagnostics import RULES, Diagnostic, Reporter, Severity
from repro.analysis.structure import iter_scopes
from repro.core.operator import Operator
from repro.errors import PlanError, PlanVerificationError, TypeCheckError

__all__ = ["analyze", "verify", "run_cli"]

_PASSES = (typeflow.run, commsafety.run, pipelines.run, recovery.run)


def _as_root(plan: object) -> Operator:
    if isinstance(plan, Operator):
        return plan
    root = getattr(plan, "root", None)
    if isinstance(root, Operator):
        return root
    raise PlanError(
        f"cannot analyze {plan!r}: expected an Operator or an object with "
        "a `.root` operator"
    )


def analyze(
    plan: object, suppress: Iterable[str] = (), name: str = "plan"
) -> list[Diagnostic]:
    """Statically analyze a plan; returns findings, worst first."""
    root = _as_root(plan)
    reporter = Reporter(suppress)
    for scope in iter_scopes(root, path=name):
        for run_pass in _PASSES:
            run_pass(scope, reporter)
    return sorted(
        reporter.diagnostics,
        key=lambda d: (-int(d.severity), d.rule.id, d.path),
    )


def verify(
    plan: object, suppress: Iterable[str] = (), name: str = "plan"
) -> list[Diagnostic]:
    """Like :func:`analyze`, but raise on error-severity findings."""
    diagnostics = analyze(plan, suppress=suppress, name=name)
    errors = [d for d in diagnostics if d.is_error]
    if errors:
        listing = "\n".join(f"  {d.format()}" for d in errors)
        raise PlanVerificationError(
            f"plan failed static verification with {len(errors)} error(s):\n"
            f"{listing}",
            errors,
        )
    return diagnostics


# -- `repro lint` target resolution ---------------------------------------------


def _builtin_plans(name: str, machines: int) -> Iterator[tuple[str, object]]:
    """Build a canonical plan by name with small representative schemas."""
    from repro.core.plans import (
        build_broadcast_join,
        build_distributed_groupby,
        build_distributed_join,
        build_join_sequence,
    )
    from repro.mpi.cluster import SimCluster
    from repro.types.atoms import INT64
    from repro.types.tuples import TupleType

    cluster = SimCluster(machines)
    if name in ("join", "all"):
        yield "join", build_distributed_join(
            cluster,
            TupleType.of(key=INT64, lpay=INT64),
            TupleType.of(key=INT64, rpay=INT64),
        )
    if name in ("groupby", "all"):
        yield "groupby", build_distributed_groupby(
            cluster, TupleType.of(key=INT64, value=INT64)
        )
    if name in ("broadcast_join", "all"):
        yield "broadcast_join", build_broadcast_join(
            cluster,
            TupleType.of(key=INT64, spay=INT64),
            TupleType.of(key=INT64, bpay=INT64),
        )
    if name in ("join_sequence", "all"):
        for variant in ("naive", "optimized"):
            yield f"join_sequence[{variant}]", build_join_sequence(
                cluster,
                [
                    TupleType.of(key=INT64, a=INT64),
                    TupleType.of(key=INT64, b=INT64),
                    TupleType.of(key=INT64, c=INT64),
                ],
                variant=variant,
            )


BUILTIN_TARGETS = ("join", "groupby", "broadcast_join", "join_sequence", "all")


def _file_plans(path: Path) -> Iterator[tuple[str, object]]:
    """Import ``path`` and collect the plans its ``lint_plans()`` exposes."""
    spec = importlib.util.spec_from_file_location(
        f"_repro_lint_{path.stem}", path
    )
    if spec is None or spec.loader is None:  # pragma: no cover - defensive
        raise PlanError(f"cannot import {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    hook = getattr(module, "lint_plans", None)
    if hook is None:
        return
    built = 0
    try:
        for name, plan in hook():
            yield f"{path.name}:{name}", plan
            built += 1
    except (TypeCheckError, PlanError) as exc:
        # The hook failed while *building* its next plan; what it yielded
        # so far is still linted, and the failure is reported in its place.
        yield f"{path.name}:lint_plans()[{built}]", exc


def _resolve_targets(
    targets: Iterable[str], machines: int
) -> Iterator[tuple[str, object]]:
    for target in targets:
        if target in BUILTIN_TARGETS:
            yield from _builtin_plans(target, machines)
            continue
        path = Path(target)
        if path.is_dir():
            for file in sorted(path.glob("*.py")):
                if not file.name.startswith("_"):
                    yield from _file_plans(file)
        elif path.is_file():
            yield from _file_plans(path)
        else:
            raise PlanError(
                f"unknown lint target {target!r}: not a builtin plan "
                f"({', '.join(BUILTIN_TARGETS)}), file, or directory"
            )


def run_cli(args) -> int:
    """Body of ``repro lint`` (argparse namespace in, exit code out)."""
    suppress = tuple(args.suppress or ())
    try:
        Reporter(suppress)  # validate rule ids before any work
        plans = list(_resolve_targets(args.targets, args.machines))
    except (PlanError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    findings: list[Diagnostic] = []
    checked = 0
    for name, plan in plans:
        if isinstance(plan, (TypeCheckError, PlanError)):
            findings.append(
                Diagnostic(
                    rule=RULES[plan.rule_id], severity=Severity.ERROR,
                    message=str(plan), path=name, operator="",
                )
            )
            continue
        checked += 1
        findings.extend(analyze(plan, suppress=suppress, name=name))

    if args.format == "json":
        print(
            json.dumps(
                {
                    "plans": checked,
                    "diagnostics": [d.to_dict() for d in findings],
                },
                indent=2,
                ensure_ascii=False,
            )
        )
    else:
        for diagnostic in findings:
            print(diagnostic.format())
        errors = sum(d.is_error for d in findings)
        warnings = sum(d.severity == Severity.WARNING for d in findings)
        print(
            f"checked {checked} plan(s): {errors} error(s), "
            f"{warnings} warning(s), "
            f"{len(findings) - errors - warnings} note(s)"
        )
    if checked == 0:
        print("warning: no plans found to lint", file=sys.stderr)
    return 1 if any(d.is_error for d in findings) else 0
