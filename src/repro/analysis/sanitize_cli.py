"""Sanitizer soaks: execute plans with the MOD05x runtime sanitizer armed.

Backs the ``repro sanitize`` CLI subcommand.  A *soak* runs a target plan
under one policy of the chaos matrix twice — once plain, once with
``sanitize=True`` — and demands three things:

* the sanitizer report is **clean** (no MOD050–MOD053 finding and no
  :class:`~repro.analysis.sanitizer.SanitizerError` raised mid-run);
* the sanitized results are **bit-identical** to the unsanitized run
  under the same fault policy (the sanitizer observes, it must never
  perturb);
* the determinism replay actually ran (``replayed`` in the report).

Targets come from the catalogue in :mod:`repro.workloads.targets`; the
matrix loop, reporting and exit code are the shared runner of
:mod:`repro.workloads.matrix`.  The policies are named points of the
``repro chaos`` flag space: fault-free, transient comm faults, a
permanent mid-stage crash (degraded n-1 rerun), and planner-level
memory pressure.
"""

from __future__ import annotations

from repro.core.options import RunOptions
from repro.faults.chaos import build_policy

__all__ = ["check", "matrix_policies", "run_cli", "ALL_POLICIES"]

#: Policy name → the ``build_policy`` flags it stands for (``None``: no faults).
_POLICY_FLAGS = {
    "clean": None,
    "transient": {},
    "degrade": {"crash_rank": 1, "crash_after": 4, "permanent": True},
    "pressure": {"memory_pressure": True},
}
ALL_POLICIES = tuple(_POLICY_FLAGS)


def matrix_policies(names, seed: int):
    """Resolve chaos-matrix policy names to ``(name, FaultPolicy | None)``."""
    policies = []
    for name in names:
        flags = _POLICY_FLAGS[name]
        policies.append(
            (name, None if flags is None else build_policy(seed, **flags))
        )
    return policies


def check(target, cell) -> dict:
    """Run ``target`` plain and sanitized under ``cell``; return a verdict.

    ``cell`` is ``(mode, policy name, FaultPolicy | None)``.  A finding
    raised mid-run (MOD050–MOD052 :class:`SanitizerError`) is a failed
    verdict carrying the ``error`` text — shipped plans must never
    trigger one.
    """
    from repro.analysis.sanitizer import SanitizerError
    from repro.relational.interpreter import frames_match

    mode, policy_name, policy = cell
    options = RunOptions(mode=mode, faults=policy)
    verdict = {
        "target": target.name,
        "mode": mode,
        "seed": policy.seed if policy is not None else None,
    }
    try:
        plain = target.columns(target.run(options))
        sanitized = target.run(options.replace(sanitize=True))
    except SanitizerError as exc:
        verdict.update(
            ok=False, identical=False, error=str(exc), sanitizer=None,
            simulated_time=None,
        )
    else:
        report = sanitized.sanitizer
        identical = frames_match(plain, target.columns(sanitized), 0.0, ordered=True)
        verdict.update(
            ok=report.clean and identical,
            identical=identical,
            sanitizer=report.to_dict(),
            simulated_time=sanitized.simulated_time,
            **target.planner_choice(),
        )
    verdict["policy"] = policy_name
    return verdict


def _line(verdict: dict) -> str:
    report = verdict["sanitizer"]
    if report is not None:
        detail = (
            f"{report['puts_checked']} puts "
            f"{report['collectives_checked']} collectives "
            f"{report['windows_tracked']} windows"
        )
        if report["diagnostics"]:
            detail += f"  findings={len(report['diagnostics'])}"
    else:
        detail = verdict.get("error", "no report")
    return f"policy={verdict['policy']:<9} {detail}"


def run_cli(args) -> int:
    """Body of ``repro sanitize`` (argparse namespace in, exit code out)."""
    import sys

    from repro.workloads.matrix import SoakMatrix

    try:
        matrix = SoakMatrix("sanitize", args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    policies = matrix_policies(args.policies or ALL_POLICIES, args.seed)
    matrix.run(
        [(args.mode, name, policy) for name, policy in policies], check, _line
    )
    summary = matrix.summary(policies=[name for name, _ in policies])
    return matrix.finish(
        {"summary": summary, "soaks": matrix.verdicts},
        claim="clean and bit-identical under the chaos matrix",
        problem="had sanitizer findings or diverging results",
    )
