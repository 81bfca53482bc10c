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
:mod:`repro.workloads.matrix`.  The policies are chaos profiles
(:func:`repro.faults.policy.fault_profile`); by default fault-free,
transient comm faults, a permanent mid-stage crash (degraded n-1
rerun), and planner-level memory pressure.
"""

from __future__ import annotations

from repro.core.options import RunOptions
from repro.faults.policy import fault_profile

__all__ = ["check", "run_cli"]


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
        cells = [
            (args.mode, name, fault_profile(name, args.seed, args.machines))
            for name in args.policies
        ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    matrix.run(cells, check, _line)
    summary = matrix.summary(policies=list(args.policies))
    return matrix.finish(
        {"summary": summary, "soaks": matrix.verdicts},
        claim="clean and bit-identical under the chaos matrix",
        problem="had sanitizer findings or diverging results",
    )
