"""Runtime advisories: lint rules that need a measured execution.

The static analyzer (:mod:`repro.analysis.lint`) judges the plan DAG
before any data flows.  A few smells only show up in the numbers — the
plan is well-formed but the *measured* behaviour is wasteful.  These
rules (MOD040+) run over the :class:`~repro.observability.metrics.MetricsSnapshot`
of an executed plan and report the same :class:`~repro.analysis.diagnostics.Diagnostic`
objects as the static rules, so renderers and suppression lists treat
them uniformly.

Typical use (also behind ``repro metrics``)::

    report = execute(plan, params=..., options=RunOptions(metrics=True))
    findings = analyze_runtime(report.metrics)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.diagnostics import MOD040, Diagnostic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.metrics import MetricsSnapshot

__all__ = ["SHUFFLE_AMPLIFICATION_FACTOR", "analyze_runtime"]

#: MOD040 fires when shuffle bytes exceed this multiple of the plan's
#: input bytes.  A plain repartition ships each tuple once (factor ≈ 1);
#: a factor beyond 2 means the exchange moved substantially more data
#: than the query read.
SHUFFLE_AMPLIFICATION_FACTOR = 2.0


def analyze_runtime(
    snapshot: "MetricsSnapshot | None",
    shuffle_amplification_factor: float = SHUFFLE_AMPLIFICATION_FACTOR,
) -> list[Diagnostic]:
    """Advisory findings over one execution's metrics snapshot.

    Args:
        snapshot: ``ExecutionReport.metrics`` of a run under
            ``RunOptions(metrics=True)``; ``None`` yields no findings.
        shuffle_amplification_factor: MOD040 threshold — the multiple of
            ``plan_input_bytes`` the recorded ``shuffle_bytes`` may reach
            before the advisory fires.
    """
    if snapshot is None:
        return []
    findings: list[Diagnostic] = []
    input_bytes = snapshot.total("plan_input_bytes")
    shuffle_bytes = snapshot.total("shuffle_bytes")
    if input_bytes > 0 and shuffle_bytes > shuffle_amplification_factor * input_bytes:
        findings.append(
            Diagnostic(
                rule=MOD040,
                severity=MOD040.severity,
                message=(
                    f"shuffled {shuffle_bytes} bytes against "
                    f"{input_bytes} input bytes "
                    f"({shuffle_bytes / input_bytes:.1f}x, threshold "
                    f"{shuffle_amplification_factor:.1f}x); consider "
                    "pre-aggregation, projection pushdown, or a broadcast "
                    "join of the small side"
                ),
                path="<metrics>",
                operator="MpiExchange",
            )
        )
    return findings
