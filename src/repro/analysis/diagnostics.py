"""Diagnostics, severities, and the rule registry of the static analyzer.

Every check the analyzer performs is a *rule* with a stable ``MOD0xx``
identifier (catalogued in ``docs/static_analysis.md``), a default severity,
and a one-line summary.  A finding is a :class:`Diagnostic`: the rule, the
severity (usually the rule's default), the offending operator, its path
inside the plan tree, and a human-readable message.

Rules can be silenced globally (``analyze(root, suppress={"MOD023"})``) or
per plan node (``op.suppress("MOD023")`` — see
:meth:`repro.core.operator.Operator.suppress`); suppressions are how plans
record *intentional* deviations, e.g. the join-sequence plans deliberately
shipping uncompressed tuples so both Figure 4 variants use the same wire
format.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable

from repro.core.operator import Operator
from repro.core.plan import SharedScan

__all__ = [
    "Severity",
    "Rule",
    "RULES",
    "Diagnostic",
    "Reporter",
    "unwrap",
]


class Severity(IntEnum):
    """How bad a diagnostic is; ``ERROR`` fails verification."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, name: str) -> "Severity":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {name!r}; pick one of "
                f"{[str(s) for s in cls]}"
            ) from None


@dataclass(frozen=True)
class Rule:
    """One static check, stable across releases."""

    id: str
    name: str
    severity: Severity
    summary: str


#: The rule catalog, keyed by rule id.  ``docs/static_analysis.md`` is the
#: narrative version; ``tests/test_docs_consistency.py``-style drift is
#: prevented by the analysis tests asserting on these ids.
RULES: dict[str, Rule] = {}


def _rule(id: str, name: str, severity: Severity, summary: str) -> Rule:
    rule = Rule(id, name, severity, summary)
    RULES[id] = rule
    return rule


# -- type-flow verification (MOD001–MOD009) -----------------------------------

MOD001 = _rule(
    "MOD001", "type-mismatch", Severity.ERROR,
    "an operator's declared output type disagrees with the type re-inferred "
    "from its upstream edges",
)
MOD002 = _rule(
    "MOD002", "unknown-field", Severity.ERROR,
    "an operator references fields its upstream type does not provide, or "
    "combines upstreams with clashing field names",
)
MOD003 = _rule(
    "MOD003", "collection-mismatch", Severity.ERROR,
    "a field is used as a collection but is an atom (or the wrong physical "
    "collection format), or a wire-format or key-domain constraint is violated",
)
MOD004 = _rule(
    "MOD004", "histogram-contract", Severity.ERROR,
    "a histogram-consuming operator's histogram upstream does not produce "
    "the canonical ⟨bucket, count⟩ histogram type",
)
MOD005 = _rule(
    "MOD005", "nested-output-contract", Severity.ERROR,
    "a NestedMap nested plan does not end in a materializing operator, so "
    "it cannot be proven to yield exactly one tuple per invocation",
)
MOD006 = _rule(
    "MOD006", "cross-scope-parameter", Severity.ERROR,
    "a ParameterLookup inside an MpiExecutor references a slot bound "
    "outside the worker scope (driver bindings do not reach workers)",
)

# -- communication safety (MOD010–MOD019) -------------------------------------

MOD010 = _rule(
    "MOD010", "comm-outside-cluster", Severity.ERROR,
    "an MPI operator appears in a driver-side scope, outside any "
    "MpiExecutor; it would fail at runtime asking for a communicator",
)
MOD011 = _rule(
    "MOD011", "nested-mpi-executor", Severity.ERROR,
    "an MpiExecutor appears inside another MpiExecutor's nested plan",
)
MOD012 = _rule(
    "MOD012", "exchange-histogram-discipline", Severity.ERROR,
    "an MpiExchange/MpiBroadcast cannot be statically proven race-free: "
    "its histogram ladder does not derive from the exchanged data with the "
    "exchange's own partition function, so one-sided write regions are not "
    "provably disjoint and the window capacity is not derivable",
)
MOD013 = _rule(
    "MOD013", "collective-in-nested-loop", Severity.ERROR,
    "a collective operator appears inside a per-tuple NestedMap scope or "
    "below a Limit; the invocation count is data-dependent and may differ "
    "across ranks, deadlocking the collective",
)

# -- pipeline / materialization lint (MOD020–MOD029) --------------------------

MOD020 = _rule(
    "MOD020", "shared-materialization", Severity.INFO,
    "an operator has several consumers; the plan compiler cuts the DAG "
    "here (SharedScan materialization, or a per-consumer re-scan for base "
    "tables)",
)
MOD021 = _rule(
    "MOD021", "duplicate-subtree", Severity.WARNING,
    "structurally identical cost-bearing subtrees are computed more than "
    "once; reusing one operator instance would share the work through a "
    "single materialization point",
)
MOD022 = _rule(
    "MOD022", "dead-operator", Severity.WARNING,
    "an operator statically does nothing (identity projection) or makes "
    "its whole upstream dead (Limit 0)",
)
MOD023 = _rule(
    "MOD023", "uncompressed-exchange", Severity.INFO,
    "an MpiExchange ships ⟨key, payload⟩ INT64 tuples without radix "
    "compression; packing would halve the network volume (paper §4.1.1)",
)

# -- recovery soundness (MOD030–MOD039) ----------------------------------------

MOD030 = _rule(
    "MOD030", "unprotected-nondeterministic-exchange", Severity.WARNING,
    "a non-deterministic operator feeds an MPI exchange/broadcast with no "
    "materialization point between; a fault-recovery re-execution would "
    "ship different data than the attempt it replaces",
)
MOD031 = _rule(
    "MOD031", "nondeterministic-in-worker", Severity.WARNING,
    "a non-deterministic operator runs inside an MpiExecutor worker scope; "
    "pipeline-stage re-execution after an injected fault cannot reproduce "
    "the lost attempt's results",
)
MOD032 = _rule(
    "MOD032", "uncheckpointable-stage-output", Severity.INFO,
    "an MpiExecutor nested plan does not end in a materializing operator, "
    "so pipeline-level recovery cannot checkpoint the stage output at a "
    "materialization point",
)

# -- runtime advisories (MOD040–MOD049) ----------------------------------------
# Unlike the static rules above these need a measured execution: they run
# over a MetricsSnapshot (repro.analysis.runtime), not over the plan DAG.

MOD040 = _rule(
    "MOD040", "shuffle-amplification", Severity.INFO,
    "the recorded shuffle volume exceeds a configurable multiple of the "
    "plan's input bytes; the exchange is re-shipping data the plan could "
    "have reduced (pre-aggregation, projection pushdown, broadcast of the "
    "small side) before the network partition",
)

# -- runtime sanitizer (MOD050–MOD059) -----------------------------------------
# The second verification layer: these rules fire from the simulated
# substrate itself.  MOD050/051 are refused by the substrate on every run
# (MpiSemanticsError); under ``RunOptions(sanitize=True)``
# (repro.analysis.sanitizer) MOD050, 052 and 053 carry operator provenance
# recovered from the data-path instrumentation, as a Diagnostic.  A plan's
# waves issue each collective once for all ranks, so MOD051 is refused only
# in SPMD functions on rank threads.

MOD050 = _rule(
    "MOD050", "rma-write-set-race", Severity.ERROR,
    "two one-sided puts touched overlapping rows of the same window within "
    "one epoch, or a put landed outside the window's capacity; the epoch "
    "discipline (paper §3.3) that makes RDMA writes safe is violated",
)
MOD051 = _rule(
    "MOD051", "collective-schedule-divergence", Severity.ERROR,
    "ranks issued diverging collective call sequences (different tags at "
    "the same call index, or different call counts); on real MPI this "
    "deadlocks the job instead of failing fast",
)
MOD052 = _rule(
    "MOD052", "window-lifetime", Severity.ERROR,
    "an RMA window was misused across its lifetime: a put was never "
    "completed by a closing fence, remotely-written rows were read before "
    "the epoch's fence, or a window was accessed after its job closed it",
)
MOD053 = _rule(
    "MOD053", "nondeterministic-exchange-payload", Severity.ERROR,
    "replaying the plan shipped different bytes through an exchange "
    "boundary even though every feeding operator claims deterministic=True; "
    "the recovery tier (MOD030/031) is trusting a mislabeled operator",
)


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding, bound to a plan node."""

    rule: Rule
    severity: Severity
    message: str
    path: str
    operator: str

    @property
    def is_error(self) -> bool:
        return self.severity >= Severity.ERROR

    def format(self) -> str:
        return (
            f"{self.rule.id} {self.severity} [{self.rule.name}] "
            f"{self.path}: {self.message}"
        )

    def to_dict(self) -> dict:
        return {
            "rule": self.rule.id,
            "name": self.rule.name,
            "severity": str(self.severity),
            "message": self.message,
            "path": self.path,
            "operator": self.operator,
        }


def unwrap(op: Operator) -> Operator:
    """See through the plan compiler's ``SharedScan`` materialization wrappers.

    Analyses must give the same verdict before and after
    :func:`repro.core.plan.prepare`, which rewrites multi-consumer edges.
    """
    while isinstance(op, SharedScan):
        op = op.upstreams[0]
    return op


class Reporter:
    """Collects diagnostics, honoring global and per-node suppressions."""

    def __init__(self, suppress: Iterable[str] = ()) -> None:
        self.suppressed = frozenset(suppress)
        unknown = self.suppressed - set(RULES)
        if unknown:
            raise ValueError(f"cannot suppress unknown rules {sorted(unknown)}")
        self.diagnostics: list[Diagnostic] = []

    def emit(
        self,
        rule_id: str,
        op: Operator,
        path: str,
        message: str,
        severity: Severity | None = None,
    ) -> None:
        rule = RULES[rule_id]
        if rule_id in self.suppressed or rule_id in op.lint_suppressions:
            return
        self.diagnostics.append(
            Diagnostic(
                rule=rule,
                severity=rule.severity if severity is None else severity,
                message=message,
                path=path,
                operator=type(unwrap(op)).__name__,
            )
        )
