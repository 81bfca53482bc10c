"""Tenant and handle SLO latency accounting over the query journals.

A completed query's latency is its journal's end-to-end *simulated*
seconds (the retry chain included: backoff + all attempts).  Against an
:class:`SLOConfig`, every *considered* settlement — completed, failed or
deadline-missed — either meets the objective or burns error budget:
completions over the latency target, terminal failures and deadline
misses burn; cancellations are client actions and shed/rejected
submissions never ran, so the SLO does not speak about them.

:func:`build_slo_report` folds a server's journals into the ``repro
slo`` report: per-tenant and per-handle p50/p95/p99 estimates
(:func:`~repro.observability.metrics.bucket_quantile` over
:data:`SERVING_LATENCY_BOUNDS`), burn counts, and the burn-rate verdict
against the configured objective.  A tenant or handle appears as soon as
it has one considered settlement, whether or not anything completed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

from repro.observability.metrics import Histogram, exponential_bounds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.tracing import QueryJournal

__all__ = [
    "CONSIDERED",
    "SERVING_LATENCY_BOUNDS",
    "SLOConfig",
    "SLOEntry",
    "SLOReport",
    "build_slo_report",
]

#: Bucket layout of the serving latency histograms: powers of two from
#: 10µs to ~84s.  Finer than the default metric bounds so quantile
#: estimates stay non-degenerate across a mixed query workload.
SERVING_LATENCY_BOUNDS = exponential_bounds(start=1e-5, factor=2.0, count=24)

#: Terminal states the SLO speaks about — the burn-rate denominator.
CONSIDERED = ("completed", "failed", "deadline_missed")


@dataclass(frozen=True)
class SLOConfig:
    """Latency objective for served queries.

    Attributes:
        target_seconds: End-to-end simulated-latency target; a completed
            query slower than this burns error budget.
        objective: Fraction of settled queries that must meet the target
            (e.g. 0.99 → a 1% error budget).
        per_tenant: ``(tenant, target_seconds)`` overrides.
    """

    target_seconds: float = 1.0
    objective: float = 0.99
    per_tenant: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.target_seconds <= 0:
            raise ValueError(
                f"SLO target must be positive, got {self.target_seconds}"
            )
        if not 0.0 < self.objective <= 1.0:
            raise ValueError(
                f"SLO objective must be in (0, 1], got {self.objective}"
            )

    def target_for(self, tenant: str) -> float:
        for name, target in self.per_tenant:
            if name == tenant:
                return target
        return self.target_seconds

    def burns(self, journal: "QueryJournal") -> bool:
        """Whether one settled journal burned error budget."""
        if journal.terminal == "completed":
            return journal.total_seconds > self.target_for(journal.tenant)
        return journal.terminal in CONSIDERED

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective


@dataclass(frozen=True)
class SLOEntry:
    """One tenant's (or handle's) latency/burn accounting."""

    #: ``tenant`` or ``handle``.
    scope: str
    name: str
    target_seconds: float
    objective: float
    #: Queries that completed successfully (latency samples).
    completed: int
    #: Settled queries that burned error budget (slow + failed +
    #: deadline-missed; cancellations excluded).
    burned: int
    #: All settled queries considered for the burn rate.
    considered: int
    p50: float
    p95: float
    p99: float

    @property
    def burn_rate(self) -> float:
        if self.considered <= 0:
            return 0.0
        return self.burned / self.considered

    @property
    def ok(self) -> bool:
        return self.burn_rate <= (1.0 - self.objective) + 1e-12

    def as_dict(self) -> dict[str, Any]:
        return {
            "scope": self.scope,
            "name": self.name,
            "target_seconds": self.target_seconds,
            "objective": self.objective,
            "completed": self.completed,
            "burned": self.burned,
            "considered": self.considered,
            "burn_rate": self.burn_rate,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class SLOReport:
    """The ``repro slo`` report: per-tenant and per-handle entries."""

    config: SLOConfig
    tenants: tuple[SLOEntry, ...]
    handles: tuple[SLOEntry, ...]

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.tenants + self.handles)

    def tenant(self, name: str) -> SLOEntry | None:
        for entry in self.tenants:
            if entry.name == name:
                return entry
        return None

    def as_dict(self) -> dict[str, Any]:
        return {
            "target_seconds": self.config.target_seconds,
            "objective": self.config.objective,
            "ok": self.ok,
            "tenants": [entry.as_dict() for entry in self.tenants],
            "handles": [entry.as_dict() for entry in self.handles],
        }

    def render(self) -> str:
        lines = [
            f"SLO: target {self.config.target_seconds:g}s simulated, "
            f"objective {self.config.objective:.2%} "
            f"(error budget {self.config.error_budget:.2%})"
        ]
        for scope, entries in (("tenant", self.tenants), ("handle", self.handles)):
            for entry in entries:
                verdict = "ok" if entry.ok else "BURNING"
                lines.append(
                    f"  {scope} {entry.name}: p50={entry.p50 * 1e3:.3f}ms "
                    f"p95={entry.p95 * 1e3:.3f}ms p99={entry.p99 * 1e3:.3f}ms "
                    f"({entry.completed} completed); burn "
                    f"{entry.burned}/{entry.considered} "
                    f"({entry.burn_rate:.2%}) -> {verdict}"
                )
        if len(lines) == 1:
            lines.append("  no settled queries observed")
        return "\n".join(lines)


def _entries(
    journals: list["QueryJournal"], config: SLOConfig, scope: str
) -> tuple[SLOEntry, ...]:
    groups: dict[str, list["QueryJournal"]] = {}
    for journal in journals:
        if journal.terminal in CONSIDERED:
            groups.setdefault(getattr(journal, scope), []).append(journal)
    entries = []
    for name, group in sorted(groups.items()):
        latency = Histogram(SERVING_LATENCY_BOUNDS)
        for journal in group:
            if journal.terminal == "completed":
                latency.observe(journal.total_seconds)
        entries.append(
            SLOEntry(
                scope=scope,
                name=name,
                target_seconds=(
                    config.target_for(name) if scope == "tenant"
                    else config.target_seconds
                ),
                objective=config.objective,
                completed=latency.count,
                burned=sum(1 for journal in group if config.burns(journal)),
                considered=len(group),
                p50=latency.quantile(0.50),
                p95=latency.quantile(0.95),
                p99=latency.quantile(0.99),
            )
        )
    return tuple(entries)


def build_slo_report(
    journals: Iterable["QueryJournal"], config: SLOConfig | None = None
) -> SLOReport:
    """Fold query journals into the SLO report.

    An entry's burn denominator is every settlement the SLO speaks
    about (:data:`CONSIDERED`), so a tenant or handle whose queries all
    failed or missed their deadline reports ``burned == considered``
    with NaN quantiles rather than vanishing from the report.
    """
    config = config if config is not None else SLOConfig()
    journals = list(journals)
    return SLOReport(
        config=config,
        tenants=_entries(journals, config, "tenant"),
        handles=_entries(journals, config, "handle"),
    )
