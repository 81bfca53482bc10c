"""Shared experiment plumbing: result rows and paper-style text tables.

Every experiment module in :mod:`repro.bench.experiments` returns plain
data (lists of :class:`Row`) and can render itself as the text table whose
rows mirror what the paper's figure reports.  Benchmarks print these tables
so ``pytest benchmarks/ --benchmark-only`` output doubles as the
reproduction record (EXPERIMENTS.md is generated from the same rows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import ExecutionError

__all__ = ["Row", "ResultTable", "expect"]


def expect(what: str, got: object, wanted: object) -> None:
    """Refuse to report a measurement of a run that got the answer wrong."""
    if got != wanted:
        raise ExecutionError(f"{what}: got {got!r}, expected {wanted!r}")


@dataclass
class Row:
    """One measured configuration: labels plus named measurements."""

    labels: dict[str, object]
    metrics: dict[str, float]

    def get(self, name: str) -> object:
        if name in self.labels:
            return self.labels[name]
        return self.metrics[name]


@dataclass
class ResultTable:
    """A titled collection of rows with fixed column order."""

    title: str
    label_names: Sequence[str]
    metric_names: Sequence[str]
    rows: list[Row] = field(default_factory=list)

    def add(self, labels: Mapping[str, object], metrics: Mapping[str, float]) -> Row:
        row = Row(dict(labels), dict(metrics))
        self.rows.append(row)
        return row

    def column(self, name: str) -> list:
        return [row.get(name) for row in self.rows]

    def to_dict(self) -> dict:
        """JSON-friendly form: title, column order, and row dicts."""
        return {
            "title": self.title,
            "label_names": list(self.label_names),
            "metric_names": list(self.metric_names),
            "rows": [
                {"labels": dict(row.labels), "metrics": dict(row.metrics)}
                for row in self.rows
            ],
        }

    def render(self, metric_format: str = "{:.4g}") -> str:
        """Text table; metrics formatted compactly."""
        headers = list(self.label_names) + list(self.metric_names)
        body: list[list[str]] = []
        for row in self.rows:
            cells = [str(row.labels.get(name, "")) for name in self.label_names]
            for name in self.metric_names:
                value = row.metrics.get(name)
                cells.append("" if value is None else metric_format.format(value))
            body.append(cells)
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        for cells in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()
