"""Projection: keep a subset of fields, unmodified (§3.3.2).

A special case of ``Map``, kept as its own operator for plan readability —
exactly as the paper does.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.lockstep import Lockstep, Step, pulled
from repro.core.operator import Operator, require_fields
from repro.types.collections import RowVector

__all__ = ["Projection"]


class Projection(Operator):
    """Return new tuples keeping only ``fields`` of the upstream tuples."""

    abbreviation = "PR"
    cardinality = "per_input"

    def __init__(self, upstream: Operator, fields: Sequence[str]) -> None:
        self.fields = tuple(fields)
        super().__init__(upstreams=(upstream,))
        self._positions = tuple(upstream.output_type.position(f) for f in fields)

    def infer_type(self, upstream_types):
        require_fields("Projection", upstream_types[0], self.fields)
        return upstream_types[0].project(self.fields)

    def signature(self) -> tuple:
        return (self.fields,)

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        for step in pulled(self.upstreams[0], lx):
            lx.charge(self, "map", step)
            yield step.map(lambda batch: RowVector(
                self.output_type, [batch.columns[p] for p in self._positions]
            ))
