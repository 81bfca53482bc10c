"""The operator-level profiler and the :class:`PlanProfile` it produces.

Every walk of an operator, whichever data path it implements, goes
through one function, :func:`repro.core.lockstep.steps`, the one observer.
It costs one attribute check per activation when the run is not observed;
when a :class:`Profiler` is attached to the
:class:`~repro.core.context.ExecutionContext` of each lane, each activation
is written once into its node's :class:`OperatorStats`:

* **counts** — rows and batches yielded, activations (``calls``);
  the ``operator_*`` metrics are folded from these, and a run that only
  records metrics attaches an untimed profiler that stops here;
* **self time** — simulated and wall-clock seconds attributed to *this*
  operator's frames only, via a frame stack: while an operator pulls from
  its upstream, the elapsed time is charged to the upstream, exactly like
  a tracing CPU profiler separates self from inclusive time;
* **spans** — one :class:`~repro.observability.events.OperatorSpan` per
  activation (first pull to close) on the rank's simulated clock, feeding
  the Chrome-trace exporter.

``MpiExecutor`` gives each simulated rank a child profiler; those of a
completed wave join the driver's and are merged per node on read (sums,
plus the max-over-ranks self time — a phase lasts as long as its slowest
rank).

:class:`PlanProfile` snapshots the measurements into a tree mirroring the
plan (nested plans included) and renders the EXPLAIN-ANALYZE-style report
of ``Query.explain(analyze=True)`` / ``repro explain --analyze``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Iterator

from repro.observability.events import DRIVER_RANK, OperatorSpan, span_ids

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.operator import Operator

__all__ = [
    "OperatorStats",
    "Profiler",
    "PlanProfile",
    "ProfileNode",
]


class OperatorStats:
    """Measured totals for one plan node across one profiled execution."""

    __slots__ = (
        "calls",
        "sim_seconds",
        "wall_seconds",
        "max_rank_sim_seconds",
        "rows_out",
        "batches_out",
    )

    def __init__(self) -> None:
        #: Generator activations (a nested plan activates once per
        #: invocation; on a cluster, once per rank per invocation).
        self.calls = 0
        #: Simulated self seconds: time the simulated clock advanced while
        #: this node's frame was on top of the profiler stack.
        self.sim_seconds = 0.0
        #: Real (wall-clock) self seconds, same attribution.
        self.wall_seconds = 0.0
        #: After merging ranks: the largest per-rank simulated self time —
        #: the node's contribution to the makespan.
        self.max_rank_sim_seconds = 0.0
        #: Rows and batches yielded: the one count the ``operator_*``
        #: metrics are read from.
        self.rows_out = 0
        self.batches_out = 0

    @property
    def executed(self) -> bool:
        return self.calls > 0

    def merge(self, other: "OperatorStats") -> None:
        """Fold another profiler's measurements of the same node in."""
        self.calls += other.calls
        self.sim_seconds += other.sim_seconds
        self.wall_seconds += other.wall_seconds
        self.max_rank_sim_seconds = max(
            self.max_rank_sim_seconds,
            other.max_rank_sim_seconds or other.sim_seconds,
        )
        self.rows_out += other.rows_out
        self.batches_out += other.batches_out

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "rows_out": self.rows_out,
            "batches_out": self.batches_out,
            "sim_seconds": self.sim_seconds,
            "wall_seconds": self.wall_seconds,
            "max_rank_sim_seconds": self.max_rank_sim_seconds,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OperatorStats(calls={self.calls}, rows={self.rows_out}, "
            f"sim={self.sim_seconds:.6f}s)"
        )


class Profiler:
    """Runtime recorder for one execution context (one clock).

    The walk (:func:`repro.core.lockstep.steps`) writes each activation of
    an operator on this context into it: the driver's profiler holds the
    driver-side operators; ``MpiExecutor`` creates one :meth:`child` per
    rank (bound to the rank's clock; the lanes of a lockstep wave share
    the driver's frame stack, as they share its thread) and
    :meth:`absorb`\\ s those of each completed wave, so a single profiler
    ends up holding the whole plan's measurements.  With ``timed=False``
    it only counts: no frame stack, no spans.  Spans are born under the
    trace context ``trace`` (``None`` for direct runs).
    """

    #: Span-recording backstop: a plan with pathologically many nested-plan
    #: invocations keeps its stats exact but stops recording new spans here
    #: (``dropped_spans`` says how many were cut).
    MAX_SPANS = 200_000

    __slots__ = (
        "clock", "rank", "timed", "stats", "ops", "spans", "dropped_spans",
        "ranks", "_trace", "_stack",
    )

    def __init__(
        self, clock, rank: int = DRIVER_RANK, timed: bool = True, trace=None
    ) -> None:
        self.clock = clock
        self.rank = rank
        self.timed = timed
        self.stats: dict[int, OperatorStats] = {}
        self.ops: dict[int, "Operator"] = {}
        self.spans: list[OperatorSpan] = []
        self.dropped_spans = 0
        #: The rank profilers of every completed wave, in completion order.
        self.ranks: list[Profiler] = []
        self._trace = trace
        #: Active frames: ``[records, clocks, sim_marks, wall_mark]`` lists;
        #: the lanes of one lockstep job share one stack.
        self._stack: list[list] = []

    # -- recording ---------------------------------------------------------

    def _push(self, records, clocks) -> None:
        """Open a frame for ``records`` (one per lane it serves, each timed
        on its lane's clock), settling the frame it interrupts."""
        wall_now = perf_counter()
        stack = self._stack
        if stack:
            _settle(stack[-1], wall_now)
        stack.append([records, clocks, [clock.now for clock in clocks], wall_now])

    def _pop(self) -> None:
        wall_now = perf_counter()
        stack = self._stack
        _settle(stack.pop(), wall_now)
        if stack:
            top = stack[-1]
            top[2] = [clock.now for clock in top[1]]
            top[3] = wall_now

    def _record_span(
        self, op: "Operator", start: float, end: float, rows: int, batches: int, mode: str
    ) -> None:
        if len(self.spans) >= self.MAX_SPANS:
            self.dropped_spans += 1
            return
        self.spans.append(
            OperatorSpan(
                self.rank, "operator", op.label(), start, end,
                *span_ids(self._trace),
                op_type=type(op).__name__,
                node_id=id(op),
                rows=rows,
                batches=batches,
                mode=mode,
            )
        )

    # -- distribution ------------------------------------------------------

    def child(self, clock, rank: int) -> "Profiler":
        """A fresh profiler for one rank (lane) of an MPI job, on that
        rank's clock."""
        trace = self._trace.for_rank(rank) if self._trace is not None else None
        return Profiler(clock, rank=rank, timed=self.timed, trace=trace)

    def absorb(self, other: "Profiler") -> None:
        """Append a completed wave's rank profiler: its stats stay its own
        (merged by :meth:`node_stats`, folded per rank into the metrics),
        its spans join this profiler's under the shared cap."""
        self.ranks.append(other)
        room = self.MAX_SPANS - len(self.spans)
        self.spans.extend(other.spans[:room])
        self.dropped_spans += other.dropped_spans + max(0, len(other.spans) - room)

    def node_stats(self) -> dict[int, OperatorStats]:
        """Per-node totals over this profiler and every absorbed rank."""
        merged: dict[int, OperatorStats] = {}
        for rank_profiler in self.ranks:
            for node_id, rec in rank_profiler.stats.items():
                merged.setdefault(node_id, OperatorStats()).merge(rec)
        for node_id, rec in self.stats.items():
            if node_id in merged:
                merged[node_id].merge(rec)
            else:
                merged[node_id] = rec
        return merged


# -- the profile tree ----------------------------------------------------------


@dataclass
class ProfileNode:
    """Per-operator measurements at one position of the plan tree."""

    op_type: str
    abbreviation: str
    label: str
    phase: str
    stats: OperatorStats
    children: list["ProfileNode"] = field(default_factory=list)
    #: Roots of nested plans owned by this operator (NestedMap/MpiExecutor).
    nested: list["ProfileNode"] = field(default_factory=list)

    def walk(self) -> Iterator["ProfileNode"]:
        """Yield each distinct node once (the tree may share DAG nodes)."""
        seen: set[int] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            yield node
            stack.extend(node.children)
            stack.extend(node.nested)

    def to_dict(self) -> dict:
        seen: set[int] = set()

        def build(node: "ProfileNode") -> dict:
            entry = {
                "op": node.op_type,
                "label": node.label,
                "phase": node.phase,
                **node.stats.as_dict(),
            }
            if id(node) in seen:
                entry["shared"] = True
                return entry
            seen.add(id(node))
            if node.children:
                entry["children"] = [build(c) for c in node.children]
            if node.nested:
                entry["nested"] = [build(n) for n in node.nested]
            return entry

        return build(self)


def _settle(frame: list, wall_now: float) -> None:
    """Attribute the time since ``frame``'s marks to its records: to each,
    its own clock's simulated time and an even share of the wall time (a
    lockstep frame serves several lanes at once)."""
    records, clocks, marks, wall_mark = frame
    wall = (wall_now - wall_mark) / len(records)
    for i, rec in enumerate(records):
        now = clocks[i].now
        rec.sim_seconds += now - marks[i]
        rec.wall_seconds += wall
        marks[i] = now
    frame[3] = wall_now


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f}ms"
    return f"{seconds * 1e6:.1f}µs"


@dataclass
class PlanProfile:
    """Everything one profiled execution measured, shaped like the plan."""

    root: ProfileNode
    mode: str
    #: Driver simulated seconds for the whole execution.
    total_seconds: float
    spans: list[OperatorSpan] = field(default_factory=list)
    dropped_spans: int = 0
    #: Work-accounting snapshot when the run also recorded metrics;
    #: rendered as an appendix of the EXPLAIN ANALYZE tree.
    metrics: "object | None" = None
    #: Runtime-sanitizer report when the run was sanitized
    #: (``RunOptions(sanitize=True)``); rendered as a second appendix.
    sanitizer: "object | None" = None

    @classmethod
    def from_plan(
        cls,
        root_op: "Operator",
        profiler: Profiler,
        total_seconds: float,
        mode: str,
        metrics=None,
    ) -> "PlanProfile":
        """Snapshot ``profiler``'s measurements onto the plan tree."""
        nodes: dict[int, ProfileNode] = {}
        stats = profiler.node_stats()

        def build(op: "Operator") -> ProfileNode:
            node = nodes.get(id(op))
            if node is not None:
                return node
            node = ProfileNode(
                op_type=type(op).__name__,
                abbreviation=op.abbreviation,
                label=op.label(),
                phase=op.assigned_phase,
                stats=stats.get(id(op)) or OperatorStats(),
            )
            nodes[id(op)] = node
            node.children = [build(up) for up in op.upstreams]
            node.nested = [build(n) for n in op.nested_roots()]
            return node

        return cls(
            root=build(root_op),
            mode=mode,
            total_seconds=total_seconds,
            spans=list(profiler.spans),
            dropped_spans=profiler.dropped_spans,
            metrics=metrics,
        )

    def nodes(self) -> Iterator[ProfileNode]:
        return self.root.walk()

    def find(self, op_type: str) -> list[ProfileNode]:
        """All nodes of one operator type (e.g. ``"BuildProbe"``)."""
        return [n for n in self.nodes() if n.op_type == op_type]

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """The EXPLAIN ANALYZE plan tree with measured annotations.

        Percentages are of the *scope* the node executed in: driver-side
        nodes against the sum of driver-side self times, each nested plan
        against the summed per-rank self time of its own operators.
        """
        lines = [
            f"EXPLAIN ANALYZE (mode={self.mode}, "
            f"simulated total {_format_seconds(self.total_seconds)})"
        ]

        def scope_total(roots: list[ProfileNode]) -> float:
            total = 0.0
            for start in roots:
                seen: set[int] = set()
                stack = [start]
                while stack:
                    node = stack.pop()
                    if id(node) in seen:
                        continue
                    seen.add(id(node))
                    total += node.stats.sim_seconds
                    stack.extend(node.children)  # nested scopes excluded
            return total

        rendered: set[int] = set()

        def emit(node: ProfileNode, depth: int, total: float) -> None:
            pad = "  " * depth
            stats = node.stats
            if id(node) in rendered:
                lines.append(f"{pad}{node.abbreviation} {node.op_type} (shared, above)")
                return
            rendered.add(id(node))
            if not stats.executed:
                annot = "never executed"
            else:
                pct = 100.0 * stats.sim_seconds / total if total > 0 else 0.0
                parts = [f"rows={stats.rows_out}"]
                if stats.batches_out:
                    parts.append(f"batches={stats.batches_out}")
                if stats.calls != 1:
                    parts.append(f"calls={stats.calls}")
                parts.append(
                    f"self={_format_seconds(stats.sim_seconds)} ({pct:.1f}%)"
                )
                if stats.max_rank_sim_seconds:
                    parts.append(
                        f"max-rank={_format_seconds(stats.max_rank_sim_seconds)}"
                    )
                annot = " ".join(parts)
            lines.append(
                f"{pad}{node.abbreviation} {node.op_type} [phase={node.phase}] {annot}"
            )
            for child in node.children:
                emit(child, depth + 1, total)
            for nested in node.nested:
                nested_total = scope_total([nested])
                lines.append(f"{pad}  (nested plan)")
                emit(nested, depth + 2, nested_total)

        emit(self.root, 0, scope_total([self.root]))
        if self.dropped_spans:
            lines.append(f"({self.dropped_spans} spans dropped beyond the cap)")
        if self.metrics is not None:
            lines.append(self.metrics.render_summary())
        if self.sanitizer is not None:
            lines.append(self.sanitizer.render())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        payload = {
            "mode": self.mode,
            "total_seconds": self.total_seconds,
            "spans": len(self.spans),
            "dropped_spans": self.dropped_spans,
            "plan": self.root.to_dict(),
        }
        if self.metrics is not None:
            payload["metrics"] = self.metrics.as_dict()
        if self.sanitizer is not None:
            payload["sanitizer"] = self.sanitizer.to_dict()
        return payload
