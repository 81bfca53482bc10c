"""Event tracing for the simulated cluster.

With ``SimCluster(..., trace=True)`` the substrate records every collective
(with each rank's arrival time and the synchronized completion time — i.e.
the stall each rank suffered), every one-sided put (source, target, rows,
bytes), and every window registration.  The resulting
:class:`ClusterTrace` answers the questions one debugs distributed plans
with: who stalls where, who sends how much to whom, how many collective
epochs a plan really has.

Events are :class:`~repro.observability.events.TraceEvent` records with
*typed* per-kind payloads (:class:`~repro.observability.events.PutDetail`
and friends), so they merge with operator spans in the Chrome-trace
exporter (:mod:`repro.observability.chrome_trace`) and query code gets
attributes instead of ad-hoc dict keys.

Tracing is off by default; it costs a little memory per event and nothing
else (simulated time is unaffected).  An observed execution arms it on a
non-tracing cluster too: the trace is the job's one substrate recorder,
and the ``comm_*`` metrics are folded from its events.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.observability.events import (
    CollectiveDetail,
    EventDetail,
    TraceEvent,
    span_ids,
)

__all__ = ["TraceEvent", "ClusterTrace", "RankCommStats"]


@dataclass(frozen=True)
class RankCommStats:
    """One rank's communication behaviour over a traced run."""

    rank: int
    stall_seconds: float
    bytes_sent: int
    bytes_received: int
    window_registrations: int
    collectives: int


class ClusterTrace:
    """Event store for one job, under its execution's trace ``context``
    (``None`` if direct).  One thread writes it at a time: the driver's,
    which walks every rank of a lockstep job, or, in a
    :meth:`~repro.mpi.cluster.SimCluster.run` job, the rank thread that
    holds the baton."""

    def __init__(self, n_ranks: int, context=None) -> None:
        self.n_ranks = n_ranks
        self._events: list[list[TraceEvent]] = [[] for _ in range(n_ranks)]
        self._ids = [
            span_ids(context.for_rank(rank) if context is not None else None)
            for rank in range(n_ranks)
        ]

    def record(self, event: TraceEvent) -> None:
        self._events[event.rank].append(event)

    def emit(
        self,
        rank: int,
        kind: str,
        label: str,
        start: float,
        end: float,
        detail: EventDetail,
    ) -> None:
        """Record one event of ``rank``, born under the rank's span."""
        self.record(
            TraceEvent(rank, kind, label, start, end, *self._ids[rank], detail)
        )

    # -- queries -----------------------------------------------------------

    def events(self, rank: int | None = None, kind: str | None = None) -> list[TraceEvent]:
        """Events of one rank (or all), optionally filtered by kind."""
        ranks = range(self.n_ranks) if rank is None else (rank,)
        out: list[TraceEvent] = []
        for r in ranks:
            out.extend(
                e for e in self._events[r] if kind is None or e.kind == kind
            )
        return out

    def collective_count(self) -> int:
        """Number of collective epochs (same on every rank by construction)."""
        per_rank = [
            len([e for e in self._events[r] if e.kind == "collective"])
            for r in range(self.n_ranks)
        ]
        return max(per_rank) if per_rank else 0

    def stall_seconds(self, rank: int) -> float:
        """Total time ``rank`` waited inside collectives for its peers."""
        return sum(
            e.detail.stall
            for e in self._events[rank]
            if isinstance(e.detail, CollectiveDetail)
        )

    def bytes_matrix(self) -> list[list[int]]:
        """``matrix[src][dst]``: one-sided bytes moved between rank pairs."""
        matrix = [[0] * self.n_ranks for _ in range(self.n_ranks)]
        for event in self.events(kind="put"):
            matrix[event.rank][event.detail.target] += event.detail.bytes
        return matrix

    def network_bytes(self) -> int:
        """Total bytes that crossed the network (self-puts excluded)."""
        return sum(
            e.detail.bytes
            for e in self.events(kind="put")
            if e.detail.target != e.rank
        )

    def rank_summary(self, rank: int) -> RankCommStats:
        """Typed per-rank totals (the rows of :meth:`summary`)."""
        matrix = self.bytes_matrix()
        return RankCommStats(
            rank=rank,
            stall_seconds=self.stall_seconds(rank),
            bytes_sent=sum(matrix[rank][d] for d in range(self.n_ranks) if d != rank),
            bytes_received=sum(
                matrix[s][rank] for s in range(self.n_ranks) if s != rank
            ),
            window_registrations=len(
                [e for e in self._events[rank] if e.kind == "win_create"]
            ),
            collectives=len(
                [e for e in self._events[rank] if e.kind == "collective"]
            ),
        )

    # -- rendering ------------------------------------------------------------

    def summary(self) -> str:
        """A compact per-rank report of the run's communication behaviour."""
        lines = [
            f"cluster trace: {self.n_ranks} ranks, "
            f"{self.collective_count()} collective epochs, "
            f"{self.network_bytes()} network bytes"
        ]
        for rank in range(self.n_ranks):
            stats = self.rank_summary(rank)
            lines.append(
                f"  rank {rank}: stall={stats.stall_seconds * 1e6:9.1f} µs  "
                f"sent={stats.bytes_sent:>10}  received={stats.bytes_received:>10}  "
                f"windows={stats.window_registrations}"
            )
        return "\n".join(lines)
