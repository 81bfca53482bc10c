"""MpiBroadcast: replicate all tuples on every rank (§3.3.3).

Very similar to ``MpiExchange`` — it also consumes a local and a global
histogram from dedicated upstreams to compute exclusive offsets into a
shared RMA window and uses synchronization-free one-sided writes — but it
sends all tuples from the main upstream to *all* ranks and returns them
directly, without partition IDs.  This is the building block for broadcast
joins of small relations.

The histograms use a single bucket (bucket 0): the only quantity needed is
how many tuples each rank contributes.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.context import ExecutionContext
from repro.core.lockstep import Lockstep, Step, each_lane, pulled
from repro.core.operator import Operator
from repro.core.operators.local_histogram import require_histogram
from repro.core.operators.mpi_exchange import BUFFER_ROWS
from repro.errors import ExecutionError

__all__ = ["MpiBroadcast"]


class MpiBroadcast(Operator):
    """Send every upstream tuple to every rank; return the union stream."""

    abbreviation = "MB"
    phase_name = "network_partition"
    breaks_pipeline = True
    side_inputs = frozenset({1, 2})
    heavy_loop = True
    collective = True

    def __init__(
        self,
        data: Operator,
        local_histogram: Operator,
        global_histogram: Operator,
    ) -> None:
        super().__init__(upstreams=(data, local_histogram, global_histogram))

    def infer_type(self, upstream_types):
        data_type, local_type, global_type = upstream_types
        require_histogram("MpiBroadcast", "local", local_type)
        require_histogram("MpiBroadcast", "global", global_type)
        return data_type

    def signature(self) -> tuple:
        return ()

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        group = lx.collectives()
        lx.set_phase(self.assigned_phase)
        local, global_ = (self._read_totals(lx, up) for up in self.upstreams[1:])

        lx.set_phase(self.assigned_phase)
        per_rank = np.asarray(group.allgather(local, payload_bytes=8), dtype=np.int64)
        if any(int(per_rank.sum()) != total for total in global_):
            raise ExecutionError(
                "global histogram disagrees with the sum of local histograms"
            )
        offsets = [int(per_rank[: ctx.rank].sum()) for ctx in lx.ctxs]

        windows = group.win_create(self.output_type, global_)
        for sent, promised in zip(self._send_all(lx, windows, offsets), local):
            if sent != promised:
                raise ExecutionError(
                    f"data upstream produced {sent} tuples but the local histogram "
                    f"promised {promised}"
                )

        lx.set_phase(self.assigned_phase)
        group.fence(windows)
        yield each_lane([
            window_set.local.read(0, total) for window_set, total in zip(windows, global_)
        ])

    @staticmethod
    def _read_totals(lx: Lockstep, upstream: Operator) -> list[int]:
        """Each lane's total count of a ⟨bucket, count⟩ upstream."""
        totals = [0] * len(lx.ctxs)
        for step in pulled(upstream, lx):
            for lane, part in zip(step.lanes, step.parts):
                if len(part):
                    totals[lane] += int(part.column("count").sum())
        return totals

    def _send_all(self, lx: Lockstep, windows, offsets: list[int]) -> list[int]:
        """Put every data morsel into every rank's window from each lane's
        offset; each lane's rows sent.  A helper, so that no morsel outlives
        it into the fence."""
        sent = [0] * len(lx.ctxs)
        for step in pulled(self.upstreams[0], lx):
            for lane, part in zip(step.lanes, step.parts):
                if len(part):
                    self.send_batch(
                        lx.ctxs[lane], windows[lane], offsets[lane] + sent[lane], part
                    )
                    sent[lane] += len(part)
        return sent

    def send_batch(self, ctx: ExecutionContext, windows, offset: int, batch) -> None:
        """Put one non-empty morsel into every rank's window at ``offset``."""
        comm, metrics = ctx.comm, ctx.registry
        ctx.charge_cpu(self, "partition", len(batch))
        if metrics is not None:
            # Replication volume: every batch goes to every rank.
            metrics.counter("broadcast_rows", op=type(self).__name__).add(
                len(batch) * comm.n_ranks
            )
            metrics.counter("broadcast_bytes", op=type(self).__name__).add(
                batch.size_bytes() * comm.n_ranks
            )
        ctx.set_phase(self.assigned_phase)
        for start in range(0, len(batch), BUFFER_ROWS):
            chunk = batch.slice(start, min(start + BUFFER_ROWS, len(batch)))
            for target in range(comm.n_ranks):
                windows.put(target, offset + start, chunk)
