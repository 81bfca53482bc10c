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
from repro.core.operator import Operator
from repro.core.operators.local_histogram import require_histogram
from repro.core.operators.mpi_exchange import BUFFER_ROWS
from repro.errors import ExecutionError
from repro.types.collections import RowVector

__all__ = ["MpiBroadcast"]


class MpiBroadcast(Operator):
    """Send every upstream tuple to every rank; return the union stream."""

    abbreviation = "MB"
    phase_name = "network_partition"
    breaks_pipeline = True
    side_inputs = frozenset({1, 2})
    heavy_loop = True

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

    def _read_total(self, ctx: ExecutionContext, upstream: Operator) -> int:
        total = 0
        for batch in upstream.stream_batches(ctx):
            if len(batch):
                total += int(batch.column("count").sum())
        return total

    def batches(self, ctx: ExecutionContext) -> Iterator[RowVector]:
        ctx.set_phase(self.assigned_phase)
        comm = ctx.comm
        local_total = self._read_total(ctx, self.upstreams[1])
        global_total = self._read_total(ctx, self.upstreams[2])

        ctx.set_phase(self.assigned_phase)
        per_rank = np.asarray(
            comm.allgather(local_total, payload_bytes=8), dtype=np.int64
        )
        if int(per_rank.sum()) != global_total:
            raise ExecutionError(
                "global histogram disagrees with the sum of local histograms"
            )
        my_offset = int(per_rank[: comm.rank].sum())

        windows = comm.win_create(self.output_type, global_total)
        sent = self._send_all(ctx, windows, my_offset)
        if sent != local_total:
            raise ExecutionError(
                f"data upstream produced {sent} tuples but the local histogram "
                f"promised {local_total}"
            )

        ctx.set_phase(self.assigned_phase)
        windows.fence()
        yield windows.local.read(0, global_total)

    def _send_all(self, ctx: ExecutionContext, windows, offset: int) -> int:
        """Put every data morsel into every rank's window from ``offset``;
        the rows sent.  A helper, so that no morsel outlives it: under the
        baton, every rank parked at the fence would hold its last one at once.
        """
        comm, metrics = ctx.comm, ctx.registry
        sent = 0
        for batch in self.upstreams[0].stream_batches(ctx):
            if len(batch) == 0:
                continue
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
                    windows.put(target, offset + sent + start, chunk)
            sent += len(batch)
        return sent
