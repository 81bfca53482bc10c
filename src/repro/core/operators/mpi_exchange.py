"""MpiExchange: partition tuples across the cluster through RMA (§3.3.3).

The synchronization-free network shuffle of the monolithic RDMA joins
[Barthels et al.], factored out as a reusable sub-operator:

1. consume the local histogram (tuples this rank contributes per partition)
   and the global histogram (total partition sizes) from two dedicated
   upstream operators;
2. allgather the local histograms so every rank can compute, locally, the
   exclusive offset of every ⟨source rank, partition⟩ region;
3. collectively create one RMA window per rank, sized to exactly the
   partitions that rank owns;
4. consume the data upstream, determine each tuple's partition with the
   shared partition function, optionally compress ⟨key, payload⟩ pairs into
   single words (halving network volume), and write buffer-sized batches
   into the remote windows with one-sided puts — no synchronization during
   the transfer, because the offsets are exclusive by construction;
5. fence, then return the partitions this rank owns as
   ⟨partitionID, partitionData⟩ pairs in dense, increasing order.

Partition ``p`` is owned by rank ``p mod n_ranks``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.compression import COMPRESSED_TYPE, RadixCompression
from repro.core.context import ExecutionContext
from repro.core.functions import PartitionFunction
from repro.core.kernels.scatter import partition_layout, window_layout
from repro.core.lockstep import Lockstep, Step, each_lane, pulled
from repro.core.operator import Operator
from repro.core.operators.local_histogram import read_histograms, require_histogram
from repro.errors import ExecutionError, TypeCheckError
from repro.types.atoms import INT64
from repro.types.collections import RowVector, row_vector_type
from repro.types.tuples import TupleType

__all__ = ["MpiExchange"]

#: Rows per one-sided put; models the software write-combining buffers the
#: monolithic algorithm flushes asynchronously when full.
BUFFER_ROWS = 1 << 15

#: Fixed exponential buckets for the rows-per-partition-send histogram
#: (1 row .. 4^11 ≈ 4M rows), shared so rank registries merge by addition.
_SEND_ROWS_BOUNDS = tuple(float(4**i) for i in range(12))


class MpiExchange(Operator):
    """Shuffle tuples so every partition lands entirely on one rank.

    Args:
        data: Main upstream with the tuples to partition.
        local_histogram: Upstream yielding this rank's ⟨bucket, count⟩ pairs.
        global_histogram: Upstream yielding global ⟨bucket, count⟩ pairs
            (usually an ``MpiHistogram``).
        partition_fn: The same partition function the histograms used.
        compression: Optional radix compression; when set, the exchanged
            tuples travel as single packed words and ``partitionData`` keeps
            the compressed type — downstream recovers the dropped bits from
            ``partitionID`` (paper Section 4.1.1).
        id_field / data_field: Names of the two output fields.
    """

    abbreviation = "EX"
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
        partition_fn: PartitionFunction,
        compression: RadixCompression | None = None,
        id_field: str = "partition",
        data_field: str = "data",
    ) -> None:
        self.partition_fn = partition_fn
        self.compression = compression
        self.id_field = id_field
        self.data_field = data_field
        super().__init__(upstreams=(data, local_histogram, global_histogram))
        partition_fn.bind(data.output_type)
        self._wire_type = COMPRESSED_TYPE if compression else data.output_type

    def infer_type(self, upstream_types):
        wire_type, local_type, global_type = upstream_types
        require_histogram("MpiExchange", "local", local_type)
        require_histogram("MpiExchange", "global", global_type)
        self.partition_fn.check(wire_type)
        if self.compression is not None:
            if len(wire_type) != 2 or any(
                wire_type[f] != INT64 for f in wire_type.field_names
            ):
                raise TypeCheckError(
                    "radix compression needs ⟨key, payload⟩ INT64 tuples on "
                    f"the wire, got {wire_type!r}",
                    "MOD003",
                )
            wire_type = COMPRESSED_TYPE
        return TupleType.of(
            **{self.id_field: INT64, self.data_field: row_vector_type(wire_type)}
        )

    def signature(self) -> tuple:
        return (
            self.partition_fn.signature(),
            self.id_field,
            self.data_field,
            self.compression,
        )

    @property
    def n_partitions(self) -> int:
        return self.partition_fn.n_partitions

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        n_parts = self.n_partitions
        group = lx.collectives()
        n_ranks = lx.ctxs[0].n_ranks
        lx.set_phase(self.assigned_phase)
        local = read_histograms(lx, self.upstreams[1], n_parts)
        global_ = read_histograms(lx, self.upstreams[2], n_parts)

        lx.set_phase(self.assigned_phase)
        # [source rank, partition] -> count
        matrix = np.stack(group.allgather(list(local), payload_bytes=local[0].nbytes))
        summed = matrix.sum(axis=0)
        for counts in global_:
            if not np.array_equal(summed, counts):
                raise ExecutionError(
                    "global histogram disagrees with the sum of local histograms; "
                    "the histogram upstreams were not computed over the same input"
                )
        counts = global_[0]

        # One-shot layout: base offset of every partition in its owner's
        # window, shared by all sends instead of being rebuilt per put.
        partition_base, owned_rows = window_layout(counts, n_ranks)
        ranks = [ctx.rank for ctx in lx.ctxs]
        windows = group.win_create(
            self._wire_type, [int(owned_rows[rank]) for rank in ranks]
        )
        # Each rank's next write row inside every partition region: its
        # exclusive offset after the lower ranks' shares, advanced per send.
        lower_ranks = np.cumsum(matrix, axis=0) - matrix
        cursors = [partition_base + lower_ranks[rank] for rank in ranks]

        totals = self._send_all(lx, windows, cursors)
        for total, promised in zip(totals, local.sum(axis=1)):
            if total != int(promised):
                raise ExecutionError(
                    f"data upstream produced {total} tuples but the local histogram "
                    f"promised {int(promised)}"
                )

        lx.set_phase(self.assigned_phase)
        group.fence(windows)

        # Columnar drain: ⟨pid, data⟩ assembled directly from the owned
        # partition ids and the window's zero-copy read views — no
        # per-partition builder appends, no row pythonization.
        outputs = []
        for rank, window_set in zip(ranks, windows):
            owned = np.arange(rank, n_parts, n_ranks, dtype=np.int64)
            partitions = np.empty(len(owned), dtype=object)
            for i, pid in enumerate(owned):
                base = int(partition_base[pid])
                partitions[i] = window_set.local.read(base, base + int(counts[pid]))
            outputs.append(RowVector(self.output_type, [owned, partitions]))
        yield each_lane(outputs)

    def _send_all(self, lx: Lockstep, windows, cursors) -> list[int]:
        """Scatter every data morsel into the windows; each lane's rows sent.

        A helper, so that no morsel, scatter order or packed wire outlives
        it: every lane's would be alive at the fence.
        """
        totals = [0] * len(lx.ctxs)
        for step in pulled(self.upstreams[0], lx):
            for lane, batch in zip(step.lanes, step.parts):
                if len(batch):
                    self.send_batch(lx.ctxs[lane], windows[lane], cursors[lane], batch)
                    totals[lane] += len(batch)
        return totals

    def send_batch(self, ctx: ExecutionContext, windows, cursor, batch) -> None:
        """Charge and scatter one non-empty morsel into the windows."""
        ctx.charge_cpu(self, "partition", len(batch))
        if self.partition_fn.one_way:
            # Every row is partition 0's, in morsel order: no bucket ids and
            # no scatter order; the morsel (or its packed wire) goes whole.
            order, pids, offsets = None, (0,), (0, len(batch))
        else:
            # One stable linear-time scatter order per batch; each put
            # gathers its partition's slice of it straight from the morsel
            # into the target window, so every byte moves once.
            buckets = self.partition_fn.map_batch(batch)
            order, counts, offsets = partition_layout(buckets, self.n_partitions)
            pids = np.flatnonzero(counts)
        wire = batch
        if self.compression is not None:
            wire = self.compression.pack_batch(batch)
        for pid in pids:
            self._send_partition(ctx, windows, cursor, int(pid), wire, order, offsets)

    def _send_partition(
        self, ctx: ExecutionContext, windows, cursor, pid: int, wire, order, offsets
    ) -> None:
        """Put partition ``pid``'s share of a batch: the rows of ``wire`` at
        its slice of the scatter ``order`` (``None``: ``wire`` in its own
        order), gathered into the target window."""
        lo, hi = int(offsets[pid]), int(offsets[pid + 1])
        n_rows = hi - lo
        if self.compression is not None:
            # Packing ran once for the whole batch; the clock is charged per
            # partition sent, so its floating-point sum keeps one order.
            ctx.charge_cpu(self, "map", n_rows)
        metrics = ctx.registry
        if metrics is not None:
            # Wire volume after compression — what actually travels.
            metrics.counter("shuffle_rows", op=type(self).__name__).add(n_rows)
            metrics.counter("shuffle_bytes", op=type(self).__name__).add(
                n_rows * self._wire_type.row_size_bytes()
            )
            metrics.histogram(
                "shuffle_send_rows", bounds=_SEND_ROWS_BOUNDS
            ).observe(n_rows)
        target, base = pid % ctx.comm.n_ranks, int(cursor[pid]) - lo
        cursor[pid] += n_rows
        ctx.set_phase(self.assigned_phase)
        for start in range(lo, hi, BUFFER_ROWS):
            stop = min(start + BUFFER_ROWS, hi)
            if order is None:
                windows.put(target, base + start, wire.slice(start, stop))
            else:
                windows.put(target, base + start, wire, order[start:stop])
