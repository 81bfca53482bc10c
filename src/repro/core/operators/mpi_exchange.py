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
from repro.core.kernels.scatter import partition_layout
from repro.core.operator import Operator
from repro.core.operators.local_histogram import read_histogram, require_histogram
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

    def _layout_table(self, global_counts: np.ndarray, n_ranks: int) -> np.ndarray:
        """Base offset of every partition inside its owner's window.

        Computed once per exchange, right after the allgather: partition
        ``p`` lives in rank ``p mod n_ranks``'s window, after all the lower
        partitions that rank owns.  Every rank derives the same table
        locally — no synchronization.
        """
        # Row i, column r of the grid is partition i * n_ranks + r, so each
        # column lists one owner's partitions in window order.
        padding = np.zeros(-self.n_partitions % n_ranks, dtype=global_counts.dtype)
        grid = np.concatenate((global_counts, padding)).reshape(-1, n_ranks)
        return (grid.cumsum(axis=0) - grid).ravel()[: self.n_partitions]

    def batches(self, ctx: ExecutionContext) -> Iterator[RowVector]:
        ctx.set_phase(self.assigned_phase)
        comm = ctx.comm
        n_ranks = comm.n_ranks
        local_counts = read_histogram(ctx, self.upstreams[1], self.n_partitions)
        global_counts = read_histogram(ctx, self.upstreams[2], self.n_partitions)

        ctx.set_phase(self.assigned_phase)
        gathered = comm.allgather(local_counts, payload_bytes=local_counts.nbytes)
        matrix = np.stack(gathered)  # [source rank, partition] -> count
        if not np.array_equal(matrix.sum(axis=0), global_counts):
            raise ExecutionError(
                "global histogram disagrees with the sum of local histograms; "
                "the histogram upstreams were not computed over the same input"
            )

        # One-shot layout: base offset of every partition in its owner's
        # window, shared by all sends instead of being rebuilt per put.
        partition_base = self._layout_table(global_counts, n_ranks)
        capacity = int(
            global_counts[np.arange(comm.rank, self.n_partitions, n_ranks)].sum()
        )
        windows = comm.win_create(self._wire_type, capacity)

        # This rank's next write row inside every partition region: its
        # exclusive offset after the lower ranks' shares, advanced per send.
        cursor = partition_base + matrix[: comm.rank].sum(axis=0)

        total = self._send_all(ctx, windows, cursor)
        if total != int(local_counts.sum()):
            raise ExecutionError(
                f"data upstream produced {total} tuples but the local histogram "
                f"promised {int(local_counts.sum())}"
            )

        ctx.set_phase(self.assigned_phase)
        windows.fence()

        # Columnar drain: ⟨pid, data⟩ assembled directly from the owned
        # partition ids and the window's zero-copy read views — no
        # per-partition builder appends, no row pythonization.
        owned = np.arange(comm.rank, self.n_partitions, n_ranks, dtype=np.int64)
        partitions = np.empty(len(owned), dtype=object)
        for i, pid in enumerate(owned):
            base = int(partition_base[pid])
            partitions[i] = windows.local.read(base, base + int(global_counts[pid]))
        yield RowVector(self.output_type, [owned, partitions])

    def _send_all(self, ctx: ExecutionContext, windows, cursor) -> int:
        """Scatter every data morsel into the windows; the rows sent.

        A helper, so that no morsel, scatter order or packed wire outlives
        it: under the baton, every rank parked at the fence would hold its
        last one at once.
        """
        total = 0
        for batch in self.upstreams[0].stream_batches(ctx):
            if len(batch) == 0:
                continue
            total += len(batch)
            ctx.charge_cpu(self, "partition", len(batch))
            buckets = self.partition_fn.map_batch(batch)
            # One stable linear-time scatter order per batch (the identity,
            # neither counted by bincount nor sorted, at one partition); each
            # put gathers its partition's slice of it straight from the
            # morsel into the target window, so every byte moves once.
            order, counts, offsets = partition_layout(buckets, self.n_partitions)
            wire = batch
            if self.compression is not None:
                wire = self.compression.pack_batch(batch)
            for pid in np.flatnonzero(counts):
                self._send_partition(ctx, windows, cursor, int(pid), wire, order, offsets)
        return total

    def _send_partition(
        self, ctx: ExecutionContext, windows, cursor, pid: int, wire, order, offsets
    ) -> None:
        """Put partition ``pid``'s share of a batch: the rows of ``wire`` at
        its slice of the scatter ``order``, gathered into the target window."""
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
            if self.n_partitions == 1:  # the identity order: the morsel itself
                windows.put(target, base + start, wire.slice(start, stop))
            else:
                windows.put(target, base + start, wire, order[start:stop])
