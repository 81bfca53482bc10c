"""A monolithic distributed GROUP BY on the simulated MPI substrate.

The paper has no published monolithic counterpart for its distributed
GROUP BY (that is part of its point: nobody extends the hand-tuned join
codebases to aggregation).  This imperative implementation — the obvious
adaptation of the monolithic join's phases with the build/probe replaced
by a hash aggregation — is the ablation baseline for the Figure 7 plan.
It runs the plan's own partition, compression and sum kernels, so it is
not an independent correctness oracle; the independent references are
``workloads.*.expected_*`` and the reference interpreter
(``repro.relational.interpreter``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.compression import COMPRESSED_TYPE, RadixCompression
from repro.core.kernels.scatter import (
    bucket_counts,
    key_sums,
    partition_layout,
    window_bases,
)
from repro.core.plans.fragments import radix_fanout
from repro.mpi.cluster import ClusterResult, RankContext, SimCluster, block_share
from repro.types.atoms import INT64
from repro.types.collections import RowVector
from repro.types.tuples import TupleType

__all__ = ["MonolithicGroupByResult", "run_monolithic_groupby"]

_KV_TYPE = TupleType.of(key=INT64, value=INT64)
_PUT_CHUNK_ROWS = 1 << 15


@dataclass
class MonolithicGroupByResult:
    """Aggregated groups plus timing evidence."""

    groups: RowVector
    cluster_result: ClusterResult

    @property
    def seconds(self) -> float:
        return self.cluster_result.makespan

    def phase_breakdown(self) -> dict[str, float]:
        return self.cluster_result.phase_breakdown()


def run_monolithic_groupby(
    cluster: SimCluster,
    table: RowVector,
    key_bits: int = 27,
    network_fanout: int | None = None,
    compression: bool = True,
) -> MonolithicGroupByResult:
    """Sum ``value`` per ``key`` across the cluster; gather the result."""
    n_net = radix_fanout(network_fanout, cluster.n_ranks)
    result = cluster.run(
        lambda ctx: _rank_groupby(ctx, table, key_bits, n_net, compression)
    )
    groups = RowVector.concat(_KV_TYPE, result.per_rank)
    return MonolithicGroupByResult(groups=groups, cluster_result=result)


def _rank_groupby(
    ctx: RankContext,
    table: RowVector,
    key_bits: int,
    n_net: int,
    compression: bool,
) -> RowVector:
    comm, clock, cost = ctx.comm, ctx.clock, ctx.cost
    comp = RadixCompression(key_bits, n_net.bit_length() - 1) if compression else None

    shard = table.slice(*block_share(len(table), ctx.n_ranks, ctx.rank))

    clock.phase = "local_histogram"
    clock.advance(cost.cpu_cost("scan", len(shard)), jitter=True)
    pids = shard.column("key") & (n_net - 1)
    hist = bucket_counts(pids, n_net).astype(np.int64)
    clock.advance(cost.cpu_cost("histogram", len(shard)), jitter=True)

    clock.phase = "global_histogram"
    global_hist = comm.allreduce(hist, op="sum")
    matrix = np.stack(comm.allgather(hist, payload_bytes=hist.nbytes))
    bases = window_bases(global_hist, comm.n_ranks)

    clock.phase = "network_partition"
    clock.advance(cost.cpu_cost("scan", len(shard)), jitter=True)
    owned = int(global_hist[comm.rank :: comm.n_ranks].sum())
    windows = comm.win_create(COMPRESSED_TYPE if comp else _KV_TYPE, owned)
    order, counts, offsets = partition_layout(pids, n_net)
    clock.advance(cost.cpu_cost("partition", len(shard)), jitter=True)
    wire = comp.pack_batch(shard) if comp else shard
    # This rank's write offset into every partition: after the lower ranks'.
    cursor = bases + matrix[: comm.rank].sum(axis=0)
    for pid in np.flatnonzero(counts):
        pid = int(pid)
        lo, hi = int(offsets[pid]), int(offsets[pid + 1])
        if comp:
            clock.advance(cost.cpu_cost("map", hi - lo), jitter=True)
        target, write_base = pid % comm.n_ranks, int(cursor[pid]) - lo
        for row in range(lo, hi, _PUT_CHUNK_ROWS):
            end = min(row + _PUT_CHUNK_ROWS, hi)
            windows.put(target, write_base + row, wire, order[row:end])
    windows.fence()

    clock.phase = "aggregation"
    parts = []
    for pid in range(comm.rank, n_net, comm.n_ranks):
        data = windows.local.read(int(bases[pid]), int(bases[pid] + global_hist[pid]))
        # Compressed rows recover their key's network bits from the partition id.
        parts.append(comp.unpack_batch(data, pid, _KV_TYPE) if comp else data)
    rows = RowVector.concat(_KV_TYPE, parts)
    if comp:
        clock.advance(cost.cpu_cost("map", owned), jitter=True)
    clock.advance(cost.cpu_cost("reduce", owned), jitter=True)
    keys, (sums,) = key_sums(rows.column("key"), [rows.column("value")])

    clock.phase = "materialize"
    groups = RowVector(_KV_TYPE, [keys, sums])
    clock.advance(cost.materialize_cost(groups.size_bytes()), jitter=True)
    return groups
