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
    window_layout,
)
from repro.core.plans.fragments import radix_fanout
from repro.mpi.cluster import ClusterResult, SimCluster, block_share
from repro.mpi.comm import CommGroup
from repro.mpi.trace import ClusterTrace
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
    """Sum ``value`` per ``key`` across the cluster; gather the result.  The
    ranks walk each phase in lockstep on this thread, one call per collective."""
    n_ranks = cluster.n_ranks
    n_net = radix_fanout(network_fanout, n_ranks)
    comp = RadixCompression(key_bits, n_net.bit_length() - 1) if compression else None
    trace = ClusterTrace(n_ranks) if cluster.trace else None
    ctxs = cluster.job_contexts(trace=trace)
    group = CommGroup([ctx.comm for ctx in ctxs])

    shards, hists = [], []
    for ctx in ctxs:
        shard = table.slice(*block_share(len(table), n_ranks, ctx.rank))
        ctx.clock.phase = "local_histogram"
        ctx.clock.advance(ctx.cost.cpu_cost("scan", len(shard)), jitter=True)
        rank_pids = shard.column("key") & (n_net - 1)
        hists.append(bucket_counts(rank_pids, n_net).astype(np.int64))
        ctx.clock.advance(ctx.cost.cpu_cost("histogram", len(shard)), jitter=True)
        ctx.clock.phase = "global_histogram"
        shards.append((shard, rank_pids))

    global_hist = group.allreduce(hists, op="sum")
    matrix = np.stack(group.allgather(hists, payload_bytes=hists[0].nbytes))
    bases, owned_rows = window_layout(global_hist, n_ranks)
    owned = owned_rows.tolist()

    for ctx, (shard, _) in zip(ctxs, shards):
        ctx.clock.phase = "network_partition"
        ctx.clock.advance(ctx.cost.cpu_cost("scan", len(shard)), jitter=True)
    windows = group.win_create(COMPRESSED_TYPE if comp else _KV_TYPE, owned)
    for ctx, (shard, rank_pids) in zip(ctxs, shards):
        clock, cost = ctx.clock, ctx.cost
        order, counts, offsets = partition_layout(rank_pids, n_net)
        clock.advance(cost.cpu_cost("partition", len(shard)), jitter=True)
        wire = comp.pack_batch(shard) if comp else shard
        # This rank's write offset into every partition: after the lower ranks'.
        cursor = bases + matrix[: ctx.rank].sum(axis=0)
        for pid in np.flatnonzero(counts):
            pid = int(pid)
            lo, hi = int(offsets[pid]), int(offsets[pid + 1])
            if comp:
                clock.advance(cost.cpu_cost("map", hi - lo), jitter=True)
            target, write_base = pid % n_ranks, int(cursor[pid]) - lo
            for row in range(lo, hi, _PUT_CHUNK_ROWS):
                end = min(row + _PUT_CHUNK_ROWS, hi)
                windows[ctx.rank].put(target, write_base + row, wire, order[row:end])
    # Every rank's partition ids (and the last rank's scatter order and
    # wire) die here, not when the job ends: held through the aggregation
    # they cost about 580 page faults per 2^18-tuple group-by on 4 ranks.
    del shards, shard, rank_pids, wire, order
    group.fence(windows)

    per_rank = []
    for ctx in ctxs:
        clock, cost, local = ctx.clock, ctx.cost, windows[ctx.rank].local
        clock.phase = "aggregation"
        parts = []
        for pid in range(ctx.rank, n_net, n_ranks):
            data = local.read(int(bases[pid]), int(bases[pid] + global_hist[pid]))
            # Compressed rows recover their key's network bits from the partition id.
            parts.append(comp.unpack_batch(data, pid, _KV_TYPE) if comp else data)
        rows = RowVector.concat(_KV_TYPE, parts)
        if comp:
            clock.advance(cost.cpu_cost("map", owned[ctx.rank]), jitter=True)
        clock.advance(cost.cpu_cost("reduce", owned[ctx.rank]), jitter=True)
        keys, (sums,) = key_sums(rows.column("key"), [rows.column("value")])

        clock.phase = "materialize"
        groups = RowVector(_KV_TYPE, [keys, sums])
        clock.advance(cost.materialize_cost(groups.size_bytes()), jitter=True)
        per_rank.append(groups)
    group.check()
    return MonolithicGroupByResult(
        groups=RowVector.concat(_KV_TYPE, per_rank),
        cluster_result=ClusterResult.of(ctxs, per_rank, trace),
    )
