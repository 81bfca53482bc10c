"""The monolithic distributed radix hash join (Barthels et al., paper §4.1.1).

One imperative function implements the whole three-phase algorithm of
Figure 2 — histogram computation, multi-pass partitioning with network
transfer and compression, hash build and probe — directly against the
simulated MPI substrate, with no sub-operator abstractions.  This is the
baseline the Modularis plan of Figure 3 is compared against in Figures 6a
and 6b.

Structural differences from the modular plan, mirroring the paper:

* histograms of *both* relations are combined in a single ``MPI_Allreduce``
  and both windows are registered back-to-back, so ranks stall at most once
  per phase (the modular plan runs one collective epoch per upstream path);
* no abstraction overhead: CPU work is charged at the hand-written-loop
  rate (overhead 1.0) instead of the fused-pipeline rate;
* only the final join result is materialized (the paper extended the
  original code with a result materialization to make the comparison fair).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.compression import COMPRESSED_TYPE, RadixCompression
from repro.core.kernels.hash_join import HashJoinSpec
from repro.core.kernels.radix_join import select_join_kernel
from repro.core.kernels.scatter import bucket_counts, partition_layout, window_layout
from repro.core.plans.fragments import radix_fanout
from repro.errors import SimulationError
from repro.mpi.cluster import ClusterResult, RankContext, SimCluster, block_share
from repro.mpi.comm import CommGroup
from repro.mpi.trace import ClusterTrace
from repro.types.atoms import INT64
from repro.types.collections import RowVector
from repro.types.tuples import TupleType

__all__ = ["MonolithicJoinResult", "run_monolithic_join"]

_PUT_CHUNK_ROWS = 1 << 15


@dataclass
class MonolithicJoinResult:
    """Join output plus the timing evidence of the run."""

    matches: RowVector
    cluster_result: ClusterResult

    @property
    def seconds(self) -> float:
        return self.cluster_result.makespan

    def phase_breakdown(self) -> dict[str, float]:
        return self.cluster_result.phase_breakdown()


def run_monolithic_join(
    cluster: SimCluster,
    left: RowVector,
    right: RowVector,
    key_bits: int = 27,
    network_fanout: int | None = None,
    local_fanout: int = 16,
    compression: bool = True,
) -> MonolithicJoinResult:
    """Run the monolithic join on a cluster and gather the global result.

    Both relations must be ⟨key, payload⟩ INT64 relations with distinct
    payload field names (the paper's 16-byte workload).  The ranks walk
    each phase in lockstep on this thread, one call per collective.
    """
    n_net = radix_fanout(network_fanout, cluster.n_ranks)
    if local_fanout & (local_fanout - 1):
        raise SimulationError(
            f"local fan-out must be a power of two, got {local_fanout}"
        )
    fanout_bits = n_net.bit_length() - 1
    comp = RadixCompression(key_bits, fanout_bits) if compression else None
    spec = HashJoinSpec(
        join_type="inner",
        output_type=TupleType.of(
            key=INT64,
            **{_payload_name(left.element_type): INT64,
               _payload_name(right.element_type): INT64},
        ),
        key="key",
        left_rest_pos=(1,),
        right_rest_pos=(1,),
        right_type=right.element_type,
        outer_fill=None,
    )
    n_ranks = cluster.n_ranks
    trace = ClusterTrace(n_ranks) if cluster.trace else None
    ctxs = cluster.job_contexts(trace=trace)
    group = CommGroup([ctx.comm for ctx in ctxs])

    # -- phase 1: histograms of both relations, one collective --------------
    shards, hists = [], []
    for ctx in ctxs:
        shard = _rank_shard(ctx, left), _rank_shard(ctx, right)
        ctx.clock.phase = "local_histogram"
        pids = [side.column("key") & (n_net - 1) for side in shard]
        hists.append(
            np.concatenate([bucket_counts(p, n_net) for p in pids]).astype(np.int64)
        )
        ctx.clock.advance(
            ctx.cost.cpu_cost("histogram", len(pids[0]) + len(pids[1])), jitter=True
        )
        ctx.clock.phase = "global_histogram"
        shards.append((shard, pids))
    global_both = group.allreduce(hists, op="sum")
    matrix_both = np.stack(group.allgather(hists, payload_bytes=hists[0].nbytes))
    left_global = global_both[:n_net]
    right_global = global_both[n_net:]
    left_bases, left_owned = window_layout(left_global, n_ranks)
    right_bases, right_owned = window_layout(right_global, n_ranks)

    # -- phase 2: network partitioning with compression ----------------------
    for ctx in ctxs:
        ctx.clock.phase = "network_partition"
    left_windows = group.win_create(
        COMPRESSED_TYPE if comp else left.element_type,
        left_owned.tolist(),
    )
    right_windows = group.win_create(
        COMPRESSED_TYPE if comp else right.element_type,
        right_owned.tolist(),
    )
    for ctx, (shard, pids) in zip(ctxs, shards):
        # This rank's write offset into every partition: after the lower ranks'.
        lower = matrix_both[: ctx.rank].sum(axis=0)
        _scatter_to_windows(ctx, left_windows[ctx.rank], shard[0], pids[0],
                            left_bases + lower[:n_net], comp)
        _scatter_to_windows(ctx, right_windows[ctx.rank], shard[1], pids[1],
                            right_bases + lower[n_net:], comp)
    # Every rank's partition ids die here, not when the job ends: held
    # through the join phase they cost about 1,400 page faults per
    # 2^18-tuple join on 4 ranks.
    del shards, shard, pids
    group.fence(left_windows)
    group.fence(right_windows)

    # -- phases 3+4: local partitioning, build, and probe ---------------------
    per_rank = []
    for ctx in ctxs:
        parts: list[RowVector] = []
        for pid in range(ctx.rank, n_net, n_ranks):
            left_rows = _read_partition(left_windows[ctx.rank], left.element_type,
                                        left_bases, left_global, pid, comp)
            right_rows = _read_partition(right_windows[ctx.rank], right.element_type,
                                         right_bases, right_global, pid, comp)
            parts += _join_partition(
                ctx, pid, left_rows, right_rows, spec, local_fanout, fanout_bits, comp
            )
        ctx.clock.phase = "materialize"
        matches = RowVector.concat(spec.output_type, parts)
        ctx.clock.advance(ctx.cost.materialize_cost(matches.size_bytes()), jitter=True)
        per_rank.append(matches)
    group.check()
    return MonolithicJoinResult(
        matches=RowVector.concat(spec.output_type, per_rank),
        cluster_result=ClusterResult.of(ctxs, per_rank, trace),
    )


# -- helpers -------------------------------------------------------------------


def _payload_name(element_type: TupleType) -> str:
    names = [f for f in element_type.field_names if f != "key"]
    if len(names) != 1:
        raise SimulationError(
            f"monolithic join expects ⟨key, payload⟩ relations, got {element_type!r}"
        )
    return names[0]


def _rank_shard(ctx: RankContext, table: RowVector) -> RowVector:
    start, stop = block_share(len(table), ctx.n_ranks, ctx.rank)
    ctx.clock.phase = "local_histogram"
    ctx.clock.advance(ctx.cost.cpu_cost("scan", stop - start), jitter=True)
    return table.slice(start, stop)


def _scatter_to_windows(
    ctx: RankContext,
    windows,
    shard: RowVector,
    pids: np.ndarray,
    cursor: np.ndarray,
    comp: RadixCompression | None,
) -> None:
    """Radix-partition one relation and put it into the remote windows."""
    comm, clock, cost = ctx.comm, ctx.clock, ctx.cost
    clock.phase = "network_partition"
    # The partitioning pass reads the input again (paper §4.1.1).
    clock.advance(cost.cpu_cost("scan", len(shard)), jitter=True)
    order, counts, offsets = partition_layout(pids, len(cursor))
    clock.advance(cost.cpu_cost("partition", len(shard)), jitter=True)
    wire = comp.pack_batch(shard) if comp else shard
    for pid in np.flatnonzero(counts):
        pid = int(pid)
        lo, hi = int(offsets[pid]), int(offsets[pid + 1])
        if comp:
            clock.advance(cost.cpu_cost("map", hi - lo), jitter=True)
        target, base = pid % comm.n_ranks, int(cursor[pid]) - lo
        for start in range(lo, hi, _PUT_CHUNK_ROWS):
            stop = min(start + _PUT_CHUNK_ROWS, hi)
            windows.put(target, base + start, wire, order[start:stop])


def _read_partition(
    windows,
    element_type: TupleType,
    bases: np.ndarray,
    sizes: np.ndarray,
    pid: int,
    comp: RadixCompression | None,
) -> RowVector:
    """Read one owned network partition back out of the local window."""
    base = int(bases[pid])
    data = windows.local.read(base, base + int(sizes[pid]))
    if comp is None:
        return data
    # Keys stay compressed (network bits dropped) until after the probe.
    return RowVector(element_type, list(comp.split(data.column("packed"))))


def _join_partition(
    ctx: RankContext,
    pid: int,
    left: RowVector,
    right: RowVector,
    spec: HashJoinSpec,
    local_fanout: int,
    fanout_bits: int,
    comp: RadixCompression | None,
) -> list[RowVector]:
    """Second partitioning pass plus hash build/probe of one partition pair."""
    clock, cost = ctx.clock, ctx.cost
    n_rows = len(left) + len(right)
    local_mask = local_fanout - 1
    # With compression the network bits are already dropped from the key;
    # without, they are the low bits and must be skipped.
    shift = 0 if comp else fanout_bits

    clock.phase = "local_partition"
    # Two passes over the received partition: histogram, then scatter.
    clock.advance(cost.cpu_cost("scan", 2 * n_rows), jitter=True)
    left_subs = (left.column("key") >> shift) & local_mask
    right_subs = (right.column("key") >> shift) & local_mask
    clock.advance(cost.cpu_cost("histogram", n_rows), jitter=True)
    left_order, _, left_offsets = partition_layout(left_subs, local_fanout)
    right_order, _, right_offsets = partition_layout(right_subs, local_fanout)
    left, right = left.take(left_order), right.take(right_order)
    clock.advance(cost.cpu_cost("partition", n_rows), jitter=True)
    clock.advance(cost.copy_cost(16 * n_rows), jitter=True)

    clock.phase = "build_probe"
    # One pass over each side to feed the hash build and the probe.
    clock.advance(cost.cpu_cost("scan", n_rows), jitter=True)
    out: list[RowVector] = []
    for sub in range(local_fanout):
        build = left.slice(int(left_offsets[sub]), int(left_offsets[sub + 1]))
        probe = right.slice(int(right_offsets[sub]), int(right_offsets[sub + 1]))
        matches = RowVector.empty(spec.output_type)
        if len(build) and len(probe):
            _, table, probe_fn = select_join_kernel("auto", build, "key")
            matches = probe_fn(table, probe, spec)
        clock.advance(cost.cpu_cost("build", len(build)), jitter=True)
        clock.advance(cost.cpu_cost("probe", len(probe) + len(matches)), jitter=True)
        if not len(matches):
            continue
        if comp:
            keys = comp.restore(matches.column("key"), pid)  # the dropped bits
            clock.advance(cost.cpu_cost("map", len(matches)), jitter=True)
            matches = RowVector(spec.output_type, [keys, *matches.columns[1:]])
        out.append(matches)
    return out
