"""The distributed radix hash join as a sub-operator plan (paper Fig. 3).

Builds the exact plan of Section 4.1.2: per rank, each side runs
``LocalHistogram → MpiHistogram → MpiExchange`` (with optional radix
compression), the two sides are zipped into ⟨partitionID, data⟩ pair tuples
and handed to a first-level ``NestedMap`` that radix-partitions each
network partition further into cache-sized sub-partitions; a second-level
``NestedMap`` joins each sub-partition pair with ``BuildProbe`` and
recovers the compressed key bits with a ``ParametrizedMap`` parametrized by
the network partition ID.

None of the sub-operators used here is specific to this join — the paper's
headline modularity claim — and swapping ``join_type`` (inner/semi/anti/
left_outer) changes only the BuildProbe probe policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.compression import RadixCompression
from repro.core.executor import ExecutionReport, execute
from repro.core.functions import (
    ParamTupleFunction,
    RadixPartition,
    TupleFunction,
    next_power_of_two,
)
from repro.core.options import RunOptions
from repro.core.operator import Operator
from repro.core.operators import (
    BuildProbe,
    LocalSort,
    MergeJoin,
    CartesianProduct,
    LocalHistogram,
    LocalPartitioning,
    Map,
    MaterializeRowVector,
    MpiExchange,
    MpiExecutor,
    MpiHistogram,
    NestedMap,
    ParameterLookup,
    ParameterSlot,
    ParametrizedMap,
    Projection,
    RowScan,
    Zip,
)
from repro.errors import TypeCheckError
from repro.mpi.cluster import SimCluster
from repro.types.atoms import INT64
from repro.types.collections import RowVector, row_vector_type
from repro.types.tuples import TupleType

__all__ = ["DistributedJoinPlan", "build_distributed_join"]


def _two_column_check(side: str, tuple_type: TupleType, key: str) -> str:
    """Validate a ⟨key, payload⟩ relation; return the payload field name."""
    if key not in tuple_type:
        raise TypeCheckError(f"{side} relation {tuple_type!r} lacks key field {key!r}")
    payloads = [f.name for f in tuple_type if f.name != key]
    if len(payloads) != 1 or any(tuple_type[f] != INT64 for f in tuple_type.field_names):
        raise TypeCheckError(
            f"the distributed join plan expects ⟨key, payload⟩ INT64 relations "
            f"(the paper's 16-byte workload); got {side} = {tuple_type!r}"
        )
    return payloads[0]


@dataclass
class DistributedJoinPlan:
    """A ready-to-run distributed join plan plus its binding points."""

    root: Operator
    slot: ParameterSlot
    executor: MpiExecutor
    output_type: TupleType
    cluster: SimCluster

    def run(
        self,
        left: RowVector,
        right: RowVector,
        options: RunOptions | None = None,
    ) -> ExecutionReport:
        """Execute the join on two driver-resident relations."""
        return execute(self.root, params={self.slot: (left, right)}, options=options)

    @staticmethod
    def matches(result: ExecutionReport) -> RowVector:
        """Extract the materialized join output from an execution result."""
        (row,) = result.rows
        return row[0]


def build_distributed_join(
    cluster: SimCluster,
    left_type: TupleType,
    right_type: TupleType,
    key: str = "key",
    network_fanout: int | None = None,
    local_fanout: int = 16,
    key_bits: int = 27,
    compression: bool = True,
    join_type: str = "inner",
    algorithm: str = "hash",
) -> DistributedJoinPlan:
    """Assemble the Figure 3 plan for two ⟨key, payload⟩ relations.

    Args:
        cluster: Simulated cluster to run the data-parallel part on.
        left_type / right_type: Tuple types of the build and probe
            relations; one INT64 key field (same name on both sides) and
            one INT64 payload field (distinct names).
        key: Name of the join attribute.
        network_fanout: First-level radix fan-out (power of two); defaults
            to the cluster size, i.e. one network partition per rank.
        local_fanout: Second-level fan-out producing cache-sized
            sub-partitions (power of two).
        key_bits: ``P``: keys and payloads come from a dense ``2**P``
            domain; used by the compression scheme.
        compression: Pack ⟨key, payload⟩ into 8-byte words on the wire,
            halving network volume (paper Section 4.1.1).
        join_type: BuildProbe variant (inner/semi/anti/left_outer).
        algorithm: ``hash`` joins each sub-partition pair with BuildProbe
            (the paper's plan); ``sortmerge`` swaps that one plan fragment
            for LocalSort + MergeJoin — the sort-vs-hash ablation.
    """
    if algorithm not in ("hash", "sortmerge"):
        raise TypeCheckError(f"unknown join algorithm {algorithm!r}")
    n_net = network_fanout or next_power_of_two(cluster.n_ranks)
    if n_net & (n_net - 1):
        raise TypeCheckError(f"network fan-out must be a power of two, got {n_net}")
    fanout_bits = n_net.bit_length() - 1
    left_payload = _two_column_check("left", left_type, key)
    right_payload = _two_column_check("right", right_type, key)
    if left_payload == right_payload:
        raise TypeCheckError(
            f"left and right payload fields must have distinct names, both are "
            f"{left_payload!r}"
        )
    comp = RadixCompression(key_bits, fanout_bits) if compression else None

    slot = ParameterSlot(
        TupleType.of(
            left=row_vector_type(left_type), right=row_vector_type(right_type)
        )
    )

    def build_worker(worker_slot: ParameterSlot) -> Operator:
        exchanged = []
        for side, pid_field, data_field in (
            ("left", "net_l", "data_l"),
            ("right", "net_r", "data_r"),
        ):
            scan = RowScan(
                Projection(ParameterLookup(worker_slot), [side]),
                field=side,
                shard_by_rank=True,
            )
            net_fn = RadixPartition(key, n_net)
            local_hist = LocalHistogram(scan, net_fn)
            global_hist = MpiHistogram(local_hist, n_net)
            exchanged.append(
                MpiExchange(
                    scan,
                    local_hist,
                    global_hist,
                    net_fn,
                    compression=comp,
                    id_field=pid_field,
                    data_field=data_field,
                )
            )
        zipped = Zip(exchanged)
        joined = NestedMap(
            zipped,
            lambda s: _build_network_partition_plan(
                s, key, left_payload, right_payload, local_fanout, key_bits,
                fanout_bits, comp, join_type, algorithm,
            ),
        )
        flat = RowScan(joined, field="matches")
        return MaterializeRowVector(flat, field="result")

    executor = MpiExecutor(ParameterLookup(slot), build_worker, cluster)
    flat = RowScan(executor, field="result")
    root = MaterializeRowVector(flat, field="result")
    return DistributedJoinPlan(
        root=root,
        slot=slot,
        executor=executor,
        output_type=root.output_type,
        cluster=cluster,
    )


def _build_network_partition_plan(
    slot: ParameterSlot,
    key: str,
    left_payload: str,
    right_payload: str,
    local_fanout: int,
    key_bits: int,
    fanout_bits: int,
    comp: RadixCompression | None,
    join_type: str,
    algorithm: str,
) -> Operator:
    """First-level nested plan: sub-partition one network partition pair."""
    lookup = ParameterLookup(slot)
    pid = Projection(lookup, ["net_l"])
    def local_side(data_field: str, sub_id: str, sub_data: str) -> LocalPartitioning:
        stream = RowScan(Projection(ParameterLookup(slot), [data_field]))
        if comp is not None:
            # The wire carries packed words whose low ``key_bits`` are the
            # payload; the compressed key (network bits already dropped)
            # starts right above them.
            local_fn = RadixPartition("packed", local_fanout, shift=key_bits)
        else:
            # Sub-partition on the key bits right above the network bits.
            local_fn = RadixPartition(key, local_fanout, shift=fanout_bits)
        hist = LocalHistogram(stream, local_fn)
        # The second-pass histogram is part of the local-partitioning phase
        # in the paper's accounting (it feeds the in-memory scatter).
        hist.phase_name = "local_partition"
        return LocalPartitioning(
            stream, hist, local_fn, id_field=sub_id, data_field=sub_data
        )

    left = local_side("data_l", "sub_l", "sdata_l")
    right = local_side("data_r", "sub_r", "sdata_r")
    pairs = CartesianProduct(pid, Zip([left, right]))
    joined = NestedMap(
        pairs,
        lambda s: _build_sub_partition_plan(
            s, key, left_payload, right_payload, key_bits, comp, join_type,
            algorithm,
        ),
    )
    flat = RowScan(joined, field="matches")
    return MaterializeRowVector(flat, field="matches")


def _build_sub_partition_plan(
    slot: ParameterSlot,
    key: str,
    left_payload: str,
    right_payload: str,
    key_bits: int,
    comp: RadixCompression | None,
    join_type: str,
    algorithm: str = "hash",
) -> Operator:
    """Second-level nested plan: join one sub-partition pair in memory."""
    pid = Projection(ParameterLookup(slot), ["net_l"])
    left_stream = RowScan(Projection(ParameterLookup(slot), ["sdata_l"]))
    right_stream = RowScan(Projection(ParameterLookup(slot), ["sdata_r"]))

    def join_pair(left_side: Operator, right_side: Operator, join_key: str) -> Operator:
        if algorithm == "sortmerge":
            return MergeJoin(
                LocalSort(left_side, join_key),
                LocalSort(right_side, join_key),
                key=join_key,
                join_type=join_type,
            )
        return BuildProbe(left_side, right_side, keys=join_key, join_type=join_type)

    if comp is None:
        return MaterializeRowVector(
            join_pair(left_stream, right_stream, key), field="matches"
        )

    left_kv = Map(left_stream, _unpack_fn(comp, "ckey", left_payload))
    right_kv = Map(right_stream, _unpack_fn(comp, "ckey", right_payload))
    probe = join_pair(left_kv, right_kv, "ckey")
    recover = ParametrizedMap(probe, pid, _recover_fn(comp, key, probe.output_type))
    return MaterializeRowVector(recover, field="matches")


def _unpack_fn(comp: RadixCompression, key_field: str, payload: str) -> TupleFunction:
    """Split a packed word into ⟨compressed key, payload⟩ columns."""
    key_bits = comp.key_bits
    mask = comp.payload_mask

    def scalar(row: tuple) -> tuple:
        packed = row[0]
        return (packed >> key_bits, packed & mask)

    def vectorized(columns: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
        packed = columns[0]
        return (packed >> key_bits, packed & mask)

    return TupleFunction(
        scalar, TupleType.of(**{key_field: INT64, payload: INT64}), vectorized
    )


def _recover_fn(
    comp: RadixCompression, key: str, probe_type: TupleType
) -> ParamTupleFunction:
    """Restore the network bits dropped by compression: key = ckey<<F | pid."""
    fanout_bits = comp.fanout_bits
    output_type = probe_type.rename({"ckey": key})

    def scalar(param: tuple, row: tuple) -> tuple:
        return ((row[0] << fanout_bits) | param[0],) + row[1:]

    def vectorized(param: tuple, columns: tuple[np.ndarray, ...]) -> tuple:
        restored = (columns[0] << fanout_bits) | param[0]
        return (restored,) + tuple(columns[1:])

    return ParamTupleFunction(scalar, output_type, vectorized)
