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
from repro.core.executor import ExecutionReport
from repro.core.functions import ParamTupleFunction, RadixPartition, TupleFunction
from repro.core.options import RunOptions
from repro.core.operator import Operator
from repro.core.operators import (
    BuildProbe,
    LocalSort,
    MergeJoin,
    CartesianProduct,
    Map,
    MaterializeRowVector,
    NestedMap,
    ParameterLookup,
    ParameterSlot,
    ParametrizedMap,
    Projection,
    RowScan,
    Zip,
)
from repro.core.plans.fragments import (
    DistributedPlan,
    collect,
    exchange,
    field_scan,
    local_level,
    radix_fanout,
    sharded_scan,
    sized_local_fanout,
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
class DistributedJoinPlan(DistributedPlan):
    """A ready-to-run distributed join plan plus its binding points."""

    def run(
        self,
        left: RowVector,
        right: RowVector,
        options: RunOptions | None = None,
    ) -> ExecutionReport:
        """Execute the join on two driver-resident relations."""
        return self.execute((left, right), options)

    #: Extract the materialized join output from an execution result.
    matches = staticmethod(DistributedPlan.result)


def build_distributed_join(
    cluster: SimCluster,
    left_type: TupleType,
    right_type: TupleType,
    key: str = "key",
    network_fanout: int | None = None,
    local_fanout: int | None = None,
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
            sub-partitions (power of two).  ``None`` sizes it from the
            ``2**key_bits`` build rows against the cache budget (at most
            16; at 1 no local level is planned); an integer pins it.
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
    n_net = radix_fanout(network_fanout, cluster.n_ranks)
    fanout_bits = n_net.bit_length() - 1
    left_payload = _two_column_check("left", left_type, key)
    right_payload = _two_column_check("right", right_type, key)
    if left_payload == right_payload:
        raise TypeCheckError(
            f"left and right payload fields must have distinct names, both are "
            f"{left_payload!r}"
        )
    comp = RadixCompression(key_bits, fanout_bits) if compression else None
    local_fanout = sized_local_fanout(local_fanout, key_bits, n_net, left_type, cluster)

    slot = ParameterSlot(
        TupleType.of(
            left=row_vector_type(left_type), right=row_vector_type(right_type)
        )
    )

    def build_worker(worker_slot: ParameterSlot) -> Operator:
        exchanged = [
            exchange(
                sharded_scan(worker_slot, side), RadixPartition(key, n_net),
                f"net_{s}", f"data_{s}", comp,
            )
            for side, s in (("left", "l"), ("right", "r"))
        ]
        joined = NestedMap(Zip(exchanged), network_partition_plan)
        flat = RowScan(joined, field="matches")
        return MaterializeRowVector(flat, field="result")

    def network_partition_plan(slot: ParameterSlot) -> Operator:
        """First-level nested plan: sub-partition one network partition pair."""
        if local_fanout == 1:  # the pair fits the cache: join it directly
            return sub_partition_plan(slot, "data_")
        pid = Projection(ParameterLookup(slot), ["net_l"])

        def local_side(s: str) -> Operator:
            if comp is not None:
                # The wire carries packed words whose low ``key_bits`` are the
                # payload; the compressed key (network bits already dropped)
                # starts right above them.
                local_fn = RadixPartition("packed", local_fanout, shift=key_bits)
            else:
                # Sub-partition on the key bits right above the network bits.
                local_fn = RadixPartition(key, local_fanout, shift=fanout_bits)
            return local_level(
                field_scan(slot, f"data_{s}"), local_fn, f"sub_{s}", f"sdata_{s}"
            )

        pairs = CartesianProduct(pid, Zip([local_side("l"), local_side("r")]))
        joined = NestedMap(pairs, lambda s: sub_partition_plan(s, "sdata_"))
        flat = RowScan(joined, field="matches")
        return MaterializeRowVector(flat, field="matches")

    def join_pair(left_side: Operator, right_side: Operator, join_key: str) -> Operator:
        if algorithm == "sortmerge":
            return MergeJoin(
                LocalSort(left_side, join_key),
                LocalSort(right_side, join_key),
                key=join_key,
                join_type=join_type,
            )
        return BuildProbe(left_side, right_side, keys=join_key, join_type=join_type)

    def sub_partition_plan(slot: ParameterSlot, prefix: str) -> Operator:
        """Innermost nested plan: join one (sub-)partition pair in memory."""
        pid = Projection(ParameterLookup(slot), ["net_l"])
        left_stream = field_scan(slot, f"{prefix}l")
        right_stream = field_scan(slot, f"{prefix}r")
        if comp is None:
            return MaterializeRowVector(
                join_pair(left_stream, right_stream, key), field="matches"
            )
        left_kv = Map(left_stream, _unpack_fn(comp, "ckey", left_payload))
        right_kv = Map(right_stream, _unpack_fn(comp, "ckey", right_payload))
        probe = join_pair(left_kv, right_kv, "ckey")
        recover = ParametrizedMap(probe, pid, _recover_fn(comp, key, probe.output_type))
        return MaterializeRowVector(recover, field="matches")

    executor, flat = collect(slot, build_worker, cluster)
    root = MaterializeRowVector(flat, field="result")
    return DistributedJoinPlan(root, slot, executor, root.output_type, cluster)


def _unpack_fn(comp: RadixCompression, key_field: str, payload: str) -> TupleFunction:
    """Split a packed word into ⟨compressed key, payload⟩ columns."""
    key_bits = comp.key_bits
    mask = comp.payload_mask

    def vectorized(columns: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
        packed = columns[0]
        return (packed >> key_bits, packed & mask)

    return TupleFunction(
        None, TupleType.of(**{key_field: INT64, payload: INT64}), vectorized
    )


def _recover_fn(
    comp: RadixCompression, key: str, probe_type: TupleType
) -> ParamTupleFunction:
    """Restore the network bits dropped by compression: key = ckey<<F | pid."""
    fanout_bits = comp.fanout_bits
    output_type = probe_type.rename({"ckey": key})

    def vectorized(param: tuple, columns: tuple[np.ndarray, ...]) -> tuple:
        restored = (columns[0] << fanout_bits) | param[0]
        return (restored,) + tuple(columns[1:])

    return ParamTupleFunction(None, output_type, vectorized)
