"""Sequences of joins on the same attribute (paper Fig. 4, §4.2).

Two variants of an N-join cascade over relations ``R0 ⋈ R1 ⋈ … ⋈ RN``:

* **naive** — each join is a full distributed join; its materialized output
  is re-shuffled through the network together with the next relation, so a
  cascade of N joins shuffles ``2·N`` relations and materializes every
  intermediate result.
* **optimized** — because all joins share the join attribute, all ``N+1``
  relations are network-partitioned once up front; the per-partition nested
  plan then chains ``BuildProbe`` operators so intermediate join outputs
  stream from one probe into the next without materialization or further
  shuffling.

The paper's point is that this restructuring is a trivial re-composition of
the same sub-operators, whereas monolithic join operators would need deep
surgery.  Both variants below are assembled from the identical building
blocks used in :mod:`repro.core.plans.join`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.executor import ExecutionReport, execute
from repro.core.functions import RadixPartition, next_power_of_two
from repro.core.operator import Operator
from repro.core.options import RunOptions
from repro.core.operators import (
    BuildProbe,
    LocalHistogram,
    LocalPartitioning,
    MaterializeRowVector,
    MpiExchange,
    MpiExecutor,
    MpiHistogram,
    NestedMap,
    ParameterLookup,
    ParameterSlot,
    Projection,
    RowScan,
    Zip,
)
from repro.errors import TypeCheckError
from repro.mpi.cluster import SimCluster
from repro.types.atoms import INT64
from repro.types.collections import RowVector, row_vector_type
from repro.types.tuples import TupleType

__all__ = ["JoinSequencePlan", "build_join_sequence"]

VARIANTS = ("naive", "optimized")


@dataclass
class JoinSequencePlan:
    """A ready-to-run N-join cascade plus its binding points."""

    root: Operator
    slot: ParameterSlot
    executor: MpiExecutor
    output_type: TupleType
    cluster: SimCluster
    variant: str
    n_joins: int

    def run(
        self,
        relations: Sequence[RowVector],
        options: RunOptions | None = None,
    ) -> ExecutionReport:
        if len(relations) != self.n_joins + 1:
            raise TypeCheckError(
                f"{self.n_joins}-join cascade needs {self.n_joins + 1} relations, "
                f"got {len(relations)}"
            )
        return execute(
            self.root, params={self.slot: tuple(relations)}, options=options
        )

    @staticmethod
    def matches(result: ExecutionReport) -> RowVector:
        (row,) = result.rows
        return row[0]


def build_join_sequence(
    cluster: SimCluster,
    relation_types: Sequence[TupleType],
    key: str = "key",
    variant: str = "optimized",
    network_fanout: int | None = None,
    local_fanout: int = 16,
) -> JoinSequencePlan:
    """Assemble a cascade of ``len(relation_types) - 1`` joins.

    Args:
        cluster: Simulated cluster for the data-parallel part.
        relation_types: One ⟨key, payload⟩ tuple type per relation; all
            share the key field, payload names are pairwise distinct.
        key: The common join attribute.
        variant: ``"naive"`` or ``"optimized"`` (Fig. 4 left/right).
        network_fanout / local_fanout: Radix fan-outs (powers of two).

    Compression is not applied: the naive variant shuffles multi-field
    intermediate results that do not fit the ⟨key, payload⟩ packing, and
    using the identical wire format in both variants keeps the comparison
    about shuffles and materializations, as in the paper.
    """
    if len(relation_types) < 3:
        raise TypeCheckError(
            "a join sequence needs at least three relations (two joins)"
        )
    if variant not in VARIANTS:
        raise TypeCheckError(f"unknown variant {variant!r}; pick one of {VARIANTS}")
    payloads: set[str] = set()
    for i, rel in enumerate(relation_types):
        if key not in rel:
            raise TypeCheckError(f"relation {i} ({rel!r}) lacks key field {key!r}")
        for f in rel.field_names:
            if f != key:
                if f in payloads:
                    raise TypeCheckError(f"payload field {f!r} appears in two relations")
                payloads.add(f)
        if any(rel[f] != INT64 for f in rel.field_names):
            raise TypeCheckError(f"relation {i} must be all-INT64, got {rel!r}")

    n_net = network_fanout or next_power_of_two(cluster.n_ranks)
    if n_net & (n_net - 1):
        raise TypeCheckError(f"network fan-out must be a power of two, got {n_net}")
    fanout_bits = n_net.bit_length() - 1

    slot = ParameterSlot(
        TupleType.of(
            **{f"r{i}": row_vector_type(rel) for i, rel in enumerate(relation_types)}
        )
    )

    def build_worker(worker_slot: ParameterSlot) -> Operator:
        scans = [
            RowScan(
                Projection(ParameterLookup(worker_slot), [f"r{i}"]),
                field=f"r{i}",
                shard_by_rank=True,
            )
            for i in range(len(relation_types))
        ]
        if variant == "optimized":
            stream = _optimized_cascade(scans, key, n_net, local_fanout, fanout_bits)
        else:
            stream = _naive_cascade(scans, key, n_net, local_fanout, fanout_bits)
        return MaterializeRowVector(stream, field="result")

    executor = MpiExecutor(ParameterLookup(slot), build_worker, cluster)
    flat = RowScan(executor, field="result")
    root = MaterializeRowVector(flat, field="result")
    return JoinSequencePlan(
        root=root,
        slot=slot,
        executor=executor,
        output_type=root.output_type,
        cluster=cluster,
        variant=variant,
        n_joins=len(relation_types) - 1,
    )


def _exchange(
    stream: Operator, key: str, n_net: int, pid_field: str, data_field: str
) -> MpiExchange:
    """The standard LocalHistogram → MpiHistogram → MpiExchange ladder."""
    net_fn = RadixPartition(key, n_net)
    local_hist = LocalHistogram(stream, net_fn)
    global_hist = MpiHistogram(local_hist, n_net)
    # Deliberately uncompressed (MOD023): both Figure 4 variants must use
    # the same wire format — see the build_join_sequence docstring.
    return MpiExchange(
        stream, local_hist, global_hist, net_fn,
        id_field=pid_field, data_field=data_field,
    ).suppress("MOD023")


def _optimized_cascade(
    scans: list[Operator], key: str, n_net: int, local_fanout: int, fanout_bits: int
) -> Operator:
    """Pre-partition all relations, then chain BuildProbes per partition."""
    k = len(scans)
    exchanges = [
        _exchange(scan, key, n_net, f"net{i}", f"data{i}")
        for i, scan in enumerate(scans)
    ]
    zipped = Zip(exchanges)

    def level1(slot: ParameterSlot) -> Operator:
        partitioned = []
        for i in range(k):
            stream = RowScan(Projection(ParameterLookup(slot), [f"data{i}"]))
            local_fn = RadixPartition(key, local_fanout, shift=fanout_bits)
            hist = LocalHistogram(stream, local_fn)
            hist.phase_name = "local_partition"
            partitioned.append(
                LocalPartitioning(
                    stream, hist, local_fn, id_field=f"sub{i}", data_field=f"sd{i}"
                )
            )
        pairs = Zip(partitioned)

        def level2(slot2: ParameterSlot) -> Operator:
            acc = RowScan(Projection(ParameterLookup(slot2), ["sd0"]))
            for i in range(1, k):
                side = RowScan(Projection(ParameterLookup(slot2), [f"sd{i}"]))
                # Build on the incoming relation, probe with the streaming
                # cascade output: intermediate results never materialize.
                acc = BuildProbe(side, acc, keys=key)
            return MaterializeRowVector(acc, field="matches")

        joined = NestedMap(pairs, level2)
        flat = RowScan(joined, field="matches")
        return MaterializeRowVector(flat, field="matches")

    joined = NestedMap(zipped, level1)
    return RowScan(joined, field="matches")


def _naive_cascade(
    scans: list[Operator], key: str, n_net: int, local_fanout: int, fanout_bits: int
) -> Operator:
    """Full distributed join per stage; re-shuffle each intermediate result."""
    acc = _network_join(scans[0], scans[1], key, n_net, local_fanout, fanout_bits)
    for scan in scans[2:]:
        # ``acc`` is consumed by both the histogram and the exchange of the
        # next stage, so the plan compiler inserts a materialization point —
        # exactly the extra intermediate-result materialization the naive
        # variant pays for (§5.2.1).
        acc = _network_join(scan, acc, key, n_net, local_fanout, fanout_bits)
    return acc


def _network_join(
    left: Operator, right: Operator, key: str, n_net: int, local_fanout: int,
    fanout_bits: int,
) -> Operator:
    """One full distributed join stage returning a flat match stream."""
    ex_left = _exchange(left, key, n_net, "net_l", "data_l")
    ex_right = _exchange(right, key, n_net, "net_r", "data_r")
    zipped = Zip([ex_left, ex_right])

    def level1(slot: ParameterSlot) -> Operator:
        partitioned = []
        for data_field, sub_id, sub_data in (
            ("data_l", "sub_l", "sd_l"),
            ("data_r", "sub_r", "sd_r"),
        ):
            stream = RowScan(Projection(ParameterLookup(slot), [data_field]))
            local_fn = RadixPartition(key, local_fanout, shift=fanout_bits)
            hist = LocalHistogram(stream, local_fn)
            hist.phase_name = "local_partition"
            partitioned.append(
                LocalPartitioning(
                    stream, hist, local_fn, id_field=sub_id, data_field=sub_data
                )
            )
        pairs = Zip(partitioned)

        def level2(slot2: ParameterSlot) -> Operator:
            build = RowScan(Projection(ParameterLookup(slot2), ["sd_l"]))
            probe = RowScan(Projection(ParameterLookup(slot2), ["sd_r"]))
            return MaterializeRowVector(
                BuildProbe(build, probe, keys=key), field="matches"
            )

        joined = NestedMap(pairs, level2)
        flat = RowScan(joined, field="matches")
        return MaterializeRowVector(flat, field="matches")

    joined = NestedMap(zipped, level1)
    return RowScan(joined, field="matches")
