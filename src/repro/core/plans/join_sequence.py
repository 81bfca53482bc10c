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

from repro.core.executor import ExecutionReport
from repro.core.functions import RadixPartition
from repro.core.operator import Operator
from repro.core.options import RunOptions
from repro.core.operators import BuildProbe, MaterializeRowVector, ParameterSlot
from repro.core.plans.fragments import (
    DistributedPlan,
    collect,
    exchange,
    partitioned_join,
    radix_fanout,
    sharded_scan,
)
from repro.errors import TypeCheckError
from repro.mpi.cluster import SimCluster
from repro.types.atoms import INT64
from repro.types.collections import RowVector, row_vector_type
from repro.types.tuples import TupleType

__all__ = ["JoinSequencePlan", "build_join_sequence"]

VARIANTS = ("naive", "optimized")


@dataclass
class JoinSequencePlan(DistributedPlan):
    """A ready-to-run N-join cascade plus its binding points."""

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
        return self.execute(tuple(relations), options)

    matches = staticmethod(DistributedPlan.result)


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

    n_net = radix_fanout(network_fanout, cluster.n_ranks)
    fanout_bits = n_net.bit_length() - 1
    n_relations = len(relation_types)

    slot = ParameterSlot(
        TupleType.of(
            **{f"r{i}": row_vector_type(rel) for i, rel in enumerate(relation_types)}
        )
    )

    def exchange_of(stream: Operator, id_field: str, data_field: str) -> Operator:
        # Deliberately uncompressed (MOD023): both Figure 4 variants must use
        # the same wire format — see the docstring above.
        ladder = exchange(stream, RadixPartition(key, n_net), id_field, data_field)
        return ladder.suppress("MOD023")

    def join_stage(streams: list[Operator], suffixes: Sequence, join) -> Operator:
        """Network- and locally partition ``streams`` on the shared key, then
        join each sub-partition tuple; returns the flat match stream."""
        return partitioned_join(
            streams, suffixes, exchange_of,
            lambda: RadixPartition(key, local_fanout, shift=fanout_bits),
            join, lambda matches: matches, "matches",
        )

    def chain(scans: list[Operator]) -> Operator:
        acc = scans[0]
        for side in scans[1:]:
            # Build on the incoming relation, probe with the streaming
            # cascade output: intermediate results never materialize.
            acc = BuildProbe(side, acc, keys=key)
        return acc

    def build_worker(worker_slot: ParameterSlot) -> Operator:
        scans = [sharded_scan(worker_slot, f"r{i}") for i in range(n_relations)]
        if variant == "optimized":
            # Pre-partition all relations once, chain BuildProbes per partition.
            stream = join_stage(scans, range(n_relations), chain)
        else:
            # A full distributed join per stage.  From the second stage on
            # ``stream`` is consumed by both the histogram and the exchange,
            # so the plan compiler inserts a materialization point — exactly
            # the extra intermediate-result materialization the naive
            # variant pays for (§5.2.1).
            def pair(sides: list[Operator]) -> Operator:
                return BuildProbe(*sides, keys=key)

            stream = join_stage(scans[:2], ("_l", "_r"), pair)
            for scan in scans[2:]:
                stream = join_stage([scan, stream], ("_l", "_r"), pair)
        return MaterializeRowVector(stream, field="result")

    executor, flat = collect(slot, build_worker, cluster)
    root = MaterializeRowVector(flat, field="result")
    return JoinSequencePlan(
        root, slot, executor, root.output_type, cluster,
        variant=variant, n_joins=n_relations - 1,
    )
