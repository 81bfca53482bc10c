"""Broadcast join: replicate the small side instead of shuffling both.

The sub-operator library makes alternative distributed join strategies a
matter of re-composition (the paper's central claim): replacing the two
``MpiExchange`` ladders of Figure 3 with a single ``MpiBroadcast`` of the
small relation yields the classic broadcast (fragment-replicate) join —
every rank builds a hash table over the full small side and probes it with
its local shard of the big side.  No histograms of the big side, no
network partitioning of it, no nested partition plans.

Cost trade-off: the exchange join moves ``(|L| + |R|) / n`` tuples per
rank; the broadcast join moves ``|L|`` tuples to every rank but leaves
``R`` untouched.  Broadcasting wins when the build side is small — the
crossover is measured in ``benchmarks/test_broadcast_crossover.py`` and
exploited by the optimizer's strategy rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.executor import ExecutionReport
from repro.core.operator import Operator
from repro.core.options import RunOptions
from repro.core.operators import BuildProbe, MaterializeRowVector, ParameterSlot
from repro.core.plans.fragments import (
    DistributedPlan,
    collect,
    replicate,
    sharded_scan,
)
from repro.errors import TypeCheckError
from repro.mpi.cluster import SimCluster
from repro.types.collections import RowVector, row_vector_type
from repro.types.tuples import TupleType

__all__ = ["BroadcastJoinPlan", "build_broadcast_join"]


@dataclass
class BroadcastJoinPlan(DistributedPlan):
    """A ready-to-run broadcast join plus its binding points."""

    def run(
        self,
        small: RowVector,
        big: RowVector,
        options: RunOptions | None = None,
    ) -> ExecutionReport:
        """Join ``small ⋈ big``; the small relation is replicated."""
        return self.execute((small, big), options)

    matches = staticmethod(DistributedPlan.result)


def build_broadcast_join(
    cluster: SimCluster,
    small_type: TupleType,
    big_type: TupleType,
    key: str = "key",
    join_type: str = "inner",
) -> BroadcastJoinPlan:
    """Assemble a broadcast join of two relations on ``key``.

    Both relations may have arbitrary fields (non-key names must be
    distinct across sides); the *small* side is the hash-build side.
    ``left_outer`` is refused: every rank probes only its shard of the big
    side, so none can tell that a replicated build row matched nowhere.
    """
    if join_type == "left_outer":
        raise TypeCheckError("a broadcast join cannot pad unmatched build rows")
    if key not in small_type or key not in big_type:
        raise TypeCheckError(
            f"both relations need the join key {key!r}; got {small_type!r} "
            f"and {big_type!r}"
        )
    clash = (set(small_type.field_names) & set(big_type.field_names)) - {key}
    if clash:
        raise TypeCheckError(
            f"non-key fields must have distinct names; both sides define "
            f"{sorted(clash)}"
        )

    slot = ParameterSlot(
        TupleType.of(small=row_vector_type(small_type), big=row_vector_type(big_type))
    )

    def build_worker(worker_slot: ParameterSlot) -> Operator:
        replicated = replicate(sharded_scan(worker_slot, "small"), key)
        big_scan = sharded_scan(worker_slot, "big")
        probe = BuildProbe(replicated, big_scan, keys=key, join_type=join_type)
        return MaterializeRowVector(probe, field="result")

    executor, flat = collect(slot, build_worker, cluster)
    root = MaterializeRowVector(flat, field="result")
    return BroadcastJoinPlan(root, slot, executor, root.output_type, cluster)
