"""Plan fragments: the compositions every distributed plan is built from.

The paper's claim is that the join, the join sequence and the GROUP BY are
re-compositions of the same sub-operators; the compositions that recur
across them are written here, once, and the builders of this package and
the relational lowering call them (``docs/architecture.md`` §5 lists which
figure composes which).  This is the only module outside
:mod:`repro.core.operators` that constructs ``LocalHistogram``,
``MpiHistogram``, ``MpiExchange``, ``MpiBroadcast`` or ``LocalPartitioning``
(an ``ast`` walk in ``make lint`` enforces it), so a decision about one of
them — which function partitions a level, whether a local level is planned
at all — is made in one place.  Fragments take streams, partition
functions and plan-building callables; none takes a flag naming its caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.compression import RadixCompression
from repro.core.executor import ExecutionReport, execute
from repro.core.functions import PartitionFunction, RadixPartition, next_power_of_two
from repro.core.operator import Operator
from repro.core.operators import (
    LocalHistogram,
    LocalPartitioning,
    MaterializeRowVector,
    MpiBroadcast,
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
from repro.core.options import RunOptions
from repro.errors import TypeCheckError
from repro.mpi.cluster import SimCluster
from repro.types.collections import RowVector
from repro.types.tuples import TupleType

__all__ = [
    "DistributedPlan",
    "cache_fanout",
    "collect",
    "exchange",
    "field_scan",
    "local_level",
    "partitioned_join",
    "radix_fanout",
    "replicate",
    "sharded_scan",
    "sized_local_fanout",
]


@dataclass
class DistributedPlan:
    """A ready-to-run distributed plan plus its binding points."""

    root: Operator
    slot: ParameterSlot
    executor: MpiExecutor
    output_type: TupleType
    cluster: SimCluster

    def execute(self, inputs: tuple, options: RunOptions | None) -> ExecutionReport:
        """Run the plan with ``inputs`` bound to its parameter slot."""
        return execute(self.root, params={self.slot: inputs}, options=options)

    @staticmethod
    def result(report: ExecutionReport) -> RowVector:
        """The materialized output: the one vector of the one result row."""
        (row,) = report.rows
        return row[0]


def radix_fanout(requested: int | None, n_ranks: int) -> int:
    """The network fan-out of a radix plan: ``requested``, or one partition
    per rank rounded up to a power of two when it is ``None``."""
    n_net = next_power_of_two(n_ranks) if requested is None else requested
    if n_net < 1 or n_net & (n_net - 1):
        raise TypeCheckError(f"network fan-out must be a power of two, got {n_net}")
    return n_net


def cache_fanout(bound_bytes: int, budget: int) -> int:
    """The cache-fit rule: the smallest power of two ``f`` with
    ``bound_bytes <= f * budget`` (1: plan no local level)."""
    fanout = 1
    while bound_bytes > fanout * budget:
        fanout *= 2
    return fanout


def sized_local_fanout(
    requested: int | None, key_bits: int, n_net: int, row_type: TupleType, cluster: SimCluster
) -> int:
    """``requested``, or the cache fit of ``2**key_bits // n_net`` rows, at most 16."""
    if requested is not None:
        return requested
    bound = (1 << key_bits) // n_net * row_type.row_size_bytes()
    return min(16, cache_fanout(bound, cluster.cost_model.cache_budget_bytes))


def sharded_scan(slot: ParameterSlot, name: str) -> RowScan:
    """This rank's shard of the input relation bound to ``slot.name``."""
    return RowScan(
        Projection(ParameterLookup(slot), [name]), field=name, shard_by_rank=True
    )


def field_scan(slot: ParameterSlot, name: str) -> RowScan:
    """The rows of the nested collection ``name`` of a nested plan's input."""
    return RowScan(Projection(ParameterLookup(slot), [name]))


def exchange(
    stream: Operator,
    net_fn: PartitionFunction,
    id_field: str,
    data_field: str,
    compression: RadixCompression | None = None,
) -> MpiExchange:
    """The LocalHistogram → MpiHistogram → MpiExchange ladder over ``stream``.

    All three share ``net_fn`` and the global histogram takes its width
    from it, so the histograms describe exactly the partitions the
    exchange writes.
    """
    local_hist = LocalHistogram(stream, net_fn)
    global_hist = MpiHistogram(local_hist, net_fn.n_partitions)
    return MpiExchange(
        stream, local_hist, global_hist, net_fn,
        compression=compression, id_field=id_field, data_field=data_field,
    )


def replicate(stream: Operator, key: str) -> MpiBroadcast:
    """Every rank's ``stream`` on every rank.

    The broadcast consumes the single-bucket twin of the exchange ladder:
    how many tuples each rank contributes, and the global total.
    """
    local_count = LocalHistogram(stream, RadixPartition(key, 1))
    return MpiBroadcast(stream, local_count, MpiHistogram(local_count, 1))


def local_level(
    stream: Operator, local_fn: PartitionFunction, id_field: str, data_field: str
) -> LocalPartitioning:
    """Partition ``stream`` in memory into ⟨id_field, data_field⟩ tuples.

    The second-pass histogram feeds the in-memory scatter, so it counts
    toward the local-partitioning phase in the paper's accounting.
    """
    hist = LocalHistogram(stream, local_fn)
    hist.phase_name = "local_partition"
    return LocalPartitioning(
        stream, hist, local_fn, id_field=id_field, data_field=data_field
    )


def collect(
    slot: ParameterSlot,
    build_worker: Callable[[ParameterSlot], Operator],
    cluster: SimCluster,
) -> tuple[MpiExecutor, RowScan]:
    """The driver shell: run ``build_worker`` on every rank of ``cluster``
    and scan the ranks' ``result`` vectors as one flat stream."""
    executor = MpiExecutor(ParameterLookup(slot), build_worker, cluster)
    return executor, RowScan(executor, field="result")


def partitioned_join(
    streams: Sequence[Operator],
    suffixes: Sequence,
    exchange_of: Callable[[Operator, str, str], Operator],
    local_fn: Callable[[], PartitionFunction] | None,
    join: Callable[[list[Operator]], Operator],
    merge: Callable[[Operator], Operator],
    out_field: str,
) -> RowScan:
    """Network-partition ``streams`` and join them per partition.

    The Figure 3 pattern for any number of inputs: ``exchange_of(stream,
    id_field, data_field)`` network-partitions each stream (the caller
    picks the function, the wire format and any lint suppression — usually
    a closure over :func:`exchange`), corresponding partitions are zipped,
    and a nested plan joins each partition tuple.  ``join`` turns one scan
    per input into the joined stream, ``merge`` post-aggregates at every
    nesting boundary, and the flat ``out_field`` stream is returned.  With
    a ``local_fn`` factory each network partition is first partitioned
    again (:func:`local_level`, one fresh function per input) and joined
    per sub-partition in a second nested level; with ``None`` the partition
    already fits the cache, no local level is planned and ``join`` reads
    the exchanged data directly.  Fields are named
    ``net/data/sub/sd + suffix``.
    """
    exchanged = [
        exchange_of(stream, f"net{suffix}", f"data{suffix}")
        for stream, suffix in zip(streams, suffixes)
    ]

    def joined_from(slot: ParameterSlot, prefix: str) -> Operator:
        scans = [field_scan(slot, f"{prefix}{suffix}") for suffix in suffixes]
        return MaterializeRowVector(merge(join(scans)), field=out_field)

    def level1(slot: ParameterSlot) -> Operator:
        if local_fn is None:
            return joined_from(slot, "data")
        partitioned = [
            local_level(
                field_scan(slot, f"data{suffix}"), local_fn(),
                f"sub{suffix}", f"sd{suffix}",
            )
            for suffix in suffixes
        ]
        nested = NestedMap(Zip(partitioned), lambda s: joined_from(s, "sd"))
        flat = RowScan(nested, field=out_field)
        return MaterializeRowVector(merge(flat), field=out_field)

    return RowScan(NestedMap(Zip(exchanged), level1), field=out_field)
