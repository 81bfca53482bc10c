"""Communication-safety pass (rules MOD006, MOD010–MOD013).

Statically proves the MPI epoch discipline that the simulated RDMA
substrate otherwise enforces at runtime:

* workers only read parameter slots bound inside their ``MpiExecutor``
  scope (MOD006);
* collectives only run where a communicator exists (MOD010) and where the
  invocation count is rank-uniform (MOD011; MOD013: not in a per-tuple
  NestedMap, nor below a ``Limit``, whose ranks each stop pulling at their
  own point);
* every ``MpiExchange``/``MpiBroadcast`` derives its window layout from a
  histogram ladder computed *over the data it actually ships, with the
  partition function it actually uses* (MOD012).  When that holds, each
  ⟨source rank, partition⟩ region of the RMA window is exclusive by
  construction, the window capacity is exactly the global histogram total,
  and the one-sided writes cannot overlap — the property ``Window.write``
  can only check mid-execution against its ``epoch_puts`` record, proven
  before a single tuple flows.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Reporter, unwrap
from repro.analysis.structure import (
    ScopeInfo,
    equivalent_streams,
    same_partition_fn,
    scope_paths,
)
from repro.analysis.symbolic import compare_partition_fns
from repro.core.operator import Operator
from repro.core.operators.limit_op import Limit
from repro.core.operators.local_histogram import LocalHistogram
from repro.core.operators.mpi_broadcast import MpiBroadcast
from repro.core.operators.mpi_exchange import MpiExchange
from repro.core.operators.mpi_executor import MpiExecutor
from repro.core.operators.mpi_histogram import MpiHistogram
from repro.core.operators.parameter_lookup import ParameterLookup
from repro.core.plan import SharedScan, walk

__all__ = ["run"]


def _check_ladder(
    op: Operator, reporter: Reporter, path: str, want_buckets: int | None
) -> None:
    """MOD012: prove ``op``'s histogram ladder matches its data and fn.

    ``op`` is an MpiExchange or MpiBroadcast with upstreams
    ``(data, local_histogram, global_histogram)``.  ``want_buckets`` pins
    the expected bucket count (1 for broadcasts, the partition fanout for
    exchanges — None to take it from the exchange's partition function).
    """
    name = type(op).__name__
    data = op.upstreams[0]
    local = unwrap(op.upstreams[1])
    global_ = unwrap(op.upstreams[2])

    if not isinstance(local, LocalHistogram):
        reporter.emit(
            "MOD012", op, path,
            f"{name}'s local-histogram upstream is a "
            f"{type(local).__name__}, not a LocalHistogram; per-rank "
            "contribution counts are not statically derivable",
        )
        return
    if not isinstance(global_, MpiHistogram):
        reporter.emit(
            "MOD012", op, path,
            f"{name}'s global-histogram upstream is a "
            f"{type(global_).__name__}, not an MpiHistogram; the window "
            "capacity (global partition sizes) is not statically derivable",
        )
        return

    fanout = want_buckets
    if fanout is None:
        fanout = op.partition_fn.n_partitions
    if local.n_buckets != fanout:
        reporter.emit(
            "MOD012", op, path,
            f"{name} lays out {fanout} window regions but its local "
            f"histogram counts {local.n_buckets} buckets",
        )
    if global_.n_buckets != fanout:
        reporter.emit(
            "MOD012", op, path,
            f"{name} lays out {fanout} window regions but its global "
            f"histogram reduces {global_.n_buckets} buckets",
        )
    if isinstance(op, MpiExchange):
        # Symbolic first: a semantic proof either way beats the structural
        # comparison, which both rejects equivalent-but-different forms and
        # trusts lying subclasses (repro.analysis.symbolic).
        verdict = compare_partition_fns(local.bucket_fn, op.partition_fn)
        if verdict.distinct:
            reporter.emit(
                "MOD012", op, path,
                f"{name} routes tuples with {op.partition_fn!r} but its "
                f"local histogram counted them with {local.bucket_fn!r}; "
                f"they are semantically different ({verdict.reason}), so "
                "the pre-computed exclusive offsets do not match the actual "
                "write targets and one-sided writes may overlap",
            )
        elif verdict.unknown and not same_partition_fn(
            local.bucket_fn, op.partition_fn
        ):
            reporter.emit(
                "MOD012", op, path,
                f"{name} routes tuples with {op.partition_fn!r} but its "
                f"local histogram counted them with {local.bucket_fn!r}; "
                "the pre-computed exclusive offsets do not match the actual "
                "write targets, so one-sided writes may overlap",
            )
    if not equivalent_streams(global_.upstreams[0], op.upstreams[1]):
        reporter.emit(
            "MOD012", op, path,
            f"{name}'s global histogram does not reduce the same local "
            "histogram the exchange consumes; window capacities would "
            "disagree with actual contributions",
        )
    if not equivalent_streams(local.upstreams[0], data):
        reporter.emit(
            "MOD012", op, path,
            f"{name} ships one data stream but its histogram counted a "
            "different one; promised region sizes do not bound the actual "
            "writes",
        )


def run(scope: ScopeInfo, reporter: Reporter) -> None:
    """Check communication safety of one scope."""
    paths = scope_paths(scope)
    below_limit = {
        id(below) for limit in walk(scope.root) if isinstance(limit, Limit)
        for below in walk(limit)
    }
    for op in walk(scope.root):
        if isinstance(op, SharedScan):
            continue
        path = paths[id(op)]
        if (
            isinstance(op, ParameterLookup)
            and scope.in_cluster
            and op.slot.id not in scope.cluster_slots
        ):
            reporter.emit(
                "MOD006", op, path,
                f"ParameterLookup reads slot #{op.slot.id}, which is bound "
                "outside this MpiExecutor scope; MPI workers start from a "
                "fresh context and never see driver-side bindings",
            )
        if isinstance(op, MpiExecutor) and scope.in_cluster:
            reporter.emit(
                "MOD011", op, path,
                "MpiExecutor cannot run inside another MpiExecutor's "
                "nested plan; ranks do not launch sub-clusters",
            )
            continue
        if not op.collective:
            continue
        name = type(op).__name__
        if not scope.in_cluster:
            reporter.emit(
                "MOD010", op, path,
                f"{name} runs in a driver-side scope with no MPI "
                "communicator; wrap this part of the plan in an MpiExecutor",
            )
            continue
        if scope.in_nested_map or id(op) in below_limit:
            where = (
                "inside a per-tuple NestedMap scope" if scope.in_nested_map
                else "below a Limit"
            )
            reporter.emit(
                "MOD013", op, path,
                f"{name} sits {where}; its invocation count depends on "
                "this rank's data and may differ across ranks, deadlocking "
                "the collective",
            )
        if isinstance(op, MpiExchange):
            _check_ladder(op, reporter, path, None)
        elif isinstance(op, MpiBroadcast):
            _check_ladder(op, reporter, path, 1)
