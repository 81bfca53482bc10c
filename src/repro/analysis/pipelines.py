"""Pipeline/materialization lint pass (rules MOD020–MOD023).

Reports how the plan compiler will cut the DAG into pipelines (§3.4) and
where the plan wastes work: multi-consumer nodes that force a
materialization point (MOD020), structurally identical subtrees computed
twice where one ``SharedScan`` would do (MOD021), operators that are
statically dead (MOD022), and exchanges that forgo the paper's radix
compression although their wire format qualifies (MOD023).

Everything here is advisory — nothing in this pass is an error.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Reporter, Severity, unwrap
from repro.analysis.structure import ScopeInfo, plan_signature, scope_paths
from repro.core.functions import RadixPartition
from repro.core.operator import Operator
from repro.core.operators.chunk_ops import ChunkScan
from repro.core.operators.limit_op import Limit
from repro.core.operators.mpi_exchange import MpiExchange
from repro.core.operators.parameter_lookup import ParameterLookup
from repro.core.operators.projection import Projection
from repro.core.operators.row_scan import RowScan
from repro.core.plan import SharedScan, _is_base_scan_chain, walk
from repro.types.atoms import INT64

__all__ = ["run"]

#: Operators whose repetition costs (almost) nothing — re-scanning a base
#: table is how the plan compiler itself handles shared scan chains.
_CHEAP = (RowScan, ChunkScan, Projection, ParameterLookup, SharedScan)


def _has_costly_op(root: Operator) -> bool:
    return any(not isinstance(op, _CHEAP) for op in walk(root))


def _consumer_edges(scope: ScopeInfo):
    """Yield ``(consumer, unwrapped_target)`` for every edge of the scope.

    ``SharedScan`` wrappers are transparent on both sides, so the edge set
    (and hence every verdict below) is identical before and after
    ``prepare`` rewrites the plan.
    """
    for op in walk(scope.root):
        if isinstance(op, SharedScan):
            continue
        for up in op.upstreams:
            yield op, unwrap(up)


def run(scope: ScopeInfo, reporter: Reporter) -> None:
    paths = scope_paths(scope)

    # MOD020 — materialization points at multi-consumer nodes.
    consumers: dict[int, list[Operator]] = {}
    targets: dict[int, Operator] = {}
    for consumer, target in _consumer_edges(scope):
        consumers.setdefault(id(target), []).append(consumer)
        targets[id(target)] = target
    for key, fans in consumers.items():
        target = targets[key]
        if len(fans) < 2 or isinstance(target, ParameterLookup):
            continue
        if _is_base_scan_chain(target):
            how = (
                "a base-table scan chain: the plan compiler re-scans the "
                "table once per consumer instead of materializing"
            )
        else:
            how = (
                "the plan compiler cuts the DAG here and materializes the "
                "stream once behind a SharedScan"
            )
        reporter.emit(
            "MOD020", target, paths[id(target)],
            f"{type(target).__name__} feeds {len(fans)} consumers "
            f"({', '.join(sorted(type(c).__name__ for c in fans))}); {how}",
        )

    # MOD021 — duplicated cost-bearing subtrees.
    groups: dict[tuple, dict[int, Operator]] = {}
    for op in walk(scope.root):
        target = unwrap(op)
        groups.setdefault(plan_signature(target), {})[id(target)] = target
    duplicated = {
        oid
        for members in groups.values()
        if len(members) > 1
        for oid in members
    }
    for signature, members in groups.items():
        if len(members) < 2:
            continue
        ops = list(members.values())
        if not _has_costly_op(ops[0]):
            continue
        # Report only maximal duplicated subtrees: skip groups whose every
        # member is itself consumed by a duplicated operator (the inner
        # repetition is implied by the outer one).
        maximal = False
        for member in ops:
            member_consumers = consumers.get(id(member), [])
            if not member_consumers and member is unwrap(scope.root):
                maximal = True
            for consumer in member_consumers:
                if id(unwrap(consumer)) not in duplicated:
                    maximal = True
        if not maximal:
            continue
        first = ops[0]
        where = ", ".join(paths[id(m)] for m in ops[1:])
        reporter.emit(
            "MOD021", first, paths[id(first)],
            f"this {type(first).__name__} subtree is computed "
            f"{len(ops)} times (also at {where}); reuse one operator "
            "instance so the plan compiler shares it through a single "
            "materialization point",
        )

    # MOD022 / MOD023 — per-operator lints.
    for op in walk(scope.root):
        if isinstance(op, SharedScan):
            continue
        path = paths[id(op)]
        if isinstance(op, Projection):
            if op.fields == op.upstreams[0].output_type.field_names:
                reporter.emit(
                    "MOD022", op, path,
                    "identity projection: it keeps every upstream field in "
                    "order and can be removed",
                    severity=Severity.INFO,
                )
        elif isinstance(op, Limit) and op.n == 0:
            reporter.emit(
                "MOD022", op, path,
                "Limit 0 yields nothing and makes its whole upstream dead",
            )
        elif isinstance(op, MpiExchange) and op.compression is None:
            wire = op.upstreams[0].output_type
            fn = op.partition_fn
            if (
                len(wire) == 2
                and all(wire[f] == INT64 for f in wire.field_names)
                and isinstance(fn, RadixPartition)
                and fn.shift == 0
            ):
                reporter.emit(
                    "MOD023", op, path,
                    "this exchange ships ⟨key, payload⟩ INT64 tuples over a "
                    "low-bit radix partitioning but does not compress; "
                    "RadixCompression would pack each pair into one word "
                    "and halve the network volume (paper §4.1.1)",
                )

