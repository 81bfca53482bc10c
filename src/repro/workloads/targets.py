"""The named-target catalogue: every runnable plan behind one signature.

A *target* is a name the harnesses (``repro chaos``, ``repro sanitize``,
``repro profile``, ``repro metrics``, the ``bench-smoke`` probes) can run
without knowing what is behind it.  This module is the only place that
knows each plan's input arity, how its workload is generated, and where
its result lives in the :class:`~repro.core.executor.ExecutionReport`:

* the four builtin plans — ``join``, ``groupby``, ``broadcast_join``,
  ``join_sequence`` — over the synthetic workloads of this package, sized
  by ``log2_tuples``;
* TPC-H queries ``q<N>`` over a catalog generated once per target at
  scale factor ``sf``.  A query is *lowered per run* with the run's
  options, because a fault policy's ``memory_pressure`` degrades the join
  strategy at planning time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.executor import ExecutionReport
from repro.core.options import RunOptions

__all__ = [
    "ALL_TARGETS",
    "BUILTIN_TARGETS",
    "TPCH_TARGETS",
    "QueryTarget",
    "Target",
    "resolve",
]

BUILTIN_TARGETS = ("join", "groupby", "broadcast_join", "join_sequence")
TPCH_TARGETS = ("q4", "q12", "q14", "q19")
#: What ``all`` expands to on the soak command lines.
ALL_TARGETS = BUILTIN_TARGETS + TPCH_TARGETS


Columns = tuple[list[str], list[np.ndarray]]


@dataclass
class Target:
    """A builtin plan plus its bound workload."""

    name: str
    #: Human-readable workload description (``join 2^14``, ``tpch q12 sf=0.005``).
    label: str
    #: Positional inputs of ``plan.run`` ahead of the options.
    inputs: tuple
    plan: Any

    def run(self, options: RunOptions) -> ExecutionReport:
        return self.plan.run(*self.inputs, options)

    def columns(self, report: ExecutionReport) -> Columns:
        """The result of a :meth:`run` as ``(column names, column arrays)``."""
        (row,) = report.rows
        names = list(row[0].element_type.field_names)
        return names, [np.asarray(row[0].column(name)) for name in names]

    def planner_choice(self) -> dict:
        """Verdict keys recording what the planner decided for the last run."""
        return {}


@dataclass
class QueryTarget(Target):
    """A TPC-H query, lowered afresh for every run.

    ``plan`` is the lowering of the most recent :meth:`run` (``None``
    before the first); it carries the ``strategy`` / ``degraded_from`` the
    planner settled on under that run's options.
    """

    lower: Callable[[RunOptions], Any] = field(kw_only=True)

    def run(self, options: RunOptions) -> ExecutionReport:
        self.plan = self.lower(options)
        return super().run(options)

    def columns(self, report: ExecutionReport) -> Columns:
        frame = self.plan.result_frame(report).columns
        return list(frame), [np.asarray(column) for column in frame.values()]

    def planner_choice(self) -> dict:
        choice = {"strategy": self.plan.strategy}
        if self.plan.degraded_from is not None:
            choice["degraded_from"] = self.plan.degraded_from
        return choice


def resolve(
    name: str,
    machines: int,
    log2_tuples: int = 12,
    sf: float = 0.01,
    strategy: str = "exchange",
    trace: bool = False,
) -> Target:
    """Build the target called ``name`` on a fresh ``machines``-rank cluster.

    ``log2_tuples`` sizes the builtin workloads; ``sf`` and ``strategy``
    (the join strategy handed to the planner) apply to ``q<N>`` targets.
    ``trace`` turns on the cluster's substrate trace, which is what
    surfaces fault/retry/recovery events in ``report.fault_summary()``;
    it never changes results or simulated time.
    """
    from repro.core import plans
    from repro.mpi.cluster import SimCluster
    from repro.workloads import (
        make_cascade_relations,
        make_groupby_table,
        make_join_relations,
    )

    cluster = SimCluster(machines, trace=trace)
    n_tuples = 1 << log2_tuples
    label = f"{name} 2^{log2_tuples}"
    if name in ("join", "broadcast_join"):
        workload = make_join_relations(n_tuples)
        types = (workload.left.element_type, workload.right.element_type)
        if name == "join":
            plan = plans.build_distributed_join(
                cluster, *types, key_bits=workload.key_bits
            )
        else:
            plan = plans.build_broadcast_join(cluster, *types)
        inputs = (workload.left, workload.right)
    elif name == "groupby":
        workload = make_groupby_table(n_tuples)
        plan = plans.build_distributed_groupby(
            cluster, workload.table.element_type, key_bits=workload.key_bits
        )
        inputs = (workload.table,)
    elif name == "join_sequence":
        relations, _ = make_cascade_relations(3, n_tuples)
        plan = plans.build_join_sequence(
            cluster, [r.element_type for r in relations]
        )
        inputs = (relations,)
    elif name[:1] == "q" and name[1:].isdigit():
        return _resolve_tpch(name, cluster, sf, strategy)
    else:
        raise ValueError(
            f"unknown target {name!r}; pick one of {ALL_TARGETS} or 'all'"
        )
    return Target(name, label, inputs, plan)


def _resolve_tpch(name: str, cluster, sf: float, strategy: str) -> Target:
    from repro.relational import lower_to_modularis
    from repro.tpch import ALL_QUERIES, EXTENSION_QUERIES, load_catalog

    queries = {**ALL_QUERIES, **EXTENSION_QUERIES}
    number = int(name[1:])
    if number not in queries:
        raise ValueError(
            f"unknown TPC-H query {name!r}; have "
            f"{', '.join(f'q{n}' for n in sorted(queries))}"
        )
    catalog = load_catalog(scale_factor=sf)
    logical = queries[number]().plan

    def lower(options: RunOptions):
        return lower_to_modularis(
            logical, catalog, cluster, join_strategy=strategy, options=options
        )

    return QueryTarget(name, f"tpch {name} sf={sf}", (catalog,), None, lower=lower)
