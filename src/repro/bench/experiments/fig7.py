"""Figure 7: distributed GROUP BY runtime.

* **left** — fixed workload (every key occurs once), cluster size swept:
  runtime decreases with more machines;
* **right** — fixed total tuple count, duplicates-per-key swept for three
  cluster sizes: runtime stays almost flat (network and materialization
  dominate), with a slight decrease at higher cardinality because the
  aggregation hash map reallocates less.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import ResultTable, expect
from repro.core.plans.groupby import build_distributed_groupby
from repro.mpi.cluster import SimCluster
from repro.workloads.groupby_data import make_groupby_table

__all__ = ["Fig7Config", "run_fig7"]


@dataclass(frozen=True)
class Fig7Config:
    """Scaled-down stand-in for the paper's 2048 M-key workload."""

    n_tuples: int = 1 << 18
    machines: tuple[int, ...] = (2, 4, 8)
    cardinalities: tuple[int, ...] = (1, 2, 4, 8, 16)
    seed: int = 2021


def _run_once(n_tuples: int, duplicates: int, machines: int, seed: int) -> float:
    workload = make_groupby_table(n_tuples, duplicates_per_key=duplicates, seed=seed)
    cluster = SimCluster(machines)
    plan = build_distributed_groupby(
        cluster, workload.table.element_type, key_bits=workload.key_bits,
        local_fanout=16,
    )
    result = plan.run(workload.table)
    groups = plan.groups(result)
    expect("Figure 7 groups", len(groups), workload.n_groups)
    return result.cluster_results[0].makespan


def run_fig7(config: Fig7Config = Fig7Config()) -> tuple[ResultTable, ResultTable]:
    """Returns (left: machines sweep, right: cardinality sweep) tables."""
    left = ResultTable(
        title="Figure 7 left: GROUP BY runtime vs cluster size (1 tuple/key)",
        label_names=("machines",),
        metric_names=("seconds",),
    )
    for machines in config.machines:
        left.add(
            {"machines": machines},
            {"seconds": _run_once(config.n_tuples, 1, machines, config.seed)},
        )

    right = ResultTable(
        title="Figure 7 right: GROUP BY runtime vs key cardinality",
        label_names=("machines", "duplicates_per_key"),
        metric_names=("seconds",),
    )
    for machines in config.machines:
        for duplicates in config.cardinalities:
            right.add(
                {"machines": machines, "duplicates_per_key": duplicates},
                {
                    "seconds": _run_once(
                        config.n_tuples, duplicates, machines, config.seed
                    )
                },
            )
    return left, right
