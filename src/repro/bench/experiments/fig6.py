"""Figure 6: the distributed join, Modularis vs. the monolithic original.

* **Fig. 6a** — per-phase breakdown (local histogram, global histogram,
  network partitioning, local partitioning, build-probe, materialization)
  for 4 and 8 machines, for three series: the monolithic implementation,
  the *model* (sub-operator microbenchmarks: the Modularis plan with
  jitter disabled, i.e. no collective stalls), and the full Modularis plan.
* **Fig. 6b** — total runtime across cluster sizes; the paper reports the
  Modularis plan 12–28 % slower than the monolithic operator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.monolithic_join import run_monolithic_join
from repro.bench.harness import ResultTable, expect
from repro.core.plans.join import build_distributed_join
from repro.mpi.cluster import SimCluster
from repro.mpi.costmodel import DEFAULT_COST_MODEL
from repro.workloads.join_data import make_join_relations

__all__ = ["Fig6Config", "run_fig6"]

PHASES = (
    "local_histogram",
    "global_histogram",
    "network_partition",
    "local_partition",
    "build_probe",
    "materialize",
)


@dataclass(frozen=True)
class Fig6Config:
    """Scaled-down stand-in for the paper's 2×2048 M-tuple workload."""

    n_tuples: int = 1 << 18
    machines: tuple[int, ...] = (2, 4, 8)
    breakdown_machines: tuple[int, ...] = (4, 8)
    seed: int = 2021


def _modularis_run(workload, n_ranks: int, jitter: bool) -> dict[str, float]:
    cost = DEFAULT_COST_MODEL if jitter else DEFAULT_COST_MODEL.with_overrides(
        jitter_fraction=0.0
    )
    cluster = SimCluster(n_ranks, cost_model=cost)
    plan = build_distributed_join(
        cluster,
        workload.left.element_type,
        workload.right.element_type,
        key_bits=workload.key_bits,
        local_fanout=16,
    )
    result = plan.run(workload.left, workload.right)
    matches = plan.matches(result)
    expect("join matches", len(matches), workload.expected_matches)
    cluster_result = result.cluster_results[0]
    breakdown = {p: cluster_result.phase_breakdown().get(p, 0.0) for p in PHASES}
    breakdown["total"] = cluster_result.makespan
    return breakdown


def _monolithic_run(workload, n_ranks: int) -> dict[str, float]:
    cluster = SimCluster(n_ranks)
    result = run_monolithic_join(
        cluster, workload.left, workload.right, key_bits=workload.key_bits
    )
    expect("monolithic matches", len(result.matches), workload.expected_matches)
    breakdown = {p: result.phase_breakdown().get(p, 0.0) for p in PHASES}
    breakdown["total"] = result.seconds
    return breakdown


def run_fig6(config: Fig6Config = Fig6Config()) -> tuple[ResultTable, ResultTable]:
    """Returns (Fig. 6a breakdown table, Fig. 6b totals table)."""
    workload = make_join_relations(config.n_tuples, seed=config.seed)

    breakdown = ResultTable(
        title="Figure 6a: join phase breakdown (simulated seconds)",
        label_names=("machines", "system"),
        metric_names=PHASES + ("total",),
    )
    for machines in config.breakdown_machines:
        breakdown.add(
            {"machines": machines, "system": "monolithic"},
            _monolithic_run(workload, machines),
        )
        breakdown.add(
            {"machines": machines, "system": "model"},
            _modularis_run(workload, machines, jitter=False),
        )
        breakdown.add(
            {"machines": machines, "system": "modularis"},
            _modularis_run(workload, machines, jitter=True),
        )

    totals = ResultTable(
        title="Figure 6b: join total runtime vs cluster size",
        label_names=("machines",),
        metric_names=("monolithic_s", "modularis_s", "slowdown"),
    )
    for machines in config.machines:
        mono = _monolithic_run(workload, machines)["total"]
        modularis = _modularis_run(workload, machines, jitter=True)["total"]
        totals.add(
            {"machines": machines},
            {
                "monolithic_s": mono,
                "modularis_s": modularis,
                "slowdown": modularis / mono,
            },
        )
    return breakdown, totals
