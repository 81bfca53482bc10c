"""Figure 8: sequences of joins, naive vs. optimized (paper §5.2.1).

* **8a** — two-join cascade across cluster sizes: constant speedup for the
  optimized variant (one less relation shuffled, no intermediate
  materialization);
* **8b** — total runtime vs. the first join's output size on 8 machines:
  naive grows steeply (the growing intermediate result is materialized and
  re-shuffled), optimized grows sublinearly;
* **8c** — network-partitioning time for the same sweep: constant for the
  optimized variant (all relations pre-partitioned once), growing for the
  naive variant;
* **8d** — runtime vs. number of joins: the gap grows with N (the
  optimized plan saves N−1 materializations and N−1 shuffles).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import ResultTable, expect
from repro.core.plans.join_sequence import build_join_sequence
from repro.mpi.cluster import SimCluster
from repro.workloads.join_data import make_cascade_relations

__all__ = ["Fig8Config", "run_fig8"]


@dataclass(frozen=True)
class Fig8Config:
    """Scaled-down stand-in for the paper's 2048 M-tuple relations."""

    n_tuples: int = 1 << 16
    machines: tuple[int, ...] = (2, 4, 8)
    output_scales: tuple[int, ...] = (1, 2, 4, 8)
    join_counts: tuple[int, ...] = (2, 3, 4, 5)
    sweep_machines: int = 8
    seed: int = 2021


def _run_cascade(
    n_relations: int,
    n_tuples: int,
    machines: int,
    variant: str,
    seed: int,
    match_multiplier: int = 1,
) -> dict[str, float]:
    relations, expected = make_cascade_relations(
        n_relations, n_tuples, seed=seed, match_multiplier=match_multiplier
    )
    cluster = SimCluster(machines)
    plan = build_join_sequence(
        cluster, [r.element_type for r in relations], variant=variant
    )
    result = plan.run(relations)
    matches = plan.matches(result)
    expect("join sequence matches", len(matches), expected)
    cluster_result = result.cluster_results[0]
    return {
        "seconds": cluster_result.makespan,
        "network_seconds": cluster_result.phase_breakdown().get(
            "network_partition", 0.0
        ),
    }


def run_fig8(
    config: Fig8Config = Fig8Config(),
) -> tuple[ResultTable, ResultTable, ResultTable]:
    """Returns (8a machines sweep, 8b/8c output-size sweep, 8d join-count sweep)."""
    fig8a = ResultTable(
        title="Figure 8a: 2-join cascade vs cluster size",
        label_names=("machines",),
        metric_names=("naive_s", "optimized_s", "speedup"),
    )
    for machines in config.machines:
        naive = _run_cascade(3, config.n_tuples, machines, "naive", config.seed)
        opt = _run_cascade(3, config.n_tuples, machines, "optimized", config.seed)
        fig8a.add(
            {"machines": machines},
            {
                "naive_s": naive["seconds"],
                "optimized_s": opt["seconds"],
                "speedup": naive["seconds"] / opt["seconds"],
            },
        )

    fig8bc = ResultTable(
        title="Figure 8b/8c: 2-join cascade vs first-join output size (8 machines)",
        label_names=("output_scale",),
        metric_names=(
            "naive_s",
            "optimized_s",
            "naive_net_s",
            "optimized_net_s",
        ),
    )
    for scale in config.output_scales:
        naive = _run_cascade(
            3, config.n_tuples, config.sweep_machines, "naive", config.seed,
            match_multiplier=scale,
        )
        opt = _run_cascade(
            3, config.n_tuples, config.sweep_machines, "optimized", config.seed,
            match_multiplier=scale,
        )
        fig8bc.add(
            {"output_scale": scale},
            {
                "naive_s": naive["seconds"],
                "optimized_s": opt["seconds"],
                "naive_net_s": naive["network_seconds"],
                "optimized_net_s": opt["network_seconds"],
            },
        )

    fig8d = ResultTable(
        title="Figure 8d: cascade runtime vs number of joins (8 machines)",
        label_names=("n_joins",),
        metric_names=("naive_s", "optimized_s", "gap_s"),
    )
    for n_joins in config.join_counts:
        naive = _run_cascade(
            n_joins + 1, config.n_tuples, config.sweep_machines, "naive", config.seed
        )
        opt = _run_cascade(
            n_joins + 1, config.n_tuples, config.sweep_machines, "optimized",
            config.seed,
        )
        fig8d.add(
            {"n_joins": n_joins},
            {
                "naive_s": naive["seconds"],
                "optimized_s": opt["seconds"],
                "gap_s": naive["seconds"] - opt["seconds"],
            },
        )
    return fig8a, fig8bc, fig8d
