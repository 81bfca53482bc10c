"""Extension experiments: scale-out and data-skew behaviour of the join.

Two experiments beyond the paper's own figures that probe whether the
simulated substrate behaves like the systems the paper builds on:

* **scale-out** — total join runtime as the cluster grows from 2 to 32
  machines at fixed total work (strong scaling).  The lineage papers
  (Barthels et al.) report sublinear speedup at scale: the collective
  log-factor, the fixed window-registration costs, and the jitter-driven
  stalls eat into it.  The same three mechanisms exist in the cost model,
  so the efficiency curve must bend the same way.
* **skew** — runtime as a growing fraction of the probe side collapses
  onto one hot key.  Radix partitioning sends each key's whole weight to
  one rank, so the slowest rank's share — and the makespan — grows with
  skew while the *average* work per rank barely moves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.harness import ResultTable, expect
from repro.core.plans.join import build_distributed_join
from repro.mpi.cluster import SimCluster
from repro.types.atoms import INT64
from repro.types.collections import RowVector
from repro.types.tuples import TupleType
from repro.workloads.join_data import make_join_relations

__all__ = ["ScalingConfig", "run_scaleout", "SkewConfig", "run_skew"]

L = TupleType.of(key=INT64, lpay=INT64)
R = TupleType.of(key=INT64, rpay=INT64)


@dataclass(frozen=True)
class ScalingConfig:
    n_tuples: int = 1 << 18
    machines: tuple[int, ...] = (2, 4, 8, 16, 32)
    seed: int = 2021


def run_scaleout(config: ScalingConfig = ScalingConfig()) -> ResultTable:
    """Strong scaling of the Figure 3 join; reports speedup and efficiency."""
    workload = make_join_relations(config.n_tuples, seed=config.seed)
    table = ResultTable(
        title=f"Extension: join strong scaling (2 × {config.n_tuples} tuples)",
        label_names=("machines",),
        metric_names=("seconds", "speedup", "efficiency"),
    )
    baseline = None
    base_machines = config.machines[0]
    for machines in config.machines:
        plan = build_distributed_join(
            SimCluster(machines, seed=config.seed),
            workload.left.element_type,
            workload.right.element_type,
            key_bits=workload.key_bits,
            local_fanout=16,
        )
        result = plan.run(workload.left, workload.right)
        expect("join matches", len(plan.matches(result)), workload.expected_matches)
        seconds = result.cluster_results[0].makespan
        if baseline is None:
            baseline = seconds
        speedup = baseline / seconds
        table.add(
            {"machines": machines},
            {
                "seconds": seconds,
                "speedup": speedup,
                "efficiency": speedup / (machines / base_machines),
            },
        )
    return table


@dataclass(frozen=True)
class SkewConfig:
    n_tuples: int = 1 << 17
    machines: int = 8
    #: Fraction of probe-side tuples concentrated on the hottest keys.
    head_fractions: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75)
    seed: int = 2021


def _skewed_relations(n: int, head_fraction: float, seed: int):
    """Build side: dense keys.  Probe side: ``head_fraction`` of tuples all
    carry one single hot key, the rest stay uniform.

    Radix partitioning routes every occurrence of a key to the same rank,
    so a hot *key* (unlike a hot key *range*, which radix low-bit
    partitioning spreads evenly) concentrates probe and output work on one
    rank — the classic skew failure mode of repartition joins."""
    rng = np.random.default_rng(seed)
    left_keys = rng.permutation(n).astype(np.int64)
    n_hot = int(n * head_fraction)
    hot_keys = np.zeros(n_hot, dtype=np.int64)  # every hot tuple: key 0
    cold_keys = rng.integers(0, n, size=n - n_hot)
    right_keys = np.concatenate([hot_keys, cold_keys]).astype(np.int64)
    rng.shuffle(right_keys)
    left = RowVector(L, [left_keys, left_keys + 1])
    right = RowVector(R, [right_keys, right_keys + 1])
    return left, right


def run_skew(config: SkewConfig = SkewConfig()) -> ResultTable:
    """Join runtime and rank imbalance as probe-side skew grows."""
    table = ResultTable(
        title=(
            f"Extension: join under probe-side skew "
            f"({config.n_tuples} tuples, {config.machines} machines)"
        ),
        label_names=("head_fraction",),
        metric_names=("seconds", "imbalance"),
    )
    key_bits = max(int(config.n_tuples + 1).bit_length(), 4)
    for head in config.head_fractions:
        left, right = _skewed_relations(config.n_tuples, head, config.seed)
        plan = build_distributed_join(
            SimCluster(config.machines, seed=config.seed),
            L,
            R,
            key_bits=key_bits,
            local_fanout=16,
        )
        result = plan.run(left, right)
        clocks = result.cluster_results[0].clocks
        table.add(
            {"head_fraction": head},
            {
                "seconds": max(clocks),
                "imbalance": max(clocks) / (sum(clocks) / len(clocks)),
            },
        )
    return table
