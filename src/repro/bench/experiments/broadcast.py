"""Extension experiment: exchange join vs broadcast join crossover.

Not a figure from the paper — it demonstrates the paper's *thesis*: once
the sub-operators exist, an entirely different distributed join strategy
(replicate the small side with ``MpiBroadcast`` instead of repartitioning
both sides with ``MpiExchange``) is a re-composition, and an optimizer can
pick between them from statistics.

The sweep grows the build side against a fixed probe side and reports the
makespans of both strategies; the expected shape is a crossover — the
broadcast join wins while the build side is small (no shuffle of the big
side at all) and loses once replicating it costs more than repartitioning
everything once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.harness import ResultTable, expect
from repro.core.plans.broadcast_join import build_broadcast_join
from repro.core.plans.join import build_distributed_join
from repro.mpi.cluster import SimCluster
from repro.types.atoms import INT64
from repro.types.collections import RowVector
from repro.types.tuples import TupleType

__all__ = ["BroadcastConfig", "run_broadcast_crossover"]

SMALL = TupleType.of(key=INT64, lpay=INT64)
BIG = TupleType.of(key=INT64, rpay=INT64)


@dataclass(frozen=True)
class BroadcastConfig:
    big_rows: int = 1 << 18
    small_fractions: tuple[float, ...] = (0.01, 0.1, 0.5, 1.0, 2.0, 4.0)
    machines: int = 8
    seed: int = 2021


def _relations(big_rows: int, small_rows: int, seed: int):
    rng = np.random.default_rng(seed)
    small_keys = np.arange(small_rows, dtype=np.int64)
    big_keys = rng.integers(0, max(small_rows * 4, 4), size=big_rows).astype(np.int64)
    small = RowVector(SMALL, [small_keys, small_keys + 1])
    big = RowVector(BIG, [big_keys, big_keys + 1])
    return small, big


def run_broadcast_crossover(config: BroadcastConfig = BroadcastConfig()) -> ResultTable:
    """Returns per-fraction makespans for the two join strategies."""
    table = ResultTable(
        title=(
            "Extension: exchange vs broadcast join "
            f"(|R| = {config.big_rows}, {config.machines} machines)"
        ),
        label_names=("small_fraction",),
        metric_names=("exchange_s", "broadcast_s", "broadcast_speedup"),
    )
    key_bits = max(int(config.big_rows * 4).bit_length(), 8)
    for fraction in config.small_fractions:
        small_rows = max(int(config.big_rows * fraction), 4)
        small, big = _relations(config.big_rows, small_rows, config.seed)

        exchange_plan = build_distributed_join(
            SimCluster(config.machines), SMALL, BIG,
            key_bits=key_bits, compression=False, local_fanout=16,
        )
        exchange_result = exchange_plan.run(small, big)
        exchange_matches = len(exchange_plan.matches(exchange_result))

        broadcast_plan = build_broadcast_join(
            SimCluster(config.machines), SMALL, BIG
        )
        broadcast_result = broadcast_plan.run(small, big)
        broadcast_matches = len(broadcast_plan.matches(broadcast_result))
        expect("broadcast join matches", broadcast_matches, exchange_matches)

        exchange_s = exchange_result.cluster_results[0].makespan
        broadcast_s = broadcast_result.cluster_results[0].makespan
        table.add(
            {"small_fraction": fraction},
            {
                "exchange_s": exchange_s,
                "broadcast_s": broadcast_s,
                "broadcast_speedup": exchange_s / broadcast_s,
            },
        )
    return table
