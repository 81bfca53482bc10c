"""The paper's headline use case: the distributed radix hash join (Fig. 3).

Generates the 16-byte ⟨key, payload⟩ workload, runs the Modularis
sub-operator plan and the monolithic Barthels-style baseline on the same
simulated 8-machine RDMA cluster, verifies both against each other, and
prints the per-phase breakdown the paper reports in Figure 6a.

Run:  python examples/distributed_join.py [n_tuples_log2]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.baselines import run_monolithic_join
from repro.core.plans import build_distributed_join
from repro.mpi import SimCluster
from repro.workloads import make_join_relations

PHASES = (
    "local_histogram",
    "global_histogram",
    "network_partition",
    "local_partition",
    "build_probe",
    "materialize",
)


def lint_plans():
    """Expose this example's plan to ``repro lint`` (no data, no run)."""
    from repro.types import INT64, TupleType

    yield "distributed_join", build_distributed_join(
        SimCluster(4),
        TupleType.of(key=INT64, lpay=INT64),
        TupleType.of(key=INT64, rpay=INT64),
    )


def main(log2_tuples: int = 17) -> None:
    workload = make_join_relations(1 << log2_tuples)
    print(f"relations: 2 × {len(workload.left)} tuples, dense "
          f"{workload.key_bits}-bit keys, 1-on-1 correspondence")

    cluster = SimCluster(8)
    plan = build_distributed_join(
        cluster,
        workload.left.element_type,
        workload.right.element_type,
        key_bits=workload.key_bits,
        local_fanout=16,
    )
    result = plan.run(workload.left, workload.right)
    matches = plan.matches(result)
    print(f"modularis matches: {len(matches)} (expected {workload.expected_matches})")

    mono = run_monolithic_join(
        SimCluster(8), workload.left, workload.right, key_bits=workload.key_bits
    )
    assert len(mono.matches) == len(matches)
    assert np.array_equal(
        np.sort(matches.column("key")), np.sort(mono.matches.column("key"))
    ), "modular and monolithic joins disagree"

    mod_total = result.cluster_results[0].makespan
    print(f"\n{'phase':<20}{'monolithic':>12}{'modularis':>12}   (simulated ms)")
    mono_phases = mono.phase_breakdown()
    mod_phases = result.phase_breakdown()
    for phase in PHASES:
        print(f"{phase:<20}{mono_phases.get(phase, 0) * 1e3:>12.4f}"
              f"{mod_phases.get(phase, 0) * 1e3:>12.4f}")
    print(f"{'total':<20}{mono.seconds * 1e3:>12.4f}{mod_total * 1e3:>12.4f}")
    print(f"\nmodularis / monolithic = {mod_total / mono.seconds:.2f} "
          f"(paper: 1.12–1.28 depending on machines)")

    # The modularity dividend: other join types are one parameter away.
    semi = build_distributed_join(
        SimCluster(8),
        workload.left.element_type,
        workload.right.element_type,
        key_bits=workload.key_bits,
        join_type="semi",
    )
    semi_result = semi.run(workload.left, workload.right)
    print(f"semi join (same sub-operators, one BuildProbe flag): "
          f"{len(semi.matches(semi_result))} rows")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 17)
