"""Regenerate every table and figure of the paper's evaluation section.

Runs all six experiments (Table 1, the §5.1.2 microbenchmark, Figures 6,
7, 8, and 9) at laptop scale and writes the measured rows to
``EXPERIMENTS.md`` next to the paper's reported numbers.

Run:  python examples/reproduce_paper.py [output.md]
(Default output: EXPERIMENTS.md in the repository root.)
"""

from __future__ import annotations

import pathlib
import sys
import time

from repro.bench.charts import series_chart
from repro.bench.experiments import (
    BroadcastConfig,
    ScalingConfig,
    SkewConfig,
    Fig6Config,
    Fig7Config,
    Fig8Config,
    Fig9Config,
    MicroConfig,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_broadcast_crossover,
    run_micro,
    run_scaleout,
    run_skew,
    run_table1,
)

HEADER = """# EXPERIMENTS — paper vs. measured

Generated by ``python examples/reproduce_paper.py``.  All times are
*simulated seconds* from the calibrated cost model (DESIGN.md §2); the
workloads are laptop-scale stand-ins for the paper's 8-machine RDMA
cluster runs, so absolute numbers are not comparable — the **shape** of
each result (who wins, by what factor, where crossovers fall) is the
reproduction target.  Shapes were additionally spot-checked at 4× the
default workload sizes (e.g. Fig. 6b's slowdown stays at 1.29–1.31 with
2^20-tuple relations); sizes are parameters of every experiment config.
"""


def main(output: str = "EXPERIMENTS.md") -> None:
    sections: list[str] = [HEADER]
    t0 = time.time()

    per_op, summary = run_table1()
    sections.append(
        "## Table 1 — SLOC per sub-operator\n\n"
        "Paper: 15 sub-operators, 1152 SLOC total for the join plan vs. 1754\n"
        "for the monolithic operator (35 % less); platform-specific operators\n"
        "ME+EX+MH total 461 SLOC (3.8× less to port).  Measured (Python+numpy,\n"
        "where the substrate absorbs the C++ boilerplate, so absolute ratios\n"
        "invert while the ordering and the platform-specific-fraction claims\n"
        "hold):\n\n"
        "```\n" + per_op.render("{:.0f}") + "\n\n" + summary.render("{:.0f}") + "\n```\n"
    )

    micro = run_micro(MicroConfig())
    sections.append(
        "## §5.1.2 microbenchmark — RowScan-and-sum vs. raw loop\n\n"
        "Paper: RowScan needs ~1.0 s where a raw C++ loop needs ~0.8 s\n"
        "(1.25×).  Measured:\n\n"
        "```\n" + micro.render("{:.5g}") + "\n```\n"
    )

    breakdown, totals = run_fig6(Fig6Config())
    sections.append(
        "## Figure 6 — distributed join vs. the monolithic operator\n\n"
        "Paper: Modularis 12–28 % slower depending on machines; local\n"
        "histogram slightly faster, network/local partitioning and\n"
        "build-probe slower, extra materializations.  Measured:\n\n"
        "```\n" + breakdown.render("{:.5f}") + "\n\n" + totals.render("{:.4f}")
        + "\n\n" + series_chart(totals, ("monolithic_s", "modularis_s"))
        + "\n```\n"
    )

    left, right = run_fig7(Fig7Config())
    sections.append(
        "## Figure 7 — distributed GROUP BY\n\n"
        "Paper: runtime decreases with cluster size; nearly flat in key\n"
        "cardinality with a slight decrease at higher cardinality.  Measured:\n\n"
        "```\n" + left.render("{:.5f}") + "\n\n" + right.render("{:.5f}") + "\n```\n"
    )

    fig8a, fig8bc, fig8d = run_fig8(Fig8Config())
    sections.append(
        "## Figure 8 — sequences of joins, naive vs. optimized\n\n"
        "Paper: constant speedup across machines (8a); naive grows steeply\n"
        "with the first join's output while optimized grows sublinearly (8b);\n"
        "optimized network time constant, naive growing (8c); gap\n"
        "proportional to the number of joins (8d).  Measured:\n\n"
        "```\n" + fig8a.render("{:.5f}") + "\n\n" + fig8bc.render("{:.5f}")
        + "\n\n" + fig8d.render("{:.5f}") + "\n\n"
        + series_chart(fig8bc, ("naive_net_s", "optimized_net_s"))
        + "\n```\n"
    )

    fig9 = run_fig9(Fig9Config())
    sections.append(
        "## Figure 9 — TPC-H Q4/Q12/Q14/Q19 vs. Presto and MemSQL\n\n"
        "Paper: Modularis 6–9× faster than Presto; on par with MemSQL on Q4\n"
        "and Q12, MemSQL 33 %/25 % faster on Q14/Q19.  The lowering sizes the\n"
        "local partitioning fan-out from catalog statistics; at this scale\n"
        "every build side fits the cache budget, so the Modularis plans have\n"
        "no local-partition phase.  Measured (results of all three systems\n"
        "verified against the reference interpreter):\n\n"
        "```\n" + fig9.render("{:.5g}") + "\n\n"
        + series_chart(fig9, ("modularis_s", "presto_s", "memsql_s"))
        + "\n```\n"
    )

    crossover = run_broadcast_crossover(BroadcastConfig(big_rows=1 << 17))
    sections.append(
        "## Extension — exchange vs broadcast join crossover\n\n"
        "Not a paper figure: the broadcast join is a re-composition of\n"
        "MpiBroadcast + BuildProbe, and the optimizer's stats rule picks\n"
        "between the two strategies.  Expected shape: broadcast wins while\n"
        "the build side is small and loses once it outgrows the probe side.\n"
        "Measured:\n\n"
        "```\n" + crossover.render("{:.5g}") + "\n\n"
        + series_chart(crossover, ("exchange_s", "broadcast_s"))
        + "\n```\n"
    )

    scaleout = run_scaleout(ScalingConfig())
    skew = run_skew(SkewConfig())
    sections.append(
        "## Extension — strong scaling and skew sensitivity\n\n"
        "Substrate sanity checks against the paper's lineage: sublinear\n"
        "strong scaling (collective log-factor, fixed window registration,\n"
        "jitter stalls) and the classic hot-key skew failure mode of\n"
        "repartition joins.  Measured:\n\n"
        "```\n" + scaleout.render("{:.4g}") + "\n\n" + skew.render("{:.4g}")
        + "\n```\n"
    )

    # The wall-clock time goes to the terminal, not into the file, so that
    # regenerating on an unchanged tree reproduces EXPERIMENTS.md byte for byte.
    text = "\n".join(sections)
    pathlib.Path(output).write_text(text)
    print(text)
    print(f"\nwritten to {output} in {time.time() - t0:.1f} s wall clock")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md")
