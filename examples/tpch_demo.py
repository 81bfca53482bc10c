"""TPC-H end to end: DSL → optimizer → distributed sub-operator plan (§4.4).

Generates TPC-H data, shows a query written in the dataframe DSL, the
optimized logical plan, the lowered Modularis execution on a simulated
8-machine cluster, and the Figure 9 comparison against the Presto and
MemSQL engine models — every result checked against the reference
interpreter first.

Run:  python examples/tpch_demo.py [scale_factor]
"""

from __future__ import annotations

import sys

from repro.baselines import MemSqlModel, PrestoModel
from repro.mpi import SimCluster
from repro.relational import frames_match, lower_to_modularis, run_logical_plan
from repro.relational.optimizer import optimize
from repro.tpch import ALL_QUERIES, load_catalog, q12


def lint_plans():
    """Expose the TPC-H lowerings to ``repro lint`` in both shapes the
    serving layer can deploy: sized from the catalog (no local level at
    this scale) and with a forced local partitioning level."""
    catalog = load_catalog(0.001)
    for qnum, build in ALL_QUERIES.items():
        for shape, fanout in (("sized", None), ("partitioned", 4)):
            yield f"q{qnum}-{shape}", lower_to_modularis(
                build().plan, catalog, SimCluster(4), local_fanout=fanout
            )


def main(scale_factor: float = 0.02) -> None:
    catalog = load_catalog(scale_factor)
    sizes = {t.name: len(t) for t in catalog}
    print(f"TPC-H at SF {scale_factor}: {sizes}")

    print("\n=== Q12 logical plan (after optimization) ===")
    print(optimize(q12().plan, catalog).explain())

    cluster = SimCluster(8)
    presto, memsql = PrestoModel(), MemSqlModel()
    print(f"\n{'query':>6} {'modularis_ms':>13} {'presto_ms':>10} {'memsql_ms':>10}"
          f" {'presto/mod':>11} {'mod/memsql':>11}")
    for qnum, build in ALL_QUERIES.items():
        query = build()
        reference = run_logical_plan(query.plan, catalog)
        lowered = lower_to_modularis(query.plan, catalog, cluster)
        result = lowered.run(catalog)
        assert frames_match(reference, lowered.result_frame(result), 1e-6)

        optimized = optimize(query.plan, catalog)
        presto_run = presto.run_query(optimized, catalog)
        memsql_run = memsql.run_query(optimized, catalog)
        assert frames_match(reference, presto_run.frame, 1e-6)
        assert frames_match(reference, memsql_run.frame, 1e-6)
        print(f"{'Q' + str(qnum):>6} {result.simulated_time * 1e3:>13.3f} "
              f"{presto_run.seconds * 1e3:>10.3f} {memsql_run.seconds * 1e3:>10.3f} "
              f"{presto_run.seconds / result.simulated_time:>11.2f} "
              f"{result.simulated_time / memsql_run.seconds:>11.2f}")

    print("\nAs in Figure 9: Modularis is several times faster than Presto "
          "and on par\nwith MemSQL (MemSQL's edge largest on the selective "
          "queries 14 and 19).")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.02)
