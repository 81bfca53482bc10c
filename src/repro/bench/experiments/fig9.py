"""Figure 9: TPC-H queries 4/12/14/19, Modularis vs Presto vs MemSQL.

The paper runs SF-500 on the 8-machine cluster and reports Modularis 6–9×
faster than Presto and on par with MemSQL (MemSQL 33 %/25 % faster on
Q14/Q19).  Here all three systems execute the same logical plans over the
same generated data; Modularis runs for real on the simulated cluster, the
two engine models compute real results under their calibrated cost models
(see :mod:`repro.baselines`).  Results of all three systems are checked
against the reference interpreter before any time is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.memsql_sim import MemSqlModel
from repro.baselines.presto_sim import PrestoModel
from repro.bench.harness import ResultTable
from repro.errors import ExecutionError
from repro.mpi.cluster import SimCluster
from repro.relational.interpreter import frames_match, run_logical_plan
from repro.relational.optimizer import lower_to_modularis, optimize
from repro.storage.catalog import Catalog
from repro.tpch.dbgen import load_catalog
from repro.tpch.queries import ALL_QUERIES

# ``frames_match`` is re-exported: the end-to-end benchmark imports it here.
__all__ = ["Fig9Config", "run_fig9", "frames_match"]


@dataclass(frozen=True)
class Fig9Config:
    """Scaled-down stand-in for the paper's SF-500 deployment."""

    scale_factor: float = 0.05
    machines: int = 8
    seed: int = 2021


def run_fig9(config: Fig9Config = Fig9Config(), catalog: Catalog | None = None) -> ResultTable:
    """Returns the Figure 9 table: per query, seconds for all three systems."""
    catalog = catalog or load_catalog(config.scale_factor, seed=config.seed)
    cluster = SimCluster(config.machines, seed=config.seed)
    presto, memsql = PrestoModel(), MemSqlModel()

    table = ResultTable(
        title=f"Figure 9: TPC-H runtimes at SF {config.scale_factor} (simulated seconds)",
        label_names=("query",),
        metric_names=(
            "modularis_s",
            "presto_s",
            "memsql_s",
            "presto_vs_modularis",
            "modularis_vs_memsql",
        ),
    )
    for qnum, build in ALL_QUERIES.items():
        query = build()
        reference = run_logical_plan(query.plan, catalog)
        optimized = optimize(query.plan, catalog)

        lowered = lower_to_modularis(query.plan, catalog, cluster)
        mod_result = lowered.run(catalog)
        if not frames_match(reference, lowered.result_frame(mod_result), 1e-6):
            raise ExecutionError(f"Q{qnum}: Modularis result diverges from reference")
        presto_run = presto.run_query(optimized, catalog)
        memsql_run = memsql.run_query(optimized, catalog)
        for name, run in (("Presto", presto_run), ("MemSQL", memsql_run)):
            if not frames_match(reference, run.frame, 1e-6):
                raise ExecutionError(f"Q{qnum}: {name} result diverges from reference")

        table.add(
            {"query": f"Q{qnum}"},
            {
                "modularis_s": mod_result.simulated_time,
                "presto_s": presto_run.seconds,
                "memsql_s": memsql_run.seconds,
                "presto_vs_modularis": presto_run.seconds / mod_result.simulated_time,
                "modularis_vs_memsql": mod_result.simulated_time / memsql_run.seconds,
            },
        )
    return table
