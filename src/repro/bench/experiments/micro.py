"""§5.1.2 microbenchmark: RowScan-and-sum versus a raw loop.

The paper generates 1 billion integers and compares the time the RowScan
sub-operator needs to read and sum them (~1.0 s) against a plain C++ loop
(~0.8 s) — i.e. a ~1.25× abstraction overhead that survives fusion in long
pipelines.  The reproduction measures the same three points in *simulated*
time (where the 1.25× factor is part of the calibrated cost model and the
raw loop is the monolithic 1.0× rate) and additionally reports the
interpreted mode, quantifying what the JiT-analogue fused mode buys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.harness import ResultTable, expect
from repro.core.options import RunOptions
from repro.core.executor import execute
from repro.core.functions import field_sum
from repro.core.operators import ParameterLookup, ParameterSlot, Reduce, RowScan
from repro.core.plan import prepare, walk
from repro.mpi.costmodel import DEFAULT_COST_MODEL
from repro.types.atoms import INT64
from repro.types.collections import RowVector, row_vector_type
from repro.types.tuples import TupleType

__all__ = ["MicroConfig", "run_micro"]


@dataclass(frozen=True)
class MicroConfig:
    """Scaled-down stand-in for the paper's 1-billion-integer stream."""

    n_integers: int = 1 << 20
    seed: int = 2021


def _scan_sum_plan(n: int, seed: int):
    values = np.random.default_rng(seed).integers(0, 1 << 30, size=n, dtype=np.int64)
    element = TupleType.of(value=INT64)
    table = RowVector(element, [values])
    slot = ParameterSlot(TupleType.of(table=row_vector_type(element)))
    plan = Reduce(RowScan(ParameterLookup(slot), field="table"), field_sum("value"))
    return plan, slot, table, int(values.sum())


def run_micro(config: MicroConfig = MicroConfig()) -> ResultTable:
    """Returns simulated seconds for fused / interpreted / raw-loop sums."""
    plan, slot, table, expected = _scan_sum_plan(config.n_integers, config.seed)
    table_rows = ResultTable(
        title=f"§5.1.2 microbenchmark: sum of {config.n_integers} integers",
        label_names=("mode",),
        metric_names=("seconds", "vs_raw"),
    )

    # The paper measures RowScan as it appears inside the join's *large*
    # pipelines (where fusion cannot remove all abstractions); pin the
    # pipeline size past the full-inlining threshold to match that setting.
    prepare(plan)
    for op in walk(plan):
        op.pipeline_size = DEFAULT_COST_MODEL.small_pipeline_max_ops + 2

    results: dict[str, float] = {}
    for mode in ("fused", "interpreted"):
        result = execute(plan, params={slot: (table,)}, options=RunOptions(mode=mode))
        expect(f"{mode} row-scan sum", result.rows, [(expected,)])
        results[mode] = result.simulated_time

    # The raw loop: the same work charged at the hand-written rate, the way
    # the monolithic baseline charges it.
    cost = DEFAULT_COST_MODEL
    raw_seconds = cost.cpu_cost("scan", config.n_integers) + cost.cpu_cost(
        "reduce", config.n_integers
    )
    results["raw_loop"] = raw_seconds

    for mode in ("raw_loop", "fused", "interpreted"):
        table_rows.add(
            {"mode": mode},
            {"seconds": results[mode], "vs_raw": results[mode] / raw_seconds},
        )
    return table_rows
