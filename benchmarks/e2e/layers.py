"""Per-layer measurements taken from outside the program.

Two sources only: the wall clock around calls into public functions, and
the reports the program already returns (``RunOptions(profile=True,
metrics=True)``, ``phase_breakdown()``, the serving journal and snapshot).
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

import numpy as np

from repro.analysis import verify
from repro.core.kernels import HashJoinSpec, select_join_kernel
from repro.mpi import SimCluster
from repro.relational.optimizer import lower_to_modularis
from repro.types.atoms import INT64
from repro.types.collections import RowVector
from repro.types.tuples import TupleType
from stats import median, spearman

PACKAGES = (
    "analysis", "baselines", "bench", "core", "faults", "mpi", "observability",
    "relational", "serving", "storage", "tpch", "types", "workloads",
)

#: Operator class -> group.  A class not listed is pipeline glue and lands
#: in ``filter_map``.
OPERATOR_GROUPS = {
    "scan": ("RowScan", "SharedScan", "ParameterLookup"),
    "partition": ("LocalHistogram", "MpiHistogram", "LocalPartitioning"),
    "exchange": ("MpiExchange", "MpiBroadcast"),
    "build_probe": ("BuildProbe", "MergeJoin"),
    "reduce": ("Reduce", "ReduceByKey", "NicAggregate", "LocalSort", "TopK"),
    "materialize": ("MaterializeRowVector",),
    "executor": ("MpiExecutor", "NestedMap"),
    "filter_map": (),
}
_GROUP_OF = {cls: g for g, classes in OPERATOR_GROUPS.items() for cls in classes}

PHASES = (
    "network_partition", "local_histogram", "global_histogram", "local_partition",
    "build_probe", "aggregation", "materialize", "other",
)

COUNTERS = {
    "core.scan_rows": ("scan_rows", {}),
    "core.shuffle_bytes": ("shuffle_bytes", {}),
    "core.morsels_drained": ("morsels_drained", {}),
    "core.join_build_rows": ("join_build_rows", {}),
    "core.join_dispatch_radix": ("join_dispatch", {"path": "radix"}),
}


def fold_profiles(rounds, n_ranks: int) -> dict[str, float]:
    """Fold the profiled rounds' reports into per-round layer metrics.

    Group wall time is summed over ranks (a rank thread's self time, waiting
    included); group simulated time takes, for an operator that ran on the
    ranks, its slowest rank — its contribution to the job's makespan — so
    ``core.executor_sim_ms``, the driver's wait on whole jobs, contains the
    other groups rather than adding to them.
    """
    per_round: dict[str, list[float]] = {}

    def put(key: str, value: float) -> None:
        per_round.setdefault(key, []).append(value)

    for rnd in rounds:
        wall = dict.fromkeys(OPERATOR_GROUPS, 0.0)
        sim = dict.fromkeys(OPERATOR_GROUPS, 0.0)
        phases = dict.fromkeys(PHASES, 0.0)
        counts = dict.fromkeys(COUNTERS, 0.0)
        jobs = collectives = puts = steps = 0.0
        for op in rnd.ops:
            report = op.report
            if report is None or report.profile is None:
                continue
            steps += op.steps
            for node in report.profile.nodes():
                group = _GROUP_OF.get(node.op_type, "filter_map")
                wall[group] += node.stats.wall_seconds
                sim[group] += node.stats.max_rank_sim_seconds or node.stats.sim_seconds
            for phase, seconds in report.phase_breakdown().items():
                phases[phase if phase in phases else "other"] += seconds
            snapshot = report.metrics
            for key, (name, labels) in COUNTERS.items():
                counts[key] += snapshot.total(name, **labels)
            jobs += len(report.cluster_results)
            collectives += snapshot.total("comm_collectives") / n_ranks
            puts += snapshot.total("comm_puts")
        for group in OPERATOR_GROUPS:
            put(f"core.{group}_wall_ms", wall[group] * 1e3)
            put(f"core.{group}_sim_ms", sim[group] * 1e3)
        for phase, seconds in phases.items():
            put(f"mpi.sim_phase_{phase}_ms", seconds * 1e3)
        for key, value in counts.items():
            put(key, value)
        ops = max(1, len(rnd.ops))
        put("mpi.jobs_per_query", jobs / ops)
        put("mpi.collectives_per_query", collectives / ops)
        put("mpi.puts_per_query", puts / ops)
        put("core.steps_per_query", steps / ops)
    out = {key: median(values) for key, values in per_round.items()}
    groups = list(OPERATOR_GROUPS)
    out["observability.model_fidelity_rho"] = spearman(
        [out[f"core.{g}_sim_ms"] for g in groups],
        [out[f"core.{g}_wall_ms"] for g in groups],
    )
    out["observability.dropped_spans"] = float(sum(
        op.report.profile.dropped_spans
        for rnd in rounds for op in rnd.ops
        if op.report is not None and op.report.profile is not None
    ))
    return out


def verify_probe(workload) -> float:
    """Seconds of ``verify(lowered.root)`` summed over the workload's plans
    (deploy pays this once per plan)."""
    total = 0.0
    for name, query in workload.queries.items():
        lowered = lower_to_modularis(query.plan, workload.catalog, workload.cluster)
        t0 = perf_counter()
        verify(lowered.root, name=f"bench({name})")
        total += perf_counter() - t0
    return total


def kernel_probe(workload, repeats: int = 9) -> dict[str, float]:
    """``select_join_kernel`` build + probe on one rank's share, standalone."""
    build, probe, key = workload.kernel_inputs()
    spec = HashJoinSpec(
        join_type="inner",
        output_type=TupleType.of(key=INT64, lpay=INT64, rpay=INT64),
        key=key,
        left_rest_pos=(1,),
        right_rest_pos=(1,),
        right_type=probe.element_type,
        outer_fill=0,
    )
    walls = []
    for _ in range(repeats):
        t0 = perf_counter()
        _path, built, probe_fn = select_join_kernel("auto", build, key)
        probe_fn(built, probe, spec)
        walls.append(perf_counter() - t0)
    wall = median(walls)
    return {
        "kernels.join_ms": wall * 1e3,
        "kernels.join_mrows_per_s": (len(build) + len(probe)) / wall / 1e6,
    }


_PUT_TYPE = TupleType.of(key=INT64, value=INT64)
_PUT_ROWS = 1 << 16  # 1 MiB per put
_PUTS = 8
_BARRIERS = 50


def substrate_probe(n_ranks: int, repeats: int = 15) -> dict[str, float]:
    """What one job, one collective and one put cost on the wall clock."""
    cluster = SimCluster(n_ranks)
    payload = RowVector(
        _PUT_TYPE, [np.arange(_PUT_ROWS, dtype=np.int64)] * 2
    )

    def noop(ctx):
        return None

    def barriers(ctx):
        for _ in range(_BARRIERS):
            ctx.comm.barrier()

    def window_job(n_puts: int):
        def job(ctx):
            windows = ctx.comm.win_create(_PUT_TYPE, _PUT_ROWS * _PUTS)
            target = (ctx.rank + 1) % ctx.n_ranks
            for i in range(n_puts):
                windows.put(target, i * _PUT_ROWS, payload)
            ctx.comm.fence(windows)
        return job

    def timed(fn) -> float:
        walls = []
        for _ in range(repeats):
            t0 = perf_counter()
            cluster.run(fn)
            walls.append(perf_counter() - t0)
        return median(walls)

    spawn = timed(noop)
    collective = max(0.0, timed(barriers) - spawn) / _BARRIERS
    put_seconds = timed(window_job(_PUTS)) - timed(window_job(0))
    moved = n_ranks * _PUTS * payload.size_bytes()
    return {
        "mpi.spawn_join_ms": spawn * 1e3,
        "mpi.collective_us": collective * 1e6,
        "mpi.put_mb_per_s": moved / put_seconds / 1e6 if put_seconds > 0 else 0.0,
    }


def timer_overhead_us(samples: int = 20_000) -> float:
    t0 = perf_counter()
    for _ in range(samples):
        perf_counter()
    return (perf_counter() - t0) / samples * 1e6


def sloc(root: Path) -> dict[str, float]:
    """Non-blank, non-comment lines; docstrings count as lines."""

    def count(directory: Path, recursive: bool = True) -> int:
        files = directory.rglob("*.py") if recursive else directory.glob("*.py")
        total = 0
        for path in files:
            for line in path.read_text(encoding="utf-8").splitlines():
                stripped = line.strip()
                if stripped and not stripped.startswith("#"):
                    total += 1
        return total

    src = root / "src" / "repro"
    out = {
        "sloc.src_total": float(count(src)),
        "sloc.tests_total": float(count(root / "tests")),
    }
    for package in PACKAGES:
        out[f"sloc.{package}"] = float(count(src / package))
    return out
