"""Command-line interface: run experiments and queries from a shell.

Usage (also available as ``python -m repro``)::

    python -m repro bench fig6 --n-tuples 131072
    python -m repro bench all
    python -m repro tpch --query 12 --sf 0.02 --machines 8
    python -m repro tpch --query 14 --strategy broadcast
    python -m repro join --log2-tuples 16 --machines 4
    python -m repro explain --query 4
    python -m repro explain --query 12 --analyze
    python -m repro profile tpch --query 12 --chrome-out trace.json
    python -m repro metrics tpch --query 12 --format json
    python -m repro lint all examples/ --format json
    python -m repro serve --queries 16 --chaos

Every subcommand accepts ``--format {text,json}``: text output mirrors the
tables the benchmark suite asserts on; JSON carries the same data for
scripting.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from typing import Sequence

from repro.faults.policy import CHAOS_PROFILES

__all__ = ["main", "build_parser"]

_QUERIES = (1, 3, 4, 6, 12, 14, 19)
_EXPERIMENTS = (
    "table1", "micro", "fig6", "fig7", "fig8", "fig9", "broadcast",
    "scaleout", "skew",
)


def _checked(kind, holds, what: str):
    """An argparse type: ``kind`` of the argument, refused unless ``holds``."""

    def parse(text: str):
        value = kind(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"{text} must be {what}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its errors
    return parse


_POSITIVE_INT = _checked(int, lambda value: value > 0, "positive")
_POSITIVE_FLOAT = _checked(float, lambda value: value > 0, "positive")
_SEED = _checked(int, lambda value: value >= 0, "non-negative")


def _format_parent() -> argparse.ArgumentParser:
    """The ``--format`` option every subcommand shares (argparse parent)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    return parent


def _mode_parent() -> argparse.ArgumentParser:
    """The ``--mode`` option of every subcommand that runs plans."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--mode", choices=("fused", "interpreted"), default="fused",
        help="execution mode (default: fused); both modes run the same "
        "kernels, interpreted charges them at the cost model's "
        "interpreted_overhead rate",
    )
    return parent


def _workload_parent() -> argparse.ArgumentParser:
    """The workload selection ``profile`` and ``metrics`` share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("workload", choices=("tpch", "join", "groupby"))
    parent.add_argument("--query", type=int, default=12, choices=_QUERIES,
                        help="TPC-H query (tpch workload only)")
    parent.add_argument("--sf", type=_POSITIVE_FLOAT, default=0.005)
    parent.add_argument("--machines", type=_POSITIVE_INT, default=4)
    parent.add_argument("--log2-tuples", type=int, default=14,
                        help="input size for join/groupby workloads")
    parent.add_argument(
        "--strategy", choices=("exchange", "broadcast", "auto"),
        default="exchange",
    )
    return parent


def _serving_parent() -> argparse.ArgumentParser:
    """The soak population ``serve`` and ``slo`` share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--queries", type=_POSITIVE_INT, default=16,
                        help="concurrent submissions (default: 16)")
    parent.add_argument("--workers", type=_POSITIVE_INT, default=4,
                        help="scheduler worker threads (default: 4)")
    parent.add_argument("--sf", type=_POSITIVE_FLOAT, default=0.01,
                        help="TPC-H scale factor (default: 0.01)")
    parent.add_argument("--machines", type=_POSITIVE_INT, default=2)
    parent.add_argument("--seed", type=_SEED, default=2021)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Modularis reproduction: experiments, TPC-H, and joins.",
    )
    fmt = _format_parent()
    mode = _mode_parent()
    workload = _workload_parent()
    serving = _serving_parent()
    commands = parser.add_subparsers(dest="command", required=True)

    bench = commands.add_parser(
        "bench",
        parents=[fmt],
        help="regenerate one (or all) of the paper's tables/figures",
    )
    bench.add_argument("experiment", choices=(*_EXPERIMENTS, "all"))
    bench.add_argument("--n-tuples", type=int, default=None,
                       help="workload tuples for fig6/fig7/fig8/broadcast")
    bench.add_argument("--sf", type=_POSITIVE_FLOAT, default=0.05,
                       help="TPC-H scale factor")

    tpch = commands.add_parser(
        "tpch", parents=[fmt, mode], help="run one TPC-H query distributed"
    )
    tpch.add_argument("--query", type=int, required=True, choices=_QUERIES)
    tpch.add_argument("--sf", type=_POSITIVE_FLOAT, default=0.02)
    tpch.add_argument("--machines", type=_POSITIVE_INT, default=8)
    tpch.add_argument(
        "--strategy", choices=("exchange", "broadcast", "auto"), default="exchange"
    )

    join = commands.add_parser(
        "join", parents=[fmt],
        help="run the Fig. 3 join vs the monolithic baseline",
    )
    join.add_argument("--log2-tuples", type=int, default=16)
    join.add_argument("--machines", type=_POSITIVE_INT, default=8)
    join.add_argument("--no-compression", action="store_true")
    join.add_argument("--algorithm", choices=("hash", "sortmerge"), default="hash")

    explain = commands.add_parser(
        "explain", parents=[fmt, mode], help="show a query's plans"
    )
    explain.add_argument("--query", type=int, required=True, choices=_QUERIES)
    explain.add_argument("--sf", type=_POSITIVE_FLOAT, default=0.005)
    explain.add_argument(
        "--analyze", action="store_true",
        help="execute the query with the profiler on and append the "
        "EXPLAIN ANALYZE tree (measured rows/time per sub-operator)",
    )
    explain.add_argument("--machines", type=_POSITIVE_INT, default=2)
    explain.add_argument(
        "--strategy", choices=("exchange", "broadcast", "auto"), default="exchange"
    )

    profile = commands.add_parser(
        "profile", parents=[fmt, mode, workload],
        help="run a workload with the per-operator profiler and report spans",
    )
    profile.add_argument(
        "--chrome-out", metavar="PATH", default=None,
        help="write a chrome://tracing JSON merging operator spans with "
        "the substrate's collective/put events",
    )

    metrics = commands.add_parser(
        "metrics", parents=[fmt, mode, workload],
        help="run a workload with the metrics registry on and print the "
        "Prometheus-style exposition (plus runtime advisories)",
    )
    metrics.add_argument(
        "--shuffle-amplification-factor", type=float, default=None,
        metavar="X",
        help="MOD040 fires when shuffle bytes exceed X times the plan "
        "input bytes (default: 2.0)",
    )

    lint = commands.add_parser(
        "lint", parents=[fmt],
        help="statically analyze plans without executing them",
    )
    lint.add_argument(
        "targets",
        nargs="+",
        help="builtin plan names (join, groupby, broadcast_join, "
        "join_sequence, all), Python files exposing lint_plans(), or "
        "directories of such files",
    )
    lint.add_argument(
        "--machines", type=_POSITIVE_INT, default=2,
        help="cluster size used to build the builtin plans",
    )
    lint.add_argument(
        "--suppress", action="append", default=[], metavar="RULE",
        help="silence a rule id (e.g. MOD023); may be repeated",
    )

    chaos = commands.add_parser(
        "chaos", parents=[fmt, mode],
        help="run seeded fault-injection soaks and verify bit-identical "
        "results against fault-free runs",
    )
    chaos.add_argument(
        "targets", nargs="+",
        help="builtin plans (join, groupby, broadcast_join, join_sequence), "
        "TPC-H queries (q4, q12, q14, q19), or 'all'",
    )
    chaos.add_argument("--seed", type=_SEED, default=2021,
                       help="first fault-policy seed (default: 2021)")
    chaos.add_argument("--seeds", type=_POSITIVE_INT, default=3,
                       help="number of consecutive seeds to soak (default: 3)")
    chaos.add_argument("--machines", type=_POSITIVE_INT, default=4)
    chaos.add_argument("--sf", type=_POSITIVE_FLOAT, default=0.01,
                       help="TPC-H scale factor for q* targets")
    chaos.add_argument("--log2-tuples", type=int, default=12,
                       help="input size for builtin plan targets")
    chaos.add_argument(
        "--strategy", choices=("exchange", "broadcast", "auto"),
        default="exchange", help="join strategy for q* targets",
    )
    chaos.add_argument("--drop-rate", type=float, default=0.1,
                       help="transient put failure probability (default: 0.1)")
    chaos.add_argument("--collective-drop-rate", type=float, default=0.05,
                       help="transient collective failure probability")
    chaos.add_argument("--crash-rank", type=int, default=None,
                       help="inject a rank crash on this rank")
    chaos.add_argument("--crash-after", type=int, default=8,
                       help="crash after this many comm ops (default: 8)")
    chaos.add_argument(
        "--permanent", action="store_true",
        help="make the crash permanent: recovery degrades to n-1 ranks",
    )
    chaos.add_argument(
        "--straggler", action="append", default=[], metavar="RANK:FACTOR",
        help="slow one rank down by FACTOR (may be repeated)",
    )
    chaos.add_argument(
        "--memory-pressure", action="store_true",
        help="plan under injected memory pressure (broadcast joins fall "
        "back to exchange joins)",
    )

    sanitize = commands.add_parser(
        "sanitize", parents=[fmt, mode],
        help="soak plans with the MOD05x runtime sanitizer armed and verify "
        "clean reports plus bit-identical results",
    )
    sanitize.add_argument(
        "targets", nargs="+",
        help="builtin plans (join, groupby, broadcast_join, join_sequence), "
        "TPC-H queries (q4, q12, q14, q19), or 'all'",
    )
    sanitize.add_argument(
        "--policies", nargs="+", choices=CHAOS_PROFILES,
        default=("none", "transient", "degrade", "pressure"),
        help="chaos profiles to soak under (default: none transient "
        "degrade pressure)",
    )
    sanitize.add_argument("--seed", type=_SEED, default=2021,
                          help="fault-policy seed (default: 2021)")
    sanitize.add_argument("--machines", type=_POSITIVE_INT, default=4)
    sanitize.add_argument("--sf", type=_POSITIVE_FLOAT, default=0.005,
                          help="TPC-H scale factor for q* targets")
    sanitize.add_argument("--log2-tuples", type=int, default=10,
                          help="input size for builtin plan targets")
    sanitize.add_argument(
        "--strategy", choices=("exchange", "broadcast", "auto"),
        default="exchange", help="join strategy for q* targets",
    )

    serve = commands.add_parser(
        "serve", parents=[fmt, serving],
        help="soak the concurrent serving layer: N interleaved TPC-H "
        "queries on one shared cluster, checked bit-identical to serial",
    )
    serve.add_argument(
        "--chaos", nargs="?", const="transient", default="none",
        choices=CHAOS_PROFILES,
        help="arm a chaos profile during the soak (bare --chaos means "
        "'transient'; surviving results must stay bit-identical)",
    )
    serve.add_argument(
        "--matrix", action="store_true",
        help="run the full robustness gauntlet instead of one soak: every "
        "chaos profile plus the poison-plan circuit-breaker scenario",
    )
    serve.add_argument("--deadline", type=float, default=None,
                       help="simulated-seconds deadline per query")
    serve.add_argument("--retries", type=int, default=0,
                       help="server-level retry attempts beyond the first "
                       "(the flaky profile needs >= 1)")
    serve.add_argument("--cancel-every", type=int, default=0,
                       help="cancel every k-th submission (0 = never)")
    serve.add_argument("--shed-threshold", type=float, default=1.0,
                       help="load-shedding floor as a fraction of the "
                       "admission cap (1.0 disables shedding)")
    serve.add_argument(
        "--trace", action="store_true",
        help="arm full query tracing (operator profiles + substrate "
        "events, causally linked per query) and print the scheduler "
        "trace after the summary",
    )
    serve.add_argument(
        "--slo-target", type=float, default=None, metavar="SECONDS",
        help="arm SLO accounting with this per-query simulated-seconds "
        "latency target and report burn rates after the soak",
    )
    serve.add_argument(
        "--chrome-out", metavar="PATH", default=None,
        help="write the soak's merged chrome://tracing JSON (per-tenant "
        "and per-worker lanes plus one process per query; implies "
        "--trace; in --matrix mode all profiles merge into one file)",
    )
    serve.add_argument(
        "--journal-out", metavar="PATH", default=None,
        help="write every query journal as JSON (implies --trace; keyed "
        "by profile in --matrix mode)",
    )

    slo = commands.add_parser(
        "slo", parents=[fmt, serving],
        help="run a serving soak with latency SLO accounting armed and "
        "report per-tenant/per-handle quantiles and burn rates",
    )
    slo.add_argument(
        "--target", type=float, default=0.01, metavar="SECONDS",
        help="per-query simulated-seconds latency target (default: 0.01)",
    )
    slo.add_argument(
        "--objective", type=float, default=0.99,
        help="fraction of queries that must meet the target (default: 0.99)",
    )
    slo.add_argument(
        "--chaos", nargs="?", const="transient", default="none",
        choices=CHAOS_PROFILES,
        help="arm a chaos profile during the SLO soak",
    )
    slo.add_argument("--retries", type=int, default=0,
                     help="server-level retry attempts beyond the first")

    return parser


def _all_queries():
    from repro.tpch import ALL_QUERIES, EXTENSION_QUERIES

    return {**ALL_QUERIES, **EXTENSION_QUERIES}


def _print_json(payload: object) -> None:
    print(json.dumps(payload, indent=2, ensure_ascii=False))


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import experiments as exp

    sized = {"n_tuples": args.n_tuples} if args.n_tuples else {}
    big = {"big_rows": args.n_tuples} if args.n_tuples else {}
    runs = {
        "table1": exp.run_table1,
        "micro": exp.run_micro,
        "fig6": lambda: exp.run_fig6(exp.Fig6Config(**sized)),
        "fig7": lambda: exp.run_fig7(exp.Fig7Config(**sized)),
        "fig8": lambda: exp.run_fig8(exp.Fig8Config(**sized)),
        "fig9": lambda: exp.run_fig9(exp.Fig9Config(scale_factor=args.sf)),
        "broadcast": lambda: exp.run_broadcast_crossover(
            exp.BroadcastConfig(**big)
        ),
        "scaleout": lambda: exp.run_scaleout(exp.ScalingConfig(**sized)),
        "skew": lambda: exp.run_skew(exp.SkewConfig(**sized)),
    }
    tables = []
    for name in _EXPERIMENTS if args.experiment == "all" else (args.experiment,):
        result = runs[name]()
        tables.extend(result if isinstance(result, tuple) else (result,))

    if args.format == "json":
        _print_json([table.to_dict() for table in tables])
    else:
        for table in tables:
            print(table.render("{:.5g}"))
            print()
    return 0


def _cmd_tpch(args: argparse.Namespace) -> int:
    from repro.core.options import RunOptions
    from repro.mpi.cluster import SimCluster
    from repro.relational import frames_match, lower_to_modularis, run_logical_plan
    from repro.tpch import load_catalog

    catalog = load_catalog(scale_factor=args.sf)
    query = _all_queries()[args.query]()
    reference = run_logical_plan(query.plan, catalog)
    lowered = lower_to_modularis(
        query.plan, catalog, SimCluster(args.machines), join_strategy=args.strategy
    )
    result = lowered.run(catalog, RunOptions(mode=args.mode))
    frame = lowered.result_frame(result)
    if not frames_match(reference, frame, tolerance=1e-6):
        print("ERROR: distributed result diverges from the reference", file=sys.stderr)
        return 1

    names = list(frame.columns)
    if args.format == "json":
        _print_json(
            {
                "query": args.query,
                "strategy": lowered.strategy,
                "machines": args.machines,
                "mode": args.mode,
                "simulated_time": result.simulated_time,
                "columns": names,
                "rows": [
                    [_json_scalar(frame.columns[n][i]) for n in names]
                    for i in range(frame.n_rows)
                ],
                "phases": dict(sorted(result.phase_breakdown().items())),
            }
        )
        return 0
    print("  ".join(names))
    for i in range(frame.n_rows):
        print("  ".join(str(frame.columns[n][i]) for n in names))
    print(
        f"\nstrategy={lowered.strategy} machines={args.machines} "
        f"simulated={result.simulated_time * 1e3:.3f} ms"
    )
    for phase, seconds in sorted(result.phase_breakdown().items()):
        print(f"  {phase:<20}{seconds * 1e6:>12.1f} µs")
    return 0


def _json_scalar(value):
    item = getattr(value, "item", None)
    return item() if callable(item) else value


def _cmd_join(args: argparse.Namespace) -> int:
    from repro.baselines import run_monolithic_join
    from repro.core.plans import build_distributed_join
    from repro.mpi.cluster import SimCluster
    from repro.workloads import make_join_relations

    workload = make_join_relations(1 << args.log2_tuples)
    plan = build_distributed_join(
        SimCluster(args.machines),
        workload.left.element_type,
        workload.right.element_type,
        key_bits=workload.key_bits,
        compression=not args.no_compression,
        algorithm=args.algorithm,
        local_fanout=16,
    )
    result = plan.run(workload.left, workload.right)
    matches = plan.matches(result)
    mono = run_monolithic_join(
        SimCluster(args.machines),
        workload.left,
        workload.right,
        key_bits=workload.key_bits,
        compression=not args.no_compression,
    )
    if not (len(matches) == len(mono.matches) == workload.expected_matches):
        print(
            f"ERROR: join produced {len(matches)} matches, the monolithic "
            f"baseline {len(mono.matches)}, the workload expects "
            f"{workload.expected_matches}",
            file=sys.stderr,
        )
        return 1
    modularis_seconds = result.cluster_results[0].makespan
    if args.format == "json":
        _print_json(
            {
                "tuples_per_relation": len(workload.left),
                "matches": len(matches),
                "machines": args.machines,
                "algorithm": args.algorithm,
                "modularis_seconds": modularis_seconds,
                "monolithic_seconds": mono.seconds,
                "slowdown": modularis_seconds / mono.seconds,
            }
        )
        return 0
    print(f"tuples per relation : {len(workload.left)}")
    print(f"matches             : {len(matches)}")
    print(f"modularis           : {modularis_seconds * 1e3:.4f} ms")
    print(f"monolithic          : {mono.seconds * 1e3:.4f} ms")
    print(f"slowdown            : {modularis_seconds / mono.seconds:.2f}x")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.core.options import RunOptions
    from repro.core.plan import explain as explain_physical
    from repro.core.plan import prepare
    from repro.mpi.cluster import SimCluster
    from repro.relational.optimizer import lower_to_modularis, optimize
    from repro.tpch import load_catalog

    catalog = load_catalog(scale_factor=args.sf)
    query = _all_queries()[args.query]()
    lowered = lower_to_modularis(
        query.plan, catalog, SimCluster(args.machines),
        join_strategy=args.strategy,
    )
    prepare(lowered.root)
    logical = query.plan.explain()
    optimized = optimize(query.plan, catalog).explain()
    physical = explain_physical(lowered.root)
    analyzed = None
    if args.analyze:
        # Metrics ride along so the ANALYZE tree ends with the work
        # accounting (rows per operator, shuffle volume, memory peaks).
        report = lowered.run(
            catalog, RunOptions(mode=args.mode, profile=True, metrics=True)
        )
        analyzed = report.profile

    if args.format == "json":
        payload = {
            "query": args.query,
            "strategy": lowered.strategy,
            "local_fanout": lowered.local_fanout,
            "logical": logical,
            "optimized": optimized,
            "physical": physical,
        }
        if analyzed is not None:
            payload["analyze"] = analyzed.to_dict()
        _print_json(payload)
        return 0
    print("=== logical plan ===")
    print(logical)
    print("\n=== optimized logical plan ===")
    print(optimized)
    print(
        f"\n=== physical driver plan (strategy={lowered.strategy}, "
        f"local_fanout={lowered.local_fanout}) ==="
    )
    print(physical)
    if analyzed is not None:
        print("\n=== EXPLAIN ANALYZE ===")
        print(analyzed.render())
    return 0


def _run_workload(args: argparse.Namespace, options, trace: bool = False):
    """Run the ``profile``/``metrics`` workload.

    Returns the report and the JSON header both commands lead with.
    """
    from repro.workloads.targets import resolve

    target = resolve(
        f"q{args.query}" if args.workload == "tpch" else args.workload,
        args.machines,
        log2_tuples=args.log2_tuples,
        sf=args.sf,
        strategy=args.strategy,
        trace=trace,
    )
    report = target.run(options)
    return report, {
        "workload": target.label,
        "machines": args.machines,
        "mode": args.mode,
        "simulated_time": report.simulated_time,
        "output_rows": len(report.rows),
    }


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.core.options import RunOptions
    from repro.observability import write_chrome_trace

    report, header = _run_workload(
        args, RunOptions(mode=args.mode, profile=True), trace=True
    )

    chrome_events = None
    if args.chrome_out:
        chrome_events = write_chrome_trace(
            args.chrome_out, profile=report.profile, traces=report.traces,
            extra_events=report.recovery_events,
        )

    if args.format == "json":
        payload = {**header, "profile": report.profile.to_dict()}
        if args.chrome_out:
            payload["chrome_trace"] = {
                "path": args.chrome_out,
                "events": chrome_events,
            }
        _print_json(payload)
        return 0
    print(
        f"profile: {header['workload']} "
        f"(machines={args.machines}, mode={args.mode})"
    )
    print()
    print(report.profile.render())
    for trace in report.traces:
        print()
        print(trace.summary())
    print(f"\nsimulated total: {report.simulated_time * 1e3:.3f} ms")
    if args.chrome_out:
        print(f"chrome trace: {args.chrome_out} ({chrome_events} events)")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.analysis.runtime import (
        SHUFFLE_AMPLIFICATION_FACTOR,
        analyze_runtime,
    )
    from repro.core.options import RunOptions

    report, header = _run_workload(
        args, RunOptions(mode=args.mode, metrics=True)
    )

    factor = args.shuffle_amplification_factor
    advisories = analyze_runtime(
        report.metrics,
        shuffle_amplification_factor=(
            factor if factor is not None else SHUFFLE_AMPLIFICATION_FACTOR
        ),
    )
    if args.format == "json":
        _print_json({
            **header,
            "metrics": report.metrics.as_dict(),
            "advisories": [d.to_dict() for d in advisories],
        })
        return 0
    print(
        f"metrics: {header['workload']} "
        f"(machines={args.machines}, mode={args.mode})"
    )
    print()
    print(report.metrics.render_prometheus())
    if advisories:
        print()
        for diagnostic in advisories:
            print(diagnostic.format())
    print(f"\nsimulated total: {report.simulated_time * 1e3:.3f} ms")
    return 0


def _run_cli_of(module: str):
    """A handler delegating to ``module.run_cli`` (imported on use)."""

    def handler(args: argparse.Namespace) -> int:
        return importlib.import_module(module).run_cli(args)

    return handler


def _soak_passed(report) -> bool:
    return (
        report.bit_identical
        and not report.starved_tenants
        and not report.reconciliation_errors()
        and not report.journal_errors()
    )


def _soak_config(args: argparse.Namespace, **fields):
    """The soak ``serve``/``slo`` asked for, or ``None`` after an error
    line when its chaos profile cannot run on ``--machines``."""
    from repro.serving.soak import SoakConfig

    try:
        return SoakConfig(
            scale_factor=args.sf,
            machines=args.machines,
            n_queries=args.queries,
            n_workers=args.workers,
            chaos=args.chaos,
            seed=args.seed,
            retries=args.retries,
            **fields,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _print_artifacts(artifacts: dict, args: argparse.Namespace) -> None:
    print(
        f"artifacts: {artifacts['chrome_events']} chrome events"
        + (f" -> {args.chrome_out}" if args.chrome_out else "")
        + f", {artifacts['journals']} journals"
        + (f" -> {args.journal_out}" if args.journal_out else "")
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving.soak import (
        breaker_scenario,
        chaos_matrix,
        export_soak_artifacts,
        run_soak,
    )

    trace = bool(args.trace or args.chrome_out or args.journal_out)
    if args.matrix:
        reports = chaos_matrix(
            scale_factor=args.sf,
            machines=args.machines,
            n_queries=args.queries,
            seed=args.seed,
            trace=trace,
        )
        breaker = breaker_scenario(
            scale_factor=args.sf, machines=args.machines, seed=args.seed
        )
        artifacts = None
        if args.chrome_out or args.journal_out:
            artifacts = export_soak_artifacts(
                reports,
                chrome_out=args.chrome_out,
                journal_out=args.journal_out,
            )
        ok = (
            breaker.tripped
            and breaker.bystander_matched
            and all(_soak_passed(report) for report in reports.values())
        )
        if args.format == "json":
            payload = {
                "profiles": {
                    profile: {
                        "bit_identical": report.bit_identical,
                        "lifecycle": {
                            k: len(v)
                            for k, v in report.lifecycle.items()
                            if v
                        },
                        "reconciliation_errors":
                            report.reconciliation_errors(),
                        "journal_errors": report.journal_errors(),
                        "journals": len(report.journals),
                    }
                    for profile, report in reports.items()
                },
                "breaker": {
                    "tripped": breaker.tripped,
                    "state": breaker.breaker_state,
                    "fast_failed": breaker.breaker_rejected,
                    "bystander_bit_identical": breaker.bystander_matched,
                },
                "ok": ok,
            }
            if artifacts is not None:
                payload["artifacts"] = {
                    **artifacts,
                    "chrome_out": args.chrome_out,
                    "journal_out": args.journal_out,
                }
            _print_json(payload)
        else:
            for profile, report in reports.items():
                print(f"--- chaos profile: {profile} ---")
                print(report.render())
            print("--- poison-plan breaker scenario ---")
            print(breaker.render())
            if artifacts is not None:
                _print_artifacts(artifacts, args)
        if not ok:
            print(
                "ERROR: chaos matrix failed (divergence, starvation, broken "
                "ledger/journals, or breaker misbehavior)",
                file=sys.stderr,
            )
        return 0 if ok else 1

    config = _soak_config(
        args,
        deadline=args.deadline,
        cancel_every=args.cancel_every,
        shed_threshold=args.shed_threshold,
        trace=trace,
        slo_target=args.slo_target,
    )
    if config is None:
        return 2
    report = run_soak(config)
    artifacts = None
    if args.chrome_out or args.journal_out:
        artifacts = export_soak_artifacts(
            report, chrome_out=args.chrome_out, journal_out=args.journal_out
        )
    if args.format == "json":
        payload = {
            "queries": len(report.results),
            "chaos": args.chaos,
            "bit_identical": report.bit_identical,
            "serial_wall_seconds": report.serial_wall,
            "concurrent_wall_seconds": report.concurrent_wall,
            "queries_per_second": report.queries_per_second,
            "overlapped": report.overlapped,
            "starved_tenants": report.starved_tenants,
            "shares": {
                t: {"observed": obs, "entitled": ent}
                for t, (obs, ent) in sorted(report.shares.items())
            },
            "ledgers": {
                t: {"settled": settled, "serial": serial}
                for t, (settled, serial) in sorted(report.ledgers.items())
            },
            "lifecycle": {
                k: list(v) for k, v in report.lifecycle.items() if v
            },
            "reconciliation_errors": report.reconciliation_errors(),
            "journal_errors": report.journal_errors(),
            "journals": len(report.journals),
        }
        if report.slo is not None:
            payload["slo"] = report.slo.as_dict()
        if artifacts is not None:
            payload["artifacts"] = {
                **artifacts,
                "chrome_out": args.chrome_out,
                "journal_out": args.journal_out,
            }
        _print_json(payload)
    else:
        print(report.render())
        if args.trace:
            print("\nscheduler trace (seq worker tenant query):")
            for event in report.scheduler_events:
                print(
                    f"  [{event.seq:>5}] w{event.worker} {event.tenant:<12} "
                    f"q{event.query_id} {event.label} "
                    f"({event.trace_id or 'untraced'})"
                )
        if artifacts is not None:
            _print_artifacts(artifacts, args)
    ok = _soak_passed(report)
    if not ok:
        print("ERROR: soak failed (results diverged, a tenant starved, or "
              "the ledgers/journals failed to reconcile)",
              file=sys.stderr)
    return 0 if ok else 1


def _cmd_slo(args: argparse.Namespace) -> int:
    from repro.errors import ServingError
    from repro.serving.soak import run_soak

    config = _soak_config(
        args, slo_target=args.target, slo_objective=args.objective
    )
    if config is None:
        return 2
    report = run_soak(config)
    slo = report.slo
    if slo is None:
        raise ServingError("the soak ran without its SLO target")
    if args.format == "json":
        _print_json(
            {
                "queries": len(report.results),
                "chaos": args.chaos,
                "target_seconds": args.target,
                "objective": args.objective,
                "ok": slo.ok,
                "slo": slo.as_dict(),
                "journal_errors": report.journal_errors(),
            }
        )
    else:
        print(slo.render())
    return 0 if slo.ok and not report.journal_errors() else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "bench": _cmd_bench,
        "tpch": _cmd_tpch,
        "join": _cmd_join,
        "explain": _cmd_explain,
        "profile": _cmd_profile,
        "metrics": _cmd_metrics,
        "lint": _run_cli_of("repro.analysis.lint"),
        "chaos": _run_cli_of("repro.faults.chaos"),
        "sanitize": _run_cli_of("repro.analysis.sanitize_cli"),
        "serve": _cmd_serve,
        "slo": _cmd_slo,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
