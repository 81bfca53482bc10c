"""The traced run (``--trace 1``): where a round's time goes, layer by layer.

After one set-up it runs, each for a share of ``--seconds``: an untraced
pass, a pass with a span around every call into a layer, and a pass under
the program's own profiler and metrics registry; then fixed-size probes.
End-to-end numbers are never taken from this run.
"""

from __future__ import annotations

import time
from pathlib import Path

import layers
from harness import MIN_BLOCKS, set_up, timed_loop
from layers import COUNTERS, OPERATOR_GROUPS, PACKAGES, PHASES
from repro import RunOptions
from spans import SpanRecorder
from stats import median, percentile
from workloads import TpchServed

#: Shares of ``--seconds`` for the three passes and, on the served workload,
#: the side pass; the rest is left for the fixed-size probes.
UNTRACED_SHARE, SPAN_SHARE, PROFILE_SHARE, SIDE_SHARE = 0.30, 0.30, 0.12, 0.08
PROBE_ROUNDS = 9

TPCH_OPS = ("q4", "q12", "q14", "q19")
BULK_OPS = ("join", "bcast_join", "groupby")


def units() -> dict[str, str]:
    """Every per-layer metric, in print order, with its unit."""
    out = {
        "tpch.load_catalog_s": "s",
        "relational.deploy_ms": "ms",
        "relational.instantiate_ms": "ms",
        "relational.reference_ms": "ms",
        "analysis.verify_ms": "ms",
        "core.execute_ms": "ms",
        "core.result_frame_ms": "ms",
        "core.steps_per_query": "count",
        "core.fixed_cost_ms": "ms",
    }
    out.update({f"core.{op}_ms": "ms" for op in TPCH_OPS + BULK_OPS})
    for group in OPERATOR_GROUPS:
        out[f"core.{group}_wall_ms"] = "ms"
        out[f"core.{group}_sim_ms"] = "sim_ms"
    out.update(dict.fromkeys(COUNTERS, "count"))
    out["core.shuffle_bytes"] = "B"
    out.update({
        "kernels.join_ms": "ms",
        "kernels.join_mrows_per_s": "Mrows/s",
        "mpi.spawn_join_ms": "ms",
        "mpi.collective_us": "us",
        "mpi.put_mb_per_s": "MB/s",
        "mpi.jobs_per_query": "count",
        "mpi.collectives_per_query": "count",
        "mpi.puts_per_query": "count",
        "mpi.substrate_est_ms": "ms",
    })
    out.update({f"mpi.sim_phase_{phase}_ms": "sim_ms" for phase in PHASES})
    out.update({
        "serving.submit_ms": "ms",
        "serving.queue_wait_ms": "ms",
        "serving.run_ms": "ms",
    })
    for op in TPCH_OPS:
        out[f"serving.{op}_p50_ms"] = "ms"
        out[f"serving.{op}_p90_ms"] = "ms"
    out.update({
        "serving.overhead_ms": "ms",
        "serving.quanta_per_query": "count",
        "serving.steals_per_query": "count",
        "serving.rejected": "count",
        "serving.failed": "count",
        "observability.traced_overhead_ratio": "ratio",
        "observability.profiled_overhead_ratio": "ratio",
        "observability.span_coverage": "ratio",
        "observability.spans_per_query": "count",
        "observability.dropped_spans": "count",
        "observability.model_fidelity_rho": "ratio",
        "bench.pinned": "count",
        "bench.noisy_host": "count",
        "engine.round_wall_p50_ms": "ms",
        "engine.round_wall_p90_ms": "ms",
        "engine.queries_per_s": "1/s",
        "bench.reference_ms": "ms",
        "bench.calib_ms": "ms",
        "bench.cpu_drift": "ratio",
        "bench.timer_overhead_us": "us",
        "sloc.src_total": "count",
        "sloc.tests_total": "count",
    })
    out.update({f"sloc.{package}": "count" for package in PACKAGES})
    return out


def layer_times(rec) -> tuple[dict[str, list[float]], dict[str, float]]:
    """From one recorder: query-span durations per operation type, and per
    child span name the mean over operation types of its median duration in
    ms (each type weighs the same, as in a round)."""
    root_of = {s.query: s.name for s in rec.spans if s.parent == 0 and s.query}
    roots: dict[str, list[float]] = {}
    children: dict[str, dict[str, list[float]]] = {}
    for span in rec.spans:
        if not span.query:
            continue
        if span.parent == 0:
            roots.setdefault(span.name.split(".", 1)[1], []).append(span.duration)
        else:
            per_type = children.setdefault(span.name, {})
            per_type.setdefault(root_of[span.query], []).append(span.duration)
    child_ms = {
        name: sum(median(v) for v in per_type.values()) / len(per_type) * 1e3
        for name, per_type in children.items()
    }
    return roots, child_ms


def serving_metrics(workload, rec, tally, seconds, max_rounds):
    """Serving's own spans from the two-client pass in ``rec``; then a side
    pass on the idle server — the same queries run directly and through one
    client — for the layers under serving and for its overhead.  Returns
    the metrics and the recorder holding the direct spans."""
    out = {}
    served_roots, served_ms = layer_times(rec)
    for name in ("submit", "queue_wait", "run"):
        out[f"serving.{name}_ms"] = served_ms.get(f"serving.{name}", 0.0)
    for op, walls in served_roots.items():
        out[f"serving.{op}_p50_ms"] = median(walls) * 1e3
        out[f"serving.{op}_p90_ms"] = percentile(walls, 90) * 1e3

    direct_rec, solo_rec = rec.child(), rec.child()
    deadline = time.perf_counter() + seconds * SIDE_SHARE
    done = 0
    while done < (max_rounds or MIN_BLOCKS) or (
        not max_rounds and time.perf_counter() < deadline
    ):
        tally.add([workload.direct_round(direct_rec)])
        tally.add(workload.served_block(1, 1, solo_rec)[0])
        done += 1
    solo, direct = layer_times(solo_rec)[0], layer_times(direct_rec)[0]
    out["serving.overhead_ms"] = sum(
        (median(solo[op]) - median(direct[op])) * 1e3 for op in solo
    ) / len(solo)

    accounts = workload.server.tenants()
    snapshot = workload.server.snapshot()
    served = max(1, sum(a.queries for a in accounts))
    out["serving.quanta_per_query"] = snapshot.total("serving_quanta") / served
    out["serving.steals_per_query"] = snapshot.total("serving_steals") / served
    out["serving.rejected"] = float(sum(a.rejected + a.shed for a in accounts))
    out["serving.failed"] = float(sum(a.failed for a in accounts))
    rec.spans.extend(direct_rec.spans + solo_rec.spans)
    return out, direct_rec


def per_layer(workload, args, tally, calib, pinned: bool, out_dir: Path) -> dict[str, float]:
    out = dict.fromkeys(units(), 0.0)
    seconds, max_rounds = args.seconds, args.rounds
    rec = SpanRecorder()
    set_up(workload, args.seed, tally, rec)
    for span in rec.spans:
        if span.name == "tpch.load_catalog":
            out["tpch.load_catalog_s"] = span.duration
        elif span.name == "relational.deploy":
            out["relational.deploy_ms"] = span.duration * 1e3

    untraced = timed_loop(workload, tally, calib, seconds * UNTRACED_SHARE, max_rounds)
    traced = timed_loop(workload, tally, calib, seconds * SPAN_SHARE, max_rounds, rec=rec)
    profiled = timed_loop(
        workload, tally, calib, seconds * PROFILE_SHARE, max_rounds,
        options=RunOptions(profile=True, metrics=True), count_steps=True,
    )
    out.update(layers.fold_profiles(profiled.rounds, workload.n_ranks))
    out["bench.reference_ms"] = median(untraced.refs + traced.refs) * 1e3
    if workload.queries:
        out["relational.reference_ms"] = out["bench.reference_ms"]
        out["analysis.verify_ms"] = layers.verify_probe(workload) * 1e3
    base = untraced.p50_ms()
    out["engine.round_wall_p50_ms"] = base
    out["engine.round_wall_p90_ms"] = percentile(untraced.walls(), 90) * 1e3
    out["engine.queries_per_s"] = untraced.queries_per_s()
    if base:
        out["observability.traced_overhead_ratio"] = traced.p50_ms() / base
        out["observability.profiled_overhead_ratio"] = profiled.p50_ms() / base
    queries = sum(1 for s in rec.spans if s.parent == 0 and s.query)
    out["observability.spans_per_query"] = (
        sum(1 for s in rec.spans if s.query) / queries if queries else 0.0
    )
    out["observability.span_coverage"] = median(rec.coverage())

    direct_rec = rec
    if isinstance(workload, TpchServed):
        serving, direct_rec = serving_metrics(workload, rec, tally, seconds, max_rounds)
        out.update(serving)
    roots, child_ms = layer_times(direct_rec)
    for name in ("relational.instantiate", "core.execute", "core.result_frame"):
        out[f"{name}_ms"] = child_ms.get(name, 0.0)
    for op, walls in roots.items():
        out[f"core.{op}_ms"] = median(walls) * 1e3

    tiny, tiny_rec = workload.tiny(), rec.child()
    tiny.setup(args.seed)
    for _ in range(max_rounds or PROBE_ROUNDS):
        tally.add([tiny.direct_round(tiny_rec)])
    out["core.fixed_cost_ms"] = layer_times(tiny_rec)[1].get("core.execute", 0.0)
    tiny.teardown()

    out.update(layers.kernel_probe(workload))
    out.update(layers.substrate_probe(workload.n_ranks))
    out["mpi.substrate_est_ms"] = (
        out["mpi.jobs_per_query"] * out["mpi.spawn_join_ms"]
        + out["mpi.collectives_per_query"] * out["mpi.collective_us"] / 1e3
    )
    workload.teardown()

    out["observability.dropped_spans"] += rec.dropped
    out["bench.pinned"] = float(pinned)
    out["bench.noisy_host"] = float(not pinned or calib.noisy())
    out["bench.calib_ms"] = median(calib.samples) * 1e3
    out["bench.cpu_drift"] = calib.drift()
    out["bench.timer_overhead_us"] = layers.timer_overhead_us()
    out.update(layers.sloc(out_dir.parents[2]))
    rec.write_chrome(out_dir / f"trace_{workload.name}.json")
    return out
