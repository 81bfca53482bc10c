"""Wall-clock smoke benchmark: the armed-but-idle taxes and the join kernels.

Everything else in ``repro.bench`` measures *simulated* seconds — the
calibrated cost model the paper's figures are drawn from.  This module
measures *real* wall-clock time, answering what the simulation cannot: do
the armed-but-idle subsystems (a fault injector that injects nothing, a
query lifecycle where nothing fires) stay cheap, and does the radix join
kernel pay for itself where it is meant to?  (The
two execution modes run the same kernels, so there is no mode race to
time; regressions of the engine itself are gated by ``BENCHMARK.json``;
see ``benchmarks/e2e/README.md``.)

Every probe races a handful of *configurations* of one workload with
:func:`_best_of` — rounds are interleaved (a, b, c, a, b, c, ...) so a
machine-load burst hits every configuration equally, and best-of wins.
The probe functions say what their configurations are; :data:`GATES` is
the table of numbers ``make bench-smoke`` enforces on the report.
Besides the gates, every ``identical`` / ``clean`` flag a probe reports
must be true: configurations may differ in wall-clock, never in results.
The report lands in ``out/bench_smoke.json`` (see ``make bench-smoke``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial
from typing import Any, Callable

import numpy as np

from repro.core.options import RunOptions
from repro.mpi.cluster import SimCluster
from repro.relational.interpreter import frames_match
from repro.types.atoms import INT64
from repro.types.collections import RowVector
from repro.types.tuples import TupleType
from repro.workloads.targets import TPCH_TARGETS, resolve

__all__ = ["GATES", "gate_failures", "run_smoke", "main"]

#: Budget of every armed-but-idle subsystem (fault injector, query
#: lifecycle) relative to running without it.  The profiler and the
#: sanitizer are not armed when off; that their hooks are never reached
#: then is a deterministic test (``tests/test_observability_profile.py``).
MAX_OVERHEAD = 0.05

#: Radix must beat the sorted-hash kernel by this factor on the skewed
#: duplicate-heavy workload — the case the kernel exists for.
MIN_RADIX_SPEEDUP = 2.0

#: ``(report path, relation, bound, what a breach means)`` — the numbers
#: ``make bench-smoke`` fails on.
GATES = (
    ("faults.armed_overhead", "<=", MAX_OVERHEAD,
     "the injector is no longer cheap when it injects nothing"),
    ("serving.armed_overhead", "<=", MAX_OVERHEAD,
     "deadlines, retries, and the breaker must stay free when nothing fires"),
    ("join_kernels.skewed.speedup", ">=", MIN_RADIX_SPEEDUP,
     "radix no longer pays for itself on the skewed workload"),
)


def gate_failures(report: dict) -> list[str]:
    """Every breached gate and every false ``identical``/``clean`` flag."""
    failures = []
    for path, relation, bound, meaning in GATES:
        value: Any = report
        for key in path.split("."):
            value = value[key]
        holds = value >= bound if relation == ">=" else value <= bound
        if not holds:
            failures.append(
                f"{path} = {value:.3f} is not {relation} {bound:g}: {meaning}"
            )

    def flags(section: dict, path: str) -> None:
        for key, value in section.items():
            if isinstance(value, dict):
                flags(value, f"{path}{key}.")
            elif key in ("identical", "clean") and not value:
                failures.append(
                    f"{path}{key} is false: configurations of one probe "
                    "disagreed on results"
                )

    flags(report, "")
    return failures


# -- the one timing helper ------------------------------------------------------


def _timed(fn: Callable, *args) -> tuple[float, Any]:
    start = time.perf_counter()
    output = fn(*args)
    return time.perf_counter() - start, output


def _best_of(
    rounds: int,
    configs: dict[str, Callable[[], tuple[float, Any]]],
    agree: Callable[[dict], bool] | None = None,
) -> tuple[dict, dict]:
    """Interleaved best-of-``rounds`` wall-clock race of ``configs``.

    Each configuration returns ``(seconds, output)`` — it owns its clock,
    so set-up it must not be charged for stays outside.  Returns the
    probe's report section — best ``<config>_seconds`` per configuration
    plus, when ``agree`` is given, ``identical``: whether it accepted
    every round's outputs (a dict by configuration name) — and the last
    round's outputs.
    """
    best = dict.fromkeys(configs, float("inf"))
    identical = True
    outputs: dict = {}
    for _ in range(rounds):
        for name, run in configs.items():
            seconds, outputs[name] = run()
            best[name] = min(best[name], seconds)
        if agree is not None:
            identical = bool(agree(outputs)) and identical
    section: dict = {f"{name}_seconds": best[name] for name in configs}
    if agree is not None:
        section["identical"] = identical
    return section, outputs


def _configs(section: dict) -> list[str]:
    return [key[:-8] for key in section if key.endswith("_seconds")]


def _overheads(section: dict) -> dict:
    """Add ``<config>_overhead`` of every configuration over the first."""
    reference, *others = _configs(section)
    for name in others:
        section[f"{name}_overhead"] = (
            section[f"{name}_seconds"] / section[f"{reference}_seconds"] - 1.0
        )
    return section


def _speedup(section: dict, fast: str, slow: str) -> dict:
    """Add ``speedup``: how many times ``fast`` beats ``slow``."""
    section["speedup"] = section[f"{slow}_seconds"] / section[f"{fast}_seconds"]
    return section


# -- probes ---------------------------------------------------------------------


def _profiler_probe(n_integers: int, repeats: int) -> dict:
    """The §5.1.2 scan-and-sum micro: what recording spans and recording
    metrics cost over the shipping default (both off)."""
    from repro.bench.experiments.micro import _scan_sum_plan
    from repro.core.executor import execute

    plan, slot, table, expected = _scan_sum_plan(n_integers, seed=2021)

    def run(**options):
        seconds, report = _timed(
            execute, plan, {slot: (table,)}, RunOptions(**options)
        )
        return seconds, report.rows

    def agree(outputs):
        return all(rows == [(expected,)] for rows in outputs.values())

    profiler, _ = _best_of(
        max(repeats, 3),
        {
            "disabled": run,
            "profiled": partial(run, profile=True),
            "metered": partial(run, metrics=True),
        },
        agree,
    )
    return {**_overheads(profiler), "n_integers": n_integers}


def _groupby_probes(
    log2_tuples: int, machines: int, repeats: int
) -> tuple[dict, dict]:
    """The Figure 7 distributed GROUP BY: fault tax, sanitizer cost.

    The fault tax arms a zero-rate :class:`~repro.faults.FaultPolicy`: the
    injector is constructed and consulted, but every draw passes.  The
    sanitizer's cost (``sanitize=True``) is reported, not budgeted: the
    determinism replay re-executes the plan.
    """
    from repro.faults import FaultPolicy

    target = resolve("groupby", machines, log2_tuples=log2_tuples)
    sizes = {"n_tuples": 1 << log2_tuples, "machines": machines}

    def run(**options):
        seconds, report = _timed(target.run, RunOptions(**options))
        return seconds, target.columns(report)

    def same(first: str, second: str):
        return lambda outputs: frames_match(outputs[first], outputs[second], 0.0, True)

    idle = FaultPolicy(seed=2021, put_drop_rate=0.0, collective_drop_rate=0.0)
    faults, _ = _best_of(
        max(repeats, 3),
        {"disabled": run, "armed": partial(run, faults=idle)},
        same("disabled", "armed"),
    )
    sanitizer, _ = _best_of(
        max(repeats, 3),
        {"disabled": run, "sanitized": partial(run, sanitize=True)},
        same("disabled", "sanitized"),
    )
    return {**_overheads(faults), **sizes}, {**_overheads(sanitizer), **sizes}


def _sanitized_tpch(machines: int, sf: float) -> dict:
    """TPC-H under the sanitizer: bit-identical results, clean reports."""
    from repro.analysis.sanitize_cli import check

    verdicts = {}
    for name in TPCH_TARGETS:
        verdict = check(resolve(name, machines, sf=sf), ("fused", "none", None))
        report = verdict["sanitizer"]
        verdicts[name] = {
            "identical": verdict["identical"],
            "clean": report is not None and report["clean"],
        }
    return verdicts


def _serving_probe(scale_factor: float, machines: int, repeats: int) -> dict:
    """A served TPC-H batch: the query-lifecycle tax.

    ``armed`` sets a generous deadline on every submission, a retry
    policy, and a shed threshold just below the cap: every lifecycle
    check runs on every driver step and submission, but nothing ever fires.
    Only the submit-to-result window is timed (deploys happen outside
    the clock).
    """
    from repro.faults.policy import RetryPolicy
    from repro.serving.server import Server
    from repro.tpch import ALL_QUERIES, load_catalog

    catalog = load_catalog(scale_factor)
    cluster = SimCluster(machines)
    sizes = {"scale_factor": scale_factor, "machines": machines}

    def serve(n_queries: int, deadline: float | None = None, **server_kwargs):
        with Server(
            cluster, catalog, max_pending=n_queries * 2,
            **server_kwargs,
        ) as server:
            handles = [
                server.deploy(name, ALL_QUERIES[int(name[1:])]()).handle
                for name in TPCH_TARGETS
            ]
            start = time.perf_counter()
            futures = [
                server.submit(handles[i % len(handles)], deadline=deadline)
                for i in range(n_queries)
            ]
            for future in futures:
                future.result(timeout=600)
            return time.perf_counter() - start, None

    lifecycle, _ = _best_of(
        max(repeats, 3),
        {
            "baseline": partial(serve, 8),
            "armed": partial(
                serve, 8, deadline=1e6, retry=RetryPolicy(max_attempts=3),
                shed_threshold=0.99,
            ),
        },
    )
    return {**_overheads(lifecycle), **sizes}


def _join_kernels(build_rows: int, probe_rows: int, repeats: int) -> dict:
    """Race the sorted-hash and radix join kernels on three key distributions.

    Both kernels run build-plus-probe over the same morsel stream:

    * ``uniform`` — build keys uniform over four times the build
      cardinality, probe keys uniform over the same range: the crossover
      workload where direct addressing competes with ``searchsorted``
      without duplication in its favor,
    * ``skewed`` — a duplicate-heavy build (eight rows per key) probed
      with a Zipf-skewed key stream: hot keys hammer the same candidate
      runs, the case the radix kernel exists for,
    * ``sorted_runs`` — the same eight rows per key, stored sorted by key
      (as TPC-H's ``lineitem`` is on its order key) and probed by one
      row in 64: radix searches the build instead of counting it.

    The emitted morsels must be bit-identical between kernels.
    """
    from repro.core.kernels.hash_join import HashJoinSpec
    from repro.core.kernels.radix_join import select_join_kernel

    left_type = TupleType.of(key=INT64, lpay=INT64)
    right_type = TupleType.of(key=INT64, rpay=INT64)
    spec = HashJoinSpec(
        join_type="inner",
        output_type=TupleType.of(key=INT64, lpay=INT64, rpay=INT64),
        key="key",
        left_rest_pos=(1,),
        right_rest_pos=(1,),
        right_type=right_type,
        outer_fill=0,
    )
    rng = np.random.default_rng(2021)
    dense_range = max(build_rows >> 3, 1)  # eight build rows per key
    workloads = {
        "uniform": (
            rng.integers(0, build_rows * 4, build_rows, dtype=np.int64),
            rng.integers(0, build_rows * 4, probe_rows, dtype=np.int64),
        ),
        "skewed": (
            rng.integers(0, dense_range, build_rows, dtype=np.int64),
            (np.minimum(rng.zipf(1.5, probe_rows), 8 * dense_range) - 1).astype(
                np.int64
            ),
        ),
        "sorted_runs": (
            np.sort(rng.integers(0, dense_range, build_rows, dtype=np.int64)),
            rng.integers(0, dense_range, max(build_rows >> 6, 1), dtype=np.int64),
        ),
    }

    report: dict = {}
    morsel = 1 << 16
    for name, (build_keys, probe_keys) in workloads.items():
        left = RowVector(
            left_type, [build_keys, np.arange(build_rows, dtype=np.int64)]
        )
        morsels = [
            RowVector(
                right_type,
                [
                    probe_keys[i : i + morsel],
                    np.arange(i, min(i + morsel, len(probe_keys)), dtype=np.int64),
                ],
            )
            for i in range(0, len(probe_keys), morsel)
        ]

        def join(kernel: str):
            # The production dispatch point, with the kernel pinned.
            _, build, probe = select_join_kernel(kernel, left, "key")
            return [probe(build, batch, spec) for batch in morsels]

        section, outputs = _best_of(
            max(repeats, 2),
            {kernel: partial(_timed, join, kernel) for kernel in ("sorted", "radix")},
            lambda outputs: outputs["sorted"] == outputs["radix"],
        )
        report[name] = {
            **_speedup(section, "radix", "sorted"),
            "output_rows": sum(len(out) for out in outputs["radix"]),
        }
    report["build_rows"] = build_rows
    report["probe_rows"] = probe_rows
    return report


def run_smoke(
    micro_integers: int = 1 << 20,
    groupby_log2_tuples: int = 17,
    machines: int = 2,
    repeats: int = 2,
    tpch_sf: float = 0.005,
    join_build_rows: int = 1 << 16,
    join_probe_rows: int = 1 << 19,
) -> dict:
    """Run every probe and return the report dictionary."""
    profiler = _profiler_probe(micro_integers, repeats)
    faults, sanitizer = _groupby_probes(groupby_log2_tuples, machines, repeats)
    sanitizer["tpch"] = _sanitized_tpch(machines, tpch_sf)
    sanitizer["tpch_sf"] = tpch_sf
    join_kernels = _join_kernels(join_build_rows, join_probe_rows, repeats)
    serving = _serving_probe(tpch_sf, machines, repeats)
    return {
        "profiler": profiler,
        "faults": faults,
        "sanitizer": sanitizer,
        "join_kernels": join_kernels,
        "serving": serving,
    }


def _line(name: str, section: dict) -> str:
    """``name: a 0.1s, b 0.2s (+3.0%)`` [``-> 2.0x`` [``(N rows)``]]."""
    parts = []
    for config in _configs(section):
        part = f"{config} {section[f'{config}_seconds']:.3f}s"
        if f"{config}_overhead" in section:
            part += f" ({section[f'{config}_overhead']:+.1%})"
        parts.append(part)
    line = f"{name}: " + ", ".join(parts)
    if "speedup" in section:
        line += f" -> {section['speedup']:.1f}x"
    if "output_rows" in section:
        line += f" ({section['output_rows']} rows)"
    return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out/bench_smoke.json",
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    report = run_smoke()
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    kernels = report["join_kernels"]
    sections = {
        **{name: report[name] for name in ("profiler", "faults", "sanitizer")},
        **{f"join_kernels/{w}": kernels[w] for w in ("uniform", "skewed", "sorted_runs")},
        "serving": report["serving"],
    }
    for name, section in sections.items():
        print(_line(name, section))
    print(f"report written to {args.out}")
    failures = gate_failures(report)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
