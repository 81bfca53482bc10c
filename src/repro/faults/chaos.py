"""Seeded chaos soaks: execute plans under fault injection, verify results.

Backs the ``repro chaos`` CLI subcommand.  A *soak* runs a target plan
twice — once fault-free, once under a seeded :class:`FaultPolicy` — and
compares the results.  Because fault decisions are pure functions of
``(seed, job, rank, stream, draw)`` and faults only cost simulated time,
the chaos run must be **bit-identical** to the fault-free baseline; any
divergence is a recovery bug and fails the soak (exit code 1).

Two comparison regimes:

* **ordered** (the default): every output column must match the baseline
  byte for byte — retries and stage re-executions may not perturb even
  the row order.
* **order-insensitive**: used when the policy degrades the execution
  shape itself — a *permanent* rank crash re-shards inputs over the
  survivors, and ``memory_pressure`` swaps a broadcast join for an
  exchange join — so rows arrive in a different order (and floating
  aggregates may differ by rounding).  Rows are compared as sorted sets,
  floats within 1e-9 relative tolerance.

Targets come from the catalogue in :mod:`repro.workloads.targets`; the
seeds matrix, reporting and exit code are the shared runner of
:mod:`repro.workloads.matrix`.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.options import RunOptions
from repro.errors import TypeCheckError
from repro.faults.policy import CrashFault, FaultPolicy, StragglerFault

__all__ = ["check", "run_cli"]


def parse_straggler(spec: str) -> StragglerFault:
    """Parse a ``RANK:FACTOR`` CLI spec (e.g. ``2:4.0``)."""
    rank_text, _, factor_text = spec.partition(":")
    try:
        rank = int(rank_text)
        factor = float(factor_text) if factor_text else 4.0
    except ValueError:
        raise ValueError(
            f"bad straggler spec {spec!r}: expected RANK:FACTOR (e.g. 2:4.0)"
        ) from None
    return StragglerFault(rank=rank, slowdown=factor)


def _ordered_comparison(policy: FaultPolicy) -> bool:
    """False when the policy changes the execution *shape* (see module doc)."""
    if policy.memory_pressure:
        return False
    return policy.crash is None or not policy.crash.permanent


def check(target, cell: tuple[str, FaultPolicy]) -> dict:
    """Run ``target`` fault-free and under ``cell = (mode, policy)``; compare.

    Returns a verdict dict (``ok``, timings, the chaos run's fault
    summary); never raises on mismatch — the caller decides.  Resolve the
    target with ``trace=True`` or the fault summary stays empty.
    """
    from repro.relational.interpreter import frames_match

    mode, policy = cell
    baseline = target.run(RunOptions(mode=mode))
    expected = target.columns(baseline)
    chaos = target.run(RunOptions(mode=mode, faults=policy))
    ordered = _ordered_comparison(policy)
    verdict = {
        "target": target.name,
        "mode": mode,
        "seed": policy.seed,
        "ok": frames_match(
            expected, target.columns(chaos), 0.0 if ordered else 1e-9, ordered
        ),
        "baseline_time": baseline.simulated_time,
        "chaos_time": chaos.simulated_time,
        "faults": chaos.fault_summary(),
    }
    verdict.update(target.planner_choice())
    return verdict


def _line(verdict: dict) -> str:
    injected = sum(
        n for kind, n in verdict["faults"].items() if kind.startswith("fault:")
    )
    overhead = (
        verdict["chaos_time"] / verdict["baseline_time"] - 1
        if verdict["baseline_time"]
        else 0.0
    )
    return (
        f"seed={verdict['seed']} mode={verdict['mode']:<11} "
        f"faults={injected:<3d} "
        f"sim {verdict['chaos_time'] * 1e3:8.3f} ms "
        f"({overhead:+.1%} vs fault-free)"
    )


def run_cli(args) -> int:
    """Body of ``repro chaos`` (argparse namespace in, exit code out)."""
    import sys

    from repro.workloads.matrix import SoakMatrix

    seed_last = args.seed + args.seeds - 1
    try:
        matrix = SoakMatrix("chaos", args, trace=True)
        stragglers = tuple(parse_straggler(s) for s in args.straggler or ())
        # A fault on a rank the cluster does not have would never fire: the
        # soak would pass without testing what was asked.
        rank = max([args.crash_rank or 0] + [s.rank for s in stragglers])
        if rank >= args.machines:
            raise ValueError(
                f"fault rank {rank} is outside the cluster (--machines {args.machines})"
            )
        crash = None
        if args.crash_rank is not None:
            crash = CrashFault(
                args.crash_rank, args.crash_after, permanent=args.permanent
            )
        policy = FaultPolicy(
            seed=args.seed,
            put_drop_rate=args.drop_rate,
            collective_drop_rate=args.collective_drop_rate,
            stragglers=stragglers,
            crash=crash,
            memory_pressure=args.memory_pressure,
        )
        cells = [
            (args.mode, replace(policy, seed=seed))
            for seed in range(args.seed, seed_last + 1)
        ]
    except (ValueError, TypeCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    matrix.run(cells, check, _line)
    summary = matrix.summary(
        modes=[args.mode],
        seed_first=args.seed,
        seed_last=seed_last,
        machines=args.machines,
        policy={
            "put_drop_rate": args.drop_rate,
            "collective_drop_rate": args.collective_drop_rate,
            "crash_rank": args.crash_rank,
            "crash_after": args.crash_after,
            "permanent": args.permanent,
            "stragglers": [[s.rank, s.slowdown] for s in stragglers],
            "memory_pressure": args.memory_pressure,
        },
    )
    return matrix.finish(
        {
            "summary": summary,
            "soaks": matrix.verdicts,
            "failures": matrix.failures,
        },
        claim=(
            f"bit-identical under policy(seed={args.seed}..{seed_last}, "
            f"put_drop={args.drop_rate}, collective_drop="
            f"{args.collective_drop_rate})"
        ),
        problem="diverged from the fault-free baseline",
    )
