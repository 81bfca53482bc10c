"""A/A check: do sets of runs of the same code agree within the bounds?

    python3 benchmarks/e2e/aa_check.py --sets 3 --runs 5 > benchmarks/e2e/AA_REPORT.md

Runs ``--sets`` sets one after another; a set runs every workload of
``BENCHMARK.json`` ``--runs`` times, each run with another seed (the same
seeds in every set), workloads interleaved so that a slow minute of the host
falls on all of them.  Per workload and end-to-end metric it prints the set
medians, the largest disagreement between two set medians, the widest
quartile spread inside a set, and the bound.  Exit code 1 if a disagreement
exceeds its bound, if a spread other than ``setup_s``'s does, or if a run
fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN_TIMEOUT_S = 180


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=3)
    parser.add_argument("--runs", type=int, default=5, help="runs per workload per set")
    parser.add_argument("--seed", type=int, default=2021, help="seed of a set's first run")
    parser.add_argument("--seconds", type=int, default=0,
                        help="override BENCHMARK.json run_seconds")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    # values[workload][metric][set] -> one value per run
    values = {
        w: {m["name"]: [[] for _ in range(args.sets)] for m in metrics} for w in workloads
    }
    for index in range(args.sets):
        for run in range(args.runs):
            for workload in workloads:
                result = run_once(spec["command"], workload, args.seed + run, seconds)
                for name, value in result.items():
                    values[workload][name][index].append(value)
                shown = " ".join(f"{name}={value:.4g}" for name, value in result.items())
                print(f"set {index + 1} seed {args.seed + run} {workload}: {shown}",
                      file=sys.stderr)

    print("# A/A report\n")
    print(f"{args.sets} sets x {args.runs} runs per workload, seeds {args.seed}.."
          f"{args.seed + args.runs - 1}, {seconds} s per run, unchanged code.")
    print("Disagreement: (largest - smallest set median) / smallest.  Spread: widest")
    print("(Q3 - Q1) / median of one set's runs.\n")
    print("| workload | metric | set medians | disagreement | spread | bound | |")
    print("|---|---|---|---|---|---|---|")
    failures = 0
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            sets = values[workload][name]
            medians = [median(s) for s in sets]
            disagreement = (max(medians) - min(medians)) / min(medians)
            spread = max(quartile_spread(s) for s in sets) if args.runs > 1 else 0.0
            ok = disagreement <= bound and (name == "setup_s" or spread <= bound)
            failures += not ok
            shown = " / ".join(f"{m:.4g}" for m in medians)
            print(f"| {workload} | {name} | {shown} | {disagreement:.4f} | "
                  f"{spread:.4f} | {bound} | {'ok' if ok else 'EXCEEDS'} |")
    print(f"\n{failures} of {len(workloads) * len(metrics)} rows exceed their bound.")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
