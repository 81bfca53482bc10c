"""End-to-end benchmark: one workload per process, pinned to one CPU.

    python3 benchmarks/e2e/run.py --workload tpch_direct_r8 --seed 2021 \
        --seconds 18 --trace 0

``--trace 0`` times rounds of the workload with nothing recording and prints
the end-to-end metrics; ``--trace 1`` prints the per-layer metrics from a
traced pass (spans around every call into a layer, then a pass under the
program's own profiler) and writes ``out/trace_<workload>.json``.  The last
line of standard output is one JSON object; see ``README.md`` beside this
file for every metric and for why the benchmark is built this way.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from harness import Calibrator, Tally, Timed, set_up, timed_loop  # noqa: E402
from stats import median, percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: A run is this many epochs of (set up, measure).  ``setup_s`` takes the
#: median set-up, which leaves out the first one's first-touch page faults;
#: and the timed blocks see five memory layouts, not one lucky or unlucky one.
EPOCHS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_vs_reference": "ratio",
    "wall_vs_reference_p80": "ratio",
    "throughput_vs_reference": "ratio",
    "sim_ms_per_round": "sim_ms",
    "peak_rss_mb": "MB",
}


def pin_to_one_cpu() -> bool:
    """Rank threads are GIL-serialised, so a second core adds only convoy
    noise.  Keep going unpinned if the call is refused."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        return False
    return True


def end_to_end(workload, args, tally, calib, import_s) -> dict[str, float]:
    setups = []
    timed = Timed()
    for epoch in range(EPOCHS):
        if epoch:
            workload.teardown()
            gc.collect()
        setups.append(set_up(workload, args.seed, tally))
        timed_loop(workload, tally, calib, args.seconds / EPOCHS, args.rounds, into=timed)
    workload.teardown()
    return {
        "setup_s": import_s + median(setups),
        "wall_vs_reference": median(timed.ratios),
        "wall_vs_reference_p80": percentile(timed.ratios, 80),
        "throughput_vs_reference": median(timed.throughputs),
        "sim_ms_per_round": median(r.sim for r in timed.rounds if not r.failed) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the timed section measures")
    parser.add_argument("--rounds", type=int, default=0,
                        help="run exactly this many rounds per pass instead of "
                             "a time budget (smoke tests, exact-count checks)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    args = parser.parse_args(argv)

    # Both before numpy loads.  Whether a large buffer gets a huge page
    # depends on how fragmented the host's memory is at that moment, and it
    # moves the numpy reference by 10 % from one process to the next.
    os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")
    pinned = pin_to_one_cpu()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"nothing to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    import_s = time.perf_counter() - _PROCESS_START

    tally, calib = Tally(), Calibrator()
    if args.trace:
        import traced

        values = traced.per_layer(workload, args, tally, calib, pinned, HERE / "out")
        units = traced.units()
    else:
        values, units = end_to_end(workload, args, tally, calib, import_s), END_TO_END

    noisy = not pinned or calib.noisy()
    for name, value in values.items():
        print(f"{name:<44} {value:>16.6f} {units[name]}")
    print(f"attempted {tally.attempted}  failed {tally.failed}  noisy_host {str(noisy).lower()}")
    if noisy:
        print(f"WARNING: noisy host (pinned={pinned}, cpu_drift={calib.drift():.3f}); "
              f"metrics are reported unchanged", file=sys.stderr)
    for error in tally.errors[:10]:
        print(f"FAILED {error}", file=sys.stderr)
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
