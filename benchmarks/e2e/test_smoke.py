"""Smoke test of the benchmark itself: ``pytest benchmarks/e2e`` (not tier-1).

Every workload runs at ``--rounds 3``; the tests check the contract of the
output, not its speed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Per-layer values that must repeat bit for bit for one seed.
EXACT = re.compile(
    r"core\.(steps_per_query|scan_rows|shuffle_bytes|morsels_drained|join_build_rows"
    r"|join_dispatch_radix|\w+_sim_ms)|mpi\.(\w+_per_query|sim_phase_\w+)|sloc\..+"
)


@lru_cache(maxsize=None)
def run(workload: str, trace: int, repeat: int = 0, seed: int = 2021) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--rounds", "3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,declared", [(0, "end_to_end"), (1, "per_layer")])
def test_emits_exactly_the_declared_metrics(workload, trace, declared):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[declared]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(NAME.fullmatch(name) for name in got)
    if declared == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_simulated_time_and_exact_counts_repeat(workload):
    first, second = run(workload, 0), run(workload, 0, repeat=1)
    sim = "sim_ms_per_round"
    assert first["metrics"][sim]["value"] == second["metrics"][sim]["value"]
    first, second = run(workload, 1), run(workload, 1, repeat=1)
    exact = [name for name in first["metrics"] if EXACT.fullmatch(name)]
    assert len(exact) > 30
    for name in exact:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_another_seed_gives_other_inputs():
    base, other = run("tpch_direct_r1", 0), run("tpch_direct_r1", 0, seed=7)
    sim = "sim_ms_per_round"
    assert base["metrics"][sim]["value"] != other["metrics"][sim]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_loads_and_children_stay_inside_parents(workload):
    result = run(workload, 1)
    events = json.loads((HERE / "out" / f"trace_{workload}.json").read_text())["traceEvents"]
    by_id = {e["args"]["id"]: e for e in events}
    children = [e for e in events if e["args"]["parent"]]
    assert children
    slack = 1e-3  # microseconds; float rounding of the export
    for child in children:
        parent = by_id[child["args"]["parent"]]
        assert child["args"]["query"] == parent["args"]["query"]
        assert child["ts"] >= parent["ts"] - slack
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + slack
    # Child spans account for the query span within 5 %.
    assert result["metrics"]["observability.span_coverage"]["value"] >= 0.95
    assert result["metrics"]["observability.traced_overhead_ratio"]["value"] > 0


def test_serving_metrics_are_zero_on_direct_workloads():
    for workload in WORKLOADS:
        metrics = run(workload, 1)["metrics"]
        serving = [m["value"] for name, m in metrics.items() if name.startswith("serving.")]
        if workload == "tpch_served_r4":
            assert metrics["serving.submit_ms"]["value"] > 0
        else:
            assert not any(serving)
