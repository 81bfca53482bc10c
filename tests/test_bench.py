"""Tests for the benchmark harness: tables, SLOC counting, experiments, smoke gates."""

import copy

import pytest

from repro.bench.harness import ResultTable, Row
from repro.bench.sloc import (
    JOIN_PLAN_OPERATORS,
    PLATFORM_OPERATORS,
    module_sloc,
    operator_sloc_table,
)


class TestResultTable:
    def test_add_and_column(self):
        table = ResultTable("t", ("x",), ("y",))
        table.add({"x": 1}, {"y": 2.0})
        table.add({"x": 2}, {"y": 4.0})
        assert table.column("x") == [1, 2]
        assert table.column("y") == [2.0, 4.0]

    def test_render_contains_headers_and_values(self):
        table = ResultTable("My title", ("cfg",), ("metric",))
        table.add({"cfg": "fast"}, {"metric": 1.25})
        text = table.render()
        assert "My title" in text
        assert "cfg" in text and "metric" in text
        assert "fast" in text and "1.25" in text

    def test_render_empty(self):
        table = ResultTable("empty", ("a",), ("b",))
        assert "empty" in table.render()

    def test_row_get(self):
        row = Row({"a": 1}, {"b": 2.0})
        assert row.get("a") == 1 and row.get("b") == 2.0


class TestSloc:
    def test_counts_code_not_docs(self):
        import repro.bench.sloc as sloc_module

        # The module itself has a long docstring; SLOC excludes it.
        total_lines = len(open(sloc_module.__file__).read().splitlines())
        assert 0 < module_sloc(sloc_module) < total_lines

    def test_operator_table_complete(self):
        rows = operator_sloc_table()
        assert {r.abbreviation for r in rows} == set(JOIN_PLAN_OPERATORS)
        assert all(r.sloc > 0 for r in rows)

    def test_exchange_is_largest(self):
        rows = {r.abbreviation: r.sloc for r in operator_sloc_table()}
        assert rows["EX"] == max(rows.values())

    def test_platform_operators_subset(self):
        assert set(PLATFORM_OPERATORS) <= set(JOIN_PLAN_OPERATORS)


class TestExperimentsSmoke:
    """Fast smoke runs of every experiment at tiny scale."""

    def test_fig6(self):
        from repro.bench.experiments import Fig6Config, run_fig6

        breakdown, totals = run_fig6(
            Fig6Config(n_tuples=1 << 12, machines=(2, 4), breakdown_machines=(4,))
        )
        assert len(totals.rows) == 2
        assert len(breakdown.rows) == 3

    def test_fig7(self):
        from repro.bench.experiments import Fig7Config, run_fig7

        left, right = run_fig7(
            Fig7Config(n_tuples=1 << 12, machines=(2,), cardinalities=(1, 2))
        )
        assert len(left.rows) == 1
        assert len(right.rows) == 2

    def test_fig8(self):
        from repro.bench.experiments import Fig8Config, run_fig8

        a, bc, d = run_fig8(
            Fig8Config(
                n_tuples=1 << 10,
                machines=(2,),
                output_scales=(1, 2),
                join_counts=(2,),
                sweep_machines=2,
            )
        )
        assert len(a.rows) == 1 and len(bc.rows) == 2 and len(d.rows) == 1

    def test_fig9(self):
        from repro.bench.experiments import Fig9Config, run_fig9

        table = run_fig9(Fig9Config(scale_factor=0.005, machines=2))
        assert table.column("query") == ["Q4", "Q12", "Q14", "Q19"]
        assert all(r > 1 for r in table.column("presto_vs_modularis"))

    def test_micro(self):
        from repro.bench.experiments import MicroConfig, run_micro

        table = run_micro(MicroConfig(n_integers=1 << 14))
        ratios = dict(zip(table.column("mode"), table.column("vs_raw")))
        assert ratios["interpreted"] > ratios["fused"] > ratios["raw_loop"]

    def test_table1(self):
        from repro.bench.experiments import run_table1

        per_op, summary = run_table1()
        assert len(per_op.rows) == 16
        assert len(summary.rows) >= 5

    def test_broadcast_crossover(self):
        from repro.bench.experiments import BroadcastConfig, run_broadcast_crossover

        table = run_broadcast_crossover(
            BroadcastConfig(big_rows=1 << 12, small_fractions=(0.1, 2.0), machines=2)
        )
        speedups = table.column("broadcast_speedup")
        assert speedups[0] > speedups[1]

    def test_scaleout(self):
        from repro.bench.experiments import ScalingConfig, run_scaleout

        table = run_scaleout(ScalingConfig(n_tuples=1 << 12, machines=(2, 4)))
        assert table.column("speedup")[0] == 1.0
        assert table.column("efficiency")[1] < 1.0

    def test_skew(self):
        from repro.bench.experiments import SkewConfig, run_skew

        table = run_skew(
            SkewConfig(n_tuples=1 << 12, machines=4, head_fractions=(0.0, 0.75))
        )
        imbalance = table.column("imbalance")
        assert imbalance[1] > imbalance[0]


class TestSmokeGates:
    """``make bench-smoke``: the gate table and one tiny end-to-end run."""

    #: A report every gate passes, shaped like ``run_smoke``'s.
    PASSING = {
        "profiler": {"profiled_overhead": 0.3, "identical": True},
        "faults": {"armed_overhead": -0.02, "identical": True},
        "sanitizer": {
            "sanitized_overhead": 1.2,
            "identical": True,
            "tpch": {"q4": {"identical": True, "clean": True}},
        },
        "serving": {"armed_overhead": 0.049},
        "join_kernels": {
            "uniform": {"speedup": 0.9, "identical": True},
            "skewed": {"speedup": 2.0, "identical": True},
        },
    }

    def test_passing_report_has_no_failures(self):
        from repro.bench.smoke import gate_failures

        assert gate_failures(self.PASSING) == []

    def test_each_gate_trips_past_its_bound(self):
        from repro.bench.smoke import GATES, gate_failures

        assert len(GATES) == 3
        for path, relation, bound, _ in GATES:
            report = copy.deepcopy(self.PASSING)
            *parents, leaf = path.split(".")
            section = report
            for key in parents:
                section = section[key]
            section[leaf] = bound - 0.01 if relation == ">=" else bound + 0.01
            (failure,) = gate_failures(report)
            assert failure.startswith(path), failure

    @pytest.mark.parametrize(
        "path",
        (
            "profiler.identical",
            "faults.identical",
            "sanitizer.tpch.q4.clean",
            "join_kernels.uniform.identical",
        ),
    )
    def test_a_false_result_flag_fails_the_run(self, path):
        from repro.bench.smoke import gate_failures

        report = copy.deepcopy(self.PASSING)
        *parents, leaf = path.split(".")
        section = report
        for key in parents:
            section = section[key]
        section[leaf] = False
        (failure,) = gate_failures(report)
        assert failure.startswith(path), failure

    def test_run_smoke_reports_every_gated_number(self):
        from repro.bench.smoke import GATES, gate_failures, run_smoke

        report = run_smoke(
            micro_integers=1 << 10,
            groupby_log2_tuples=8,
            machines=2,
            repeats=1,
            tpch_sf=0.002,
            join_build_rows=1 << 8,
            join_probe_rows=1 << 10,
        )
        assert set(report) == {
            "profiler", "faults", "sanitizer", "join_kernels", "serving",
        }
        # Wall-clock ratios at these sizes are noise; what must hold is
        # that every gated path resolves and every result flag is true.
        noise = tuple(path for path, *_ in GATES)
        assert [f for f in gate_failures(report) if not f.startswith(noise)] == []
        assert set(report["sanitizer"]["tpch"]) == {"q4", "q12", "q14", "q19"}
        assert {"uniform", "skewed", "sorted_runs"} <= set(report["join_kernels"])
        assert report["faults"]["n_tuples"] == 256
