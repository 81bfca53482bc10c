"""Tests for the shared --format option and the profile/analyze commands."""

import json

import pytest

from repro.cli import build_parser, main


class TestSharedFormatOption:
    @pytest.mark.parametrize(
        "argv",
        (
            ["bench", "micro", "--format", "json"],
            ["tpch", "--query", "12", "--format", "json"],
            ["join", "--format", "json"],
            ["explain", "--query", "4", "--format", "json"],
            ["profile", "tpch", "--format", "json"],
            ["lint", "all", "--format", "json"],
            ["slo", "--format", "json"],
            ["metrics", "tpch", "--format", "json"],
        ),
    )
    def test_every_subcommand_accepts_format(self, argv):
        assert build_parser().parse_args(argv).format == "json"

    def test_format_defaults_to_text(self):
        assert build_parser().parse_args(["tpch", "--query", "4"]).format == "text"

    def test_bad_format_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tpch", "--query", "4", "--format", "xml"])


class TestJsonOutputs:
    def test_tpch_json(self, capsys):
        code = main(
            ["tpch", "--query", "12", "--sf", "0.005", "--machines", "2",
             "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["query"] == 12
        assert payload["columns"][0] == "l_shipmode"
        assert len(payload["rows"]) == 2
        assert payload["simulated_time"] > 0
        assert payload["phases"]

    def test_join_json(self, capsys):
        code = main(
            ["join", "--log2-tuples", "10", "--machines", "2", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matches"] == 1 << 10
        assert payload["slowdown"] > 0

    def test_bench_json(self, capsys):
        code = main(["bench", "micro", "--format", "json"])
        assert code == 0
        (table,) = json.loads(capsys.readouterr().out)
        assert "microbenchmark" in table["title"]
        assert table["rows"]

    def test_explain_json_with_analyze(self, capsys):
        code = main(
            ["explain", "--query", "12", "--sf", "0.005", "--analyze",
             "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "Join" in payload["logical"]
        assert "MpiExecutor" in payload["physical"]
        assert payload["strategy"] == "exchange"
        assert payload["local_fanout"] == 1
        assert payload["analyze"]["plan"]["rows_out"] == 1


class TestExplainAnalyze:
    def test_text_tree_annotated(self, capsys):
        code = main(["explain", "--query", "12", "--sf", "0.005", "--analyze"])
        assert code == 0
        out = capsys.readouterr().out
        assert "=== EXPLAIN ANALYZE ===" in out
        assert "MpiExchange" in out
        assert "rows=" in out and "self=" in out

    def test_without_analyze_does_not_execute(self, capsys):
        code = main(["explain", "--query", "12", "--sf", "0.005"])
        assert code == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" not in out
        assert "(strategy=exchange, local_fanout=1)" in out


class TestProfileCommand:
    def test_profile_join_text(self, capsys):
        code = main(
            ["profile", "join", "--log2-tuples", "10", "--machines", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in out
        assert "cluster trace: 2 ranks" in out
        assert "simulated total:" in out

    def test_profile_groupby_json(self, capsys):
        code = main(
            ["profile", "groupby", "--log2-tuples", "10", "--machines", "2",
             "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "groupby 2^10"
        assert payload["profile"]["spans"] > 0

    def test_profile_chrome_out(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        code = main(
            ["profile", "join", "--log2-tuples", "10", "--machines", "2",
             "--chrome-out", str(out_file)]
        )
        assert code == 0
        assert f"chrome trace: {out_file}" in capsys.readouterr().out
        payload = json.loads(out_file.read_text())
        cats = {e.get("cat") for e in payload["traceEvents"] if e.get("ph") == "X"}
        assert cats == {"operator", "substrate"}

    def test_profile_tpch_json(self, capsys):
        code = main(
            ["profile", "tpch", "--query", "4", "--sf", "0.005",
             "--machines", "2", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"].startswith("tpch q4")
        assert payload["output_rows"] == 1


class TestMetricsCommand:
    def test_metrics_groupby_text_is_prometheus(self, capsys):
        code = main(
            ["metrics", "groupby", "--log2-tuples", "10", "--machines", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_operator_rows_out counter" in out
        assert "repro_comm_put_bytes_total{scope=" in out
        assert "simulated total:" in out

    def test_metrics_tpch_json(self, capsys):
        code = main(
            ["metrics", "tpch", "--query", "12", "--sf", "0.005",
             "--machines", "2", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"].startswith("tpch q12")
        names = {s["name"] for s in payload["metrics"]["samples"]}
        assert {"operator_rows_out", "shuffle_bytes", "comm_put_bytes"} <= names
        assert payload["metrics"]["per_rank"].keys() == {"0", "1"}
        assert payload["advisories"] == []

    def test_metrics_advisory_threshold_flag(self, capsys):
        code = main(
            ["metrics", "join", "--log2-tuples", "10", "--machines", "2",
             "--shuffle-amplification-factor", "0.01", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [d["rule"] for d in payload["advisories"]] == ["MOD040"]


class TestChaosJson:
    def test_chaos_summary_is_json_clean(self, capsys):
        code = main(
            ["chaos", "groupby", "--seeds", "2", "--machines", "2",
             "--log2-tuples", "10", "--format", "json"]
        )
        assert code == 0
        raw = capsys.readouterr().out
        payload = json.loads(raw)
        # Fully JSON-clean: a dump/load round trip reproduces the payload
        # (no numpy scalars or other leaky types anywhere).
        assert json.loads(json.dumps(payload)) == payload
        summary = payload["summary"]
        assert summary["targets"] == ["groupby"]
        assert summary["modes"] == ["fused"]
        assert summary["seed_first"] == 2021
        assert summary["seed_last"] == 2022
        assert summary["machines"] == 2
        assert summary["policy"]["put_drop_rate"] == 0.1
        assert summary["soaks"] == len(payload["soaks"]) == 2
        assert summary["failures"] == payload["failures"] == 0
        assert summary["ok"] == 2


class TestSloCommand:
    def test_slo_text_reports_quantiles(self, capsys):
        code = main(
            ["slo", "--queries", "6", "--sf", "0.002",
             "--target", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SLO: target 10s simulated" in out
        assert "p50=" in out and "p99=" in out
        assert "-> ok" in out

    def test_slo_json_burns_on_tight_target(self, capsys):
        code = main(
            ["slo", "--queries", "6", "--sf", "0.002",
             "--target", "1e-9", "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["journal_errors"] == []
        burned = sum(t["burned"] for t in payload["slo"]["tenants"])
        assert burned == payload["queries"]


class TestServeArtifacts:
    def test_serve_exports_chrome_and_journals(self, tmp_path, capsys):
        chrome = tmp_path / "trace.json"
        journals = tmp_path / "journals.json"
        code = main(
            ["serve", "--queries", "4", "--sf", "0.002",
             "--chrome-out", str(chrome), "--journal-out", str(journals),
             "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["journal_errors"] == []
        assert payload["artifacts"]["chrome_out"] == str(chrome)
        trace = json.loads(chrome.read_text())
        assert len(trace["traceEvents"]) == payload["artifacts"]["chrome_events"]
        journal_list = json.loads(journals.read_text())
        assert len(journal_list) == payload["artifacts"]["journals"]
        assert all(j["terminal"] for j in journal_list)
        assert all("wall_seconds" in j for j in journal_list)

    def test_serve_matrix_merges_artifacts(self, tmp_path, capsys):
        chrome = tmp_path / "matrix.json"
        journals = tmp_path / "journals.json"
        code = main(
            ["serve", "--matrix", "--queries", "3", "--sf", "0.002",
             "--chrome-out", str(chrome), "--journal-out", str(journals),
             "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        trace = json.loads(chrome.read_text())
        # Matrix profiles stack at distinct pid strides in one file.
        assert {e["pid"] // 1000 for e in trace["traceEvents"]} >= {0, 1}
        journal_map = json.loads(journals.read_text())
        assert isinstance(journal_map, dict)
        for profile, entries in journal_map.items():
            assert entries, profile


class TestRetiredBenchStack:
    @pytest.mark.parametrize("experiment", ("record", "compare"))
    def test_bench_record_and_compare_are_usage_errors(self, experiment, capsys):
        # Regressions are gated by BENCHMARK.json (benchmarks/e2e), not by
        # a recorded history.
        with pytest.raises(SystemExit) as exc:
            main(["bench", experiment])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
