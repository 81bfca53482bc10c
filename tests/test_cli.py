"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_choices(self):
        args = build_parser().parse_args(["bench", "fig7", "--n-tuples", "1024"])
        assert args.experiment == "fig7"
        assert args.n_tuples == 1024

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "fig99"])

    def test_tpch_defaults(self):
        args = build_parser().parse_args(["tpch", "--query", "12"])
        assert args.sf == 0.02 and args.machines == 8
        assert args.strategy == "exchange"

    def test_unknown_query_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tpch", "--query", "7"])

    def test_non_positive_machines_and_scale_factor_are_usage_errors(self, capsys):
        for argv in (
            ["tpch", "--query", "12", "--machines", "0"],
            ["tpch", "--query", "12", "--sf", "0"],
            ["join", "--machines", "0"],
            ["serve", "--queries", "4", "--machines", "0"],
            ["slo", "--machines", "0"],
            ["sanitize", "all", "--machines", "0"],
            ["profile", "tpch", "--machines", "-2"],
            ["metrics", "tpch", "--machines", "0"],
            ["explain", "--query", "12", "--machines", "0"],
            ["chaos", "join", "--machines", "0"],
        ):
            with pytest.raises(SystemExit) as exc_info:
                main(argv)
            assert exc_info.value.code == 2, argv
            assert "must be positive" in capsys.readouterr().err, argv

    @pytest.mark.parametrize(
        "argv",
        (
            ["chaos", "join", "--seeds", "0"],
            ["serve", "--queries", "0"],
            ["slo", "--queries", "0"],
        ),
        ids=("chaos-seeds", "serve-queries", "slo-queries"),
    )
    def test_counts_must_be_positive(self, argv, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("argv", "what"),
        (
            (["serve", "--retries", "-1"], "non-negative"),
            (["slo", "--retries", "-1"], "non-negative"),
            (["serve", "--cancel-every", "-2"], "non-negative"),
            (["serve", "--deadline", "-1"], "positive"),
            (["serve", "--slo-target", "-1"], "positive"),
            (["slo", "--target", "-1"], "positive"),
            (["serve", "--shed-threshold", "0"], "in (0, 1]"),
            (["slo", "--objective", "1.5"], "in (0, 1]"),
        ),
        ids=("serve-retries", "slo-retries", "serve-cancel-every",
             "serve-deadline", "serve-slo-target", "slo-target",
             "serve-shed-threshold", "slo-objective"),
    )
    def test_serving_knobs_are_checked_at_parse_time(self, argv, what, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        assert f"must be {what}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", (["chaos", "join"], ["sanitize", "join"],
                                         ["serve"], ["slo"]))
    def test_negative_seed_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([*command, "--seed", "-1"])
        assert exc_info.value.code == 2
        assert "must be non-negative" in capsys.readouterr().err

    def test_chaos_profile_choices_are_the_one_table(self):
        from repro.faults.policy import CHAOS_PROFILES

        (commands,) = [
            a.choices for a in build_parser()._actions if a.dest == "command"
        ]
        for command, flag in (
            ("serve", "--chaos"), ("slo", "--chaos"), ("sanitize", "--policies")
        ):
            (action,) = [
                a for a in commands[command]._actions if flag in a.option_strings
            ]
            assert tuple(action.choices) == CHAOS_PROFILES, command

    @pytest.mark.parametrize(
        "argv",
        (
            ["sanitize", "q14", "--policies", "degrade", "--machines", "1"],
            ["serve", "--chaos", "degrade", "--machines", "1"],
            ["slo", "--chaos", "degrade", "--machines", "1"],
        ),
        ids=("sanitize", "serve", "slo"),
    )
    def test_a_profile_the_cluster_cannot_heal_is_refused(self, argv, capsys):
        assert main(argv) == 2
        assert "needs a survivor" in capsys.readouterr().err


class TestCommands:
    def test_tpch_query_runs(self, capsys):
        code = main(["tpch", "--query", "12", "--sf", "0.005", "--machines", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "l_shipmode" in out
        assert "simulated=" in out

    def test_tpch_broadcast_strategy(self, capsys):
        code = main(
            ["tpch", "--query", "14", "--sf", "0.005", "--machines", "2",
             "--strategy", "broadcast"]
        )
        assert code == 0
        assert "strategy=broadcast" in capsys.readouterr().out

    def test_tpch_q1_extension(self, capsys):
        code = main(["tpch", "--query", "1", "--sf", "0.005", "--machines", "2"])
        assert code == 0
        assert "l_returnflag" in capsys.readouterr().out

    def test_join_command(self, capsys):
        code = main(["join", "--log2-tuples", "10", "--machines", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "slowdown" in out and "matches" in out

    def test_join_sortmerge(self, capsys):
        code = main(
            ["join", "--log2-tuples", "10", "--machines", "2",
             "--algorithm", "sortmerge", "--no-compression"]
        )
        assert code == 0

    def test_explain_command(self, capsys):
        code = main(["explain", "--query", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "logical plan" in out
        assert "MpiExecutor" in out

    def test_bench_micro(self, capsys):
        code = main(["bench", "micro"])
        assert code == 0
        assert "raw_loop" in capsys.readouterr().out

    def test_bench_table1(self, capsys):
        code = main(["bench", "table1"])
        assert code == 0
        assert "MpiExchange" in capsys.readouterr().out
