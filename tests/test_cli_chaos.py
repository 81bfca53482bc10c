"""The ``repro chaos`` / ``repro sanitize`` CLIs: soaks from the shell."""

import json

import pytest

from repro.cli import main


class TestChaosCommand:
    def test_builtin_soak_reports_ok(self, capsys):
        rc = main(
            [
                "chaos", "join",
                "--seeds", "1",
                "--log2-tuples", "9",
                "--machines", "2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "OK" in out
        assert "join" in out

    def test_json_format_is_machine_readable(self, capsys):
        rc = main(
            [
                "chaos", "groupby",
                "--seeds", "1",
                "--log2-tuples", "9",
                "--machines", "2",
                "--drop-rate", "0.5",
                "--collective-drop-rate", "0.3",
                "--format", "json",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        payload = json.loads(out)
        assert payload["failures"] == 0
        (soak,) = payload["soaks"]
        assert soak["target"] == "groupby"
        assert soak["ok"] is True
        assert any(k.startswith("fault:") for k in soak["faults"]), soak

    def test_crash_soak_recovers_and_passes(self, capsys):
        rc = main(
            [
                "chaos", "join",
                "--seeds", "1",
                "--log2-tuples", "9",
                "--machines", "2",
                "--drop-rate", "0",
                "--collective-drop-rate", "0",
                "--crash-rank", "1",
                "--crash-after", "3",
                "--format", "json",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        (soak,) = json.loads(out)["soaks"]
        assert soak["ok"] is True
        assert soak["faults"].get("fault:crash") == 1
        assert soak["faults"].get("recovery:stage_retry") == 1

    def test_unknown_target_is_a_usage_error(self, capsys):
        rc = main(["chaos", "nonsense"])
        assert rc == 2
        assert "nonsense" in capsys.readouterr().err

    def test_malformed_straggler_spec_is_a_usage_error(self, capsys):
        # Each flag set is refused before any soak runs (exit 2, not the
        # exit 1 of a diverged soak): a malformed spec, a fault on a rank
        # outside the default 4-machine cluster (it would never fire), and
        # policy values out of range.
        for flags, needle in (
            (["--straggler", "fast"], "straggler"),
            (["--crash-rank", "9"], "rank 9 is outside"),
            (["--straggler", "7:4"], "rank 7 is outside"),
            (["--straggler", "2:0.5"], "slowdown must be >= 1"),
            (["--drop-rate", "1.5"], "put_drop_rate must be in"),
            (["--crash-rank", "-1"], "crash rank must be >= 0"),
        ):
            rc = main(["chaos", "join", "--seeds", "1", *flags])
            err = capsys.readouterr().err
            assert rc == 2, flags
            assert err.startswith("error:") and needle in err.lower(), (flags, err)

    def test_straggler_policy_is_json_clean(self, capsys):
        rc = main(
            [
                "chaos", "join",
                "--seeds", "1",
                "--log2-tuples", "9",
                "--machines", "2",
                "--straggler", "1:3.0",
                "--format", "json",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        payload = json.loads(out)
        assert payload["summary"]["policy"]["stragglers"] == [[1, 3.0]]
        (soak,) = payload["soaks"]
        assert soak["faults"].get("fault:straggler", 0) >= 1

    def test_all_expands_in_catalogue_order_without_duplicates(self):
        from repro.workloads.matrix import expand_targets
        from repro.workloads.targets import ALL_TARGETS

        expanded = expand_targets(["q4", "all", "join"], "chaos")
        assert expanded[0] == "q4"
        assert expanded[1:] == [t for t in ALL_TARGETS if t != "q4"]


class TestSanitizeCommand:
    TINY = ["--log2-tuples", "8", "--machines", "2", "--sf", "0.002"]

    def test_text_soak_reports_every_cell(self, capsys):
        rc = main(
            ["sanitize", "join", "q14", "--policies", "none", "transient",
             *self.TINY]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        rows = [line for line in out.splitlines() if line.startswith("OK ")]
        assert [row.split()[1:3] for row in rows] == [
            ["join", "policy=none"], ["join", "policy=transient"],
            ["q14", "policy=none"], ["q14", "policy=transient"],
        ]
        assert all("puts" in row and "windows" in row for row in rows)
        assert "sanitize soak: 4/4 clean and bit-identical" in out

    def test_json_carries_reports_and_the_planner_choice(self, capsys):
        rc = main(
            ["sanitize", "groupby", "q14", "--policies", "pressure",
             "--strategy", "broadcast", "--format", "json", *self.TINY]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        payload = json.loads(out)
        assert payload["summary"] == {
            "targets": ["groupby", "q14"],
            "policies": ["pressure"],
            "soaks": 2,
            "ok": 2,
            "failures": 0,
        }
        groupby, q14 = payload["soaks"]
        assert groupby["policy"] == q14["policy"] == "pressure"
        assert groupby["identical"] and groupby["sanitizer"]["replayed"]
        assert "strategy" not in groupby
        # Memory pressure degrades the broadcast join at planning time.
        assert q14["strategy"] == "exchange"
        assert q14["degraded_from"] == "broadcast"

    @pytest.mark.parametrize("fmt", ("text", "json"))
    def test_sanitizer_error_is_a_failed_row_not_a_crash(
        self, fmt, capsys, monkeypatch
    ):
        from repro.analysis.sanitizer import SanitizerError, _diagnostic
        from repro.workloads.targets import Target

        plain_run = Target.run

        def run(self, options):
            if options.sanitize:
                raise SanitizerError(_diagnostic("MOD050", None, "injected race"))
            return plain_run(self, options)

        monkeypatch.setattr(Target, "run", run)
        rc = main(
            ["sanitize", "join", "--policies", "none", "--format", fmt,
             *self.TINY]
        )
        captured = capsys.readouterr()
        assert rc == 1
        if fmt == "json":
            (soak,) = json.loads(captured.out)["soaks"]
            assert soak["ok"] is False and soak["identical"] is False
            assert soak["sanitizer"] is None and soak["simulated_time"] is None
            assert "injected race" in soak["error"]
        else:
            assert captured.out.startswith("FAIL join")
            assert "injected race" in captured.out
            assert "ERROR: 1 soak(s)" in captured.err

    def test_unknown_target_is_a_usage_error(self, capsys):
        rc = main(["sanitize", "nonsense"])
        assert rc == 2
        assert "nonsense" in capsys.readouterr().err
