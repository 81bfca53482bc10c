"""The ``repro lint`` subcommand: target resolution, formats, exit codes."""

import json
import textwrap
from pathlib import Path

from repro.cli import main

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

BAD_PLAN_FILE = textwrap.dedent(
    """\
    from repro.core.operators import (
        MaterializeChunks,
        MaterializeRowVector,
        ParameterLookup,
        ParameterSlot,
        RowScan,
    )
    from repro.types import INT64, TupleType

    KV = TupleType.of(key=INT64, value=INT64)


    def lint_plans():
        # A RowScan built over a RowVector, then rewired onto the chunked
        # collection format (as a plan rewrite could): broken at runtime --
        # the analyzer flags it as MOD003.
        source = ParameterLookup(ParameterSlot(KV))
        scan = RowScan(MaterializeRowVector(source), field="data")
        scan.upstreams = (MaterializeChunks(source, chunk_rows=4),)
        yield "bad", scan
    """
)

GOOD_PLAN_FILE = textwrap.dedent(
    """\
    from repro.core.operators import MaterializeRowVector, ParameterLookup, ParameterSlot
    from repro.types import INT64, TupleType


    def lint_plans():
        source = ParameterLookup(ParameterSlot(TupleType.of(key=INT64)))
        yield "good", MaterializeRowVector(source)
    """
)


#: Its second plan cannot be *built*: RowScan's type rule refuses the
#: chunked format, so ``lint_plans()`` raises after yielding the first.
UNBUILDABLE_PLAN_FILE = textwrap.dedent(
    """\
    from repro.core.operators import (
        MaterializeChunks,
        MaterializeRowVector,
        ParameterLookup,
        ParameterSlot,
        RowScan,
    )
    from repro.types import INT64, TupleType


    def lint_plans():
        source = ParameterLookup(ParameterSlot(TupleType.of(key=INT64)))
        yield "fine", MaterializeRowVector(source)
        yield "never", RowScan(MaterializeChunks(source, chunk_rows=4), field="data")
    """
)


class TestBuiltinTargets:
    def test_all_builtin_plans_lint_clean(self, capsys):
        assert main(["lint", "all"]) == 0
        out = capsys.readouterr().out
        assert "checked 5 plan(s): 0 error(s)" in out

    def test_single_builtin_target(self, capsys):
        assert main(["lint", "join", "--machines", "4"]) == 0
        assert "checked 1 plan(s): 0 error(s)" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert main(["lint", "all", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plans"] == 5
        for entry in payload["diagnostics"]:
            assert entry.keys() == {
                "rule", "name", "severity", "message", "path", "operator"
            }
            assert entry["severity"] in ("info", "warning")


class TestFileTargets:
    def test_bad_plan_file_fails(self, tmp_path, capsys):
        target = tmp_path / "broken_pipeline.py"
        target.write_text(BAD_PLAN_FILE)
        assert main(["lint", str(target)]) == 1
        out = capsys.readouterr().out
        assert "MOD003" in out
        assert "broken_pipeline.py:bad" in out
        assert "1 error(s)" in out

    def test_directory_target_skips_private_files(self, tmp_path, capsys):
        (tmp_path / "good.py").write_text(GOOD_PLAN_FILE)
        (tmp_path / "_helper.py").write_text(BAD_PLAN_FILE)
        (tmp_path / "no_hook.py").write_text("X = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "checked 1 plan(s): 0 error(s)" in capsys.readouterr().out

    def test_suppress_flag_silences_a_rule(self, tmp_path, capsys):
        target = tmp_path / "broken_pipeline.py"
        target.write_text(BAD_PLAN_FILE)
        assert main(["lint", str(target), "--suppress", "MOD003"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_plan_that_cannot_be_built_is_one_diagnostic(self, tmp_path, capsys):
        (tmp_path / "a_unbuildable.py").write_text(UNBUILDABLE_PLAN_FILE)
        (tmp_path / "b_good.py").write_text(GOOD_PLAN_FILE)
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        payload = json.loads(captured.out)
        # The plan yielded before the failure and the next file still lint.
        assert payload["plans"] == 2
        (finding,) = payload["diagnostics"]
        assert finding["rule"] == "MOD003" and finding["severity"] == "error"
        assert finding["path"] == "a_unbuildable.py:lint_plans()[1]"
        assert "ChunkedRowVector" in finding["message"]

    def test_empty_directory_warns(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path)]) == 0
        assert "no plans found" in capsys.readouterr().err


class TestErrors:
    def test_unknown_target_exits_2(self, capsys):
        assert main(["lint", "no-such-plan"]) == 2
        err = capsys.readouterr().err
        assert "unknown lint target" in err

    def test_unknown_suppress_rule_exits_2(self, capsys):
        assert main(["lint", "all", "--suppress", "MOD999"]) == 2
        assert "unknown rules" in capsys.readouterr().err

    def test_examples_directory_lints_clean(self, capsys):
        # The shipped examples expose lint_plans() hooks; the tree must
        # stay lint-clean (this is what CI's `make lint` runs).
        assert main(["lint", str(EXAMPLES_DIR)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out
        assert "checked 0" not in out  # the hooks must actually be found
