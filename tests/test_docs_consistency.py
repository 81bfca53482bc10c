"""Consistency checks between the documentation and the code base.

Documentation that names modules, files, and operators drifts unless
something checks it; these tests pin the load-bearing references.
"""

from __future__ import annotations

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text()


class TestReadme:
    def test_examples_table_matches_directory(self):
        text = read("README.md")
        listed = set(re.findall(r"\| `(\w+\.py)` \|", text))
        on_disk = {p.name for p in (ROOT / "examples").glob("*.py")}
        assert listed == on_disk

    def test_mentioned_benchmark_files_exist(self):
        text = read("README.md")
        for name in re.findall(r"`(test_\w+\.py)`", text):
            assert (ROOT / "benchmarks" / name).exists(), name

    def test_operator_list_is_importable(self):
        import repro.core.operators as ops

        text = read("README.md")
        block = text[text.index("19 sub-operators") :]
        block = block[: block.index(")")]
        for name in re.findall(r"[A-Z][A-Za-z]+", block):
            assert hasattr(ops, name), name


class TestRobustness:
    def test_profile_table_lists_the_code_names(self):
        from repro.faults.policy import CHAOS_PROFILES

        text = read("docs/robustness.md")
        section = text[text.index("## Chaos profiles") :]
        section = section[: section.index("\n## ", 1)]
        listed = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
        assert tuple(listed) == CHAOS_PROFILES


class TestDesign:
    def test_bench_targets_exist(self):
        text = read("DESIGN.md")
        for name in re.findall(r"`benchmarks/(test_\w+\.py)`", text):
            assert (ROOT / "benchmarks" / name).exists(), name

    def test_inventory_modules_import(self):
        import importlib

        text = read("DESIGN.md")
        modules = set(re.findall(r"`(repro(?:\.\w+)+)`", text))
        for name in modules:
            # Strip class-like tails such as repro.core.operators.* entries.
            if name.endswith(".*"):
                name = name[:-2]
            importlib.import_module(name)

    def test_experiment_ids_unique(self):
        text = read("DESIGN.md")
        ids = re.findall(r"^\| ([A-Z]\d+[a-zA-Z]*) \|", text, flags=re.MULTILINE)
        assert len(ids) == len(set(ids)), ids


class TestExperimentsFile:
    def test_regenerated_file_has_all_sections(self):
        text = read("EXPERIMENTS.md")
        for heading in (
            "Table 1",
            "microbenchmark",
            "Figure 6",
            "Figure 7",
            "Figure 8",
            "Figure 9",
            "broadcast join crossover",
            "strong scaling",
        ):
            assert heading in text, heading

    def test_claims_against_recorded_numbers(self):
        # The committed EXPERIMENTS.md must itself show the headline shapes.
        text = read("EXPERIMENTS.md")
        fig9 = text[text.index("Figure 9") :]
        ratios = re.findall(r"Q\d+\s+[\d.e-]+\s+[\d.e-]+\s+[\d.e-]+\s+([\d.]+)", fig9)
        assert ratios, "Figure 9 rows not found"
        assert all(4.0 <= float(r) <= 12.0 for r in ratios), ratios


class TestReadmeQuickstart:
    def test_quickstart_code_block_executes(self, capsys):
        """The README's quickstart block must run verbatim."""
        text = read("README.md")
        start = text.index("```python") + len("```python")
        end = text.index("```", start)
        code = text[start:end]
        # Shrink the workload so the docs test stays fast.
        code = code.replace("1 << 18", "1 << 12")
        namespace: dict = {}
        exec(compile(code, "README-quickstart", "exec"), namespace)
        out = capsys.readouterr().out
        assert "matches" in out
