"""Unit tests for the synthetic workload generators and the target catalogue."""

import numpy as np
import pytest

from repro.errors import ModularisError
from repro.core.options import RunOptions
from repro.workloads import (
    make_cascade_relations,
    make_groupby_table,
    make_join_relations,
)
from repro.relational import frames_match
from repro.workloads.targets import ALL_TARGETS, BUILTIN_TARGETS, resolve


class TestJoinWorkload:
    def test_dense_keys_and_one_to_one(self):
        workload = make_join_relations(256)
        assert sorted(workload.left.column("key")) == list(range(256))
        assert sorted(workload.right.column("key")) == list(range(256))
        assert workload.expected_matches == 256

    def test_key_bits_cover_all_values(self):
        workload = make_join_relations(300)
        bound = 1 << workload.key_bits
        for side in (workload.left, workload.right):
            assert side.column("key").max() < bound
            assert side.column("lpay" if "lpay" in side.element_type else "rpay").max() < bound

    def test_right_copies_grow_matches(self):
        workload = make_join_relations(64, right_copies=3)
        assert len(workload.right) == 192
        assert workload.expected_matches == 192

    def test_deterministic(self):
        a = make_join_relations(64, seed=5)
        b = make_join_relations(64, seed=5)
        assert a.left == b.left and a.right == b.right

    def test_shuffled(self):
        workload = make_join_relations(256, seed=1)
        assert workload.left.column("key").tolist() != list(range(256))

    def test_rejects_empty(self):
        with pytest.raises(ModularisError):
            make_join_relations(0)


class TestCascadeWorkload:
    def test_relation_count_and_sizes(self):
        relations, expected = make_cascade_relations(4, 128)
        assert len(relations) == 4
        assert all(len(r) == 128 for r in relations)
        assert expected == 128

    def test_distinct_payload_names(self):
        relations, _ = make_cascade_relations(3, 16)
        names = [f for r in relations for f in r.element_type.field_names if f != "key"]
        assert len(names) == len(set(names))

    def test_match_multiplier_keeps_input_sizes(self):
        relations, expected = make_cascade_relations(3, 128, match_multiplier=4)
        assert all(len(r) == 128 for r in relations)
        assert expected == 512

    def test_multiplier_must_divide(self):
        with pytest.raises(ModularisError, match="divide"):
            make_cascade_relations(3, 100, match_multiplier=3)

    def test_needs_three(self):
        with pytest.raises(ModularisError):
            make_cascade_relations(2, 16)


class TestGroupByWorkload:
    def test_group_structure(self):
        workload = make_groupby_table(256, duplicates_per_key=4)
        assert workload.n_groups == 64
        counts = np.bincount(workload.table.column("key"))
        assert (counts == 4).all()

    def test_expected_sums_reference(self):
        workload = make_groupby_table(64, duplicates_per_key=2, seed=3)
        sums = workload.expected_sums()
        keys = workload.table.column("key").tolist()
        values = workload.table.column("value").tolist()
        manual: dict[int, int] = {}
        for k, v in zip(keys, values):
            manual[k] = manual.get(k, 0) + v
        assert sums == manual

    def test_values_fit_key_bits(self):
        workload = make_groupby_table(512, duplicates_per_key=1)
        bound = 1 << workload.key_bits
        assert workload.table.column("key").max() < bound
        assert workload.table.column("value").max() < bound

    def test_duplicates_must_divide(self):
        with pytest.raises(ModularisError, match="divide"):
            make_groupby_table(100, duplicates_per_key=3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ModularisError):
            make_groupby_table(0)
        with pytest.raises(ModularisError):
            make_groupby_table(10, duplicates_per_key=0)


class TestTargetCatalogue:
    @pytest.mark.parametrize("name", ALL_TARGETS)
    def test_every_target_runs_to_its_known_answer(self, name):
        target = resolve(name, 2, log2_tuples=8, sf=0.002)
        names, columns = target.columns(target.run(RunOptions()))
        assert len(names) == len(columns) > 0
        if name in BUILTIN_TARGETS:
            # Dense keys, 1-on-1 correspondence: every key exactly once.
            assert sorted(columns[names.index("key")]) == list(range(256))
            assert {len(c) for c in columns} == {256}
            return
        from repro.relational import run_logical_plan
        from repro.tpch import ALL_QUERIES, load_catalog

        reference = run_logical_plan(
            ALL_QUERIES[int(name[1:])]().plan, load_catalog(scale_factor=0.002)
        )
        assert frames_match(reference, (names, columns), tolerance=1e-6)

    def test_query_is_lowered_per_run_with_the_run_options(self):
        from repro.faults import FaultPolicy

        target = resolve("q14", 2, sf=0.002, strategy="broadcast")
        plain = target.columns(target.run(RunOptions()))
        assert target.planner_choice() == {"strategy": "broadcast"}
        pressured = target.columns(
            target.run(RunOptions(faults=FaultPolicy(memory_pressure=True)))
        )
        assert target.planner_choice() == {
            "strategy": "exchange", "degraded_from": "broadcast",
        }
        assert not frames_match(plain, ([], []))
        assert frames_match(plain, pressured)

    def test_unknown_names_are_rejected(self):
        for name in ("nonsense", "q2"):
            with pytest.raises(ValueError, match=name):
                resolve(name, 2)
