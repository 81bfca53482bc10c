"""Radix join kernel: dispatch, bit-identity, and the zero-copy data plane.

Three layers of coverage for PR 7:

* kernel mechanics — eligibility heuristic, fan-out selection, the
  two-pass scatter matching the single-pass table, the hard range cap,
  and the key -> row table of a unique build;
* bit-identity — pinned cells of the differential oracle: radix and
  sorted-hash give the same rows in the same order (and the scalar probe
  the reference's rows) for all four probe policies under negative keys,
  heavy duplicates, Zipf skew and keys past the hard cap;
* the zero-copy columnar plane — ``RowVector.concat`` re-merges adjacent
  slice views without copying, ``RowVectorBuilder.extend_vector`` bulk
  appends, and ``LocalPartitioning``/``MpiExchange`` emit partitions as
  views of one scattered region.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.options import RunOptions
from repro.core.context import ExecutionContext
from repro.core.executor import execute
from repro.core.functions import RadixPartition
from repro.core.lockstep import Lockstep, steps
from repro.core.kernels import hash_join, radix_join, scatter
from repro.core.kernels.hash_join import (
    HashJoinBuild,
    HashJoinSpec,
    outer_tail,
    probe_morsel,
)
from repro.core.kernels.radix_join import (
    DENSITY_MULTIPLE,
    HARD_RANGE_CAP,
    PASS_RANGE,
    RADIX_MIN_ROWS,
    RadixJoinBuild,
    radix_eligible,
    radix_fanout,
    radix_probe_morsel,
    select_join_kernel,
)
from repro.core.operators import (
    BuildProbe,
    LocalHistogram,
    LocalPartitioning,
    ParameterLookup,
    ParameterSlot,
    RowScan,
)
from repro.core.operator import join_output_type
from repro.core.operators.build_probe import JOIN_TYPES
from repro.errors import ExecutionError
from repro.observability.metrics import MetricsRegistry
from repro.types import INT64, RowVector, TupleType, row_vector_type
from repro.types.collections import RowVectorBuilder

from tests.conftest import table_source
from tests.test_oracle import Cell, bulk_case, check

L = TupleType.of(key=INT64, lpay=INT64)
R = TupleType.of(key=INT64, rpay=INT64)
KV = TupleType.of(key=INT64, value=INT64)


def vector_of(rows, schema=KV):
    return RowVector.from_rows(schema, rows)


def scan_of(table, ctx):
    return RowScan(table_source(table, ctx), field="t")


class TestKernelMechanics:
    def test_eligibility_dense_build(self):
        n = RADIX_MIN_ROWS
        assert radix_eligible(n, 0, n - 1)

    def test_eligibility_rejects_small_build(self):
        # Below the floor only the density rule admits a build: a sparse
        # one-pass span is sorted-hash's.
        assert not radix_eligible(RADIX_MIN_ROWS - 1, 0, PASS_RANGE - 1)
        assert radix_eligible(RADIX_MIN_ROWS, 0, PASS_RANGE - 1)

    def test_eligibility_takes_dense_builds_of_any_size(self):
        for n in (1, 2, 64, RADIX_MIN_ROWS - 1):
            assert radix_eligible(n, 0, DENSITY_MULTIPLE * n - 1)
            assert not radix_eligible(n, 0, DENSITY_MULTIPLE * n)

    def test_eligibility_rejects_sparse_range(self):
        n = RADIX_MIN_ROWS
        assert not radix_eligible(n, 0, 100 * n)

    def test_forced_accepts_sparse_within_cap(self):
        assert radix_eligible(10, 0, HARD_RANGE_CAP - 1, forced=True)

    def test_hard_cap_binds_even_forced(self):
        assert not radix_eligible(10, 0, HARD_RANGE_CAP, forced=True)
        assert not radix_eligible(10, -(2**62), 2**62, forced=True)

    def test_fanout_covers_span(self):
        for span in (PASS_RANGE + 1, 3 * PASS_RANGE, HARD_RANGE_CAP):
            shift, fanout = radix_fanout(span)
            assert fanout * (1 << shift) >= span
            assert (fanout - 1) * (1 << shift) < span
            assert (1 << shift) <= PASS_RANGE

    def test_from_rows_rejects_range_beyond_cap(self):
        left = vector_of([(0, 0), (HARD_RANGE_CAP, 1)], L)
        with pytest.raises(ValueError):
            RadixJoinBuild.from_rows(left, "key")

    def test_two_pass_scatter_matches_single_pass_table(self):
        # Span just above one pass forces the two-level scatter; the
        # resulting (order, starts) must equal a direct stable sort.
        rng = np.random.default_rng(3)
        keys = rng.integers(-PASS_RANGE, 2 * PASS_RANGE, 5000)
        left = vector_of([(int(k), i) for i, k in enumerate(keys)], L)
        build = RadixJoinBuild.from_rows(left, "key")
        rebased = keys - keys.min()
        assert build.order.tolist() == np.argsort(
            rebased, kind="stable"
        ).tolist()
        counts = np.bincount(rebased, minlength=int(rebased.max()) + 1)
        assert build.starts.tolist() == np.concatenate(
            ([0], np.cumsum(counts))
        ).tolist()

    def test_select_kernel_labels(self):
        dense = vector_of([(i % 64, i) for i in range(RADIX_MIN_ROWS)], L)
        assert select_join_kernel("auto", dense, "key")[0] == "radix"
        assert select_join_kernel("sorted", dense, "key")[0] == "kernel"
        small = vector_of([(0, 0), (1000, 1)], L)
        assert select_join_kernel("auto", small, "key")[0] == "kernel"
        assert select_join_kernel("radix", small, "key")[0] == "radix"
        # Forced radix still bows to the hard memory cap.
        wide = vector_of([(-(2**62), 0), (2**62, 1)], L)
        assert select_join_kernel("radix", wide, "key")[0] == "kernel"

    def test_probe_matches_sorted_hash_kernel(self):
        rng = np.random.default_rng(11)
        left = vector_of(
            [(int(k), i) for i, k in enumerate(rng.integers(-40, 40, 500))], L
        )
        right = vector_of(
            [(int(k), i) for i, k in enumerate(rng.integers(-40, 40, 300))], R
        )
        spec = HashJoinSpec(
            join_type="inner",
            output_type=TupleType.of(key=INT64, lpay=INT64, rpay=INT64),
            key="key",
            left_rest_pos=(1,),
            right_rest_pos=(1,),
            right_type=R,
            outer_fill=0,
        )
        radix = radix_probe_morsel(RadixJoinBuild.from_rows(left, "key"), right, spec)
        sorted_hash = probe_morsel(HashJoinBuild.from_rows(left, "key"), right, spec)
        assert radix == sorted_hash


def spec_for(join_type):
    return HashJoinSpec(
        join_type=join_type,
        output_type=join_output_type(L, R, ("key",), join_type),
        key="key",
        left_rest_pos=(1,),
        right_rest_pos=(1,),
        right_type=R,
        outer_fill=0,
    )


class TestUniqueKeyTable:
    """A build whose keys are unique and span one pass is a key -> row table.

    Every probe morsel, and the left_outer tail, must equal the sorted-hash
    kernel's rows in the same order under all four policies."""

    @staticmethod
    def assert_matches_sorted_hash(build_keys, morsels):
        left = RowVector(L, [np.asarray(build_keys, np.int64),
                             np.arange(len(build_keys), dtype=np.int64)])
        probes = [RowVector(R, [np.asarray(keys, np.int64),
                                -np.arange(len(keys), dtype=np.int64)])
                  for keys in morsels]
        for join_type in JOIN_TYPES:
            spec = spec_for(join_type)
            radix = RadixJoinBuild.from_rows(left, "key")
            hashed = HashJoinBuild.from_rows(left, "key")
            for right in probes:
                assert radix_probe_morsel(radix, right, spec) == probe_morsel(
                    hashed, right, spec
                ), join_type
            if join_type == "left_outer":
                assert outer_tail(radix, spec) == outer_tail(hashed, spec)
        return radix

    def test_out_of_range_and_negative_probe_keys(self):
        build = [-5, 7, -1, 3, 12, 0]
        probe = [-6, -5, 13, 12, 1, -(2**63), 2**63 - 1, 3, 3, -1, 100]
        radix = self.assert_matches_sorted_hash(build, [probe, probe[::-1]])
        assert radix.rows is not None and radix.starts is None

    def test_extreme_build_keys_wrap_nothing_into_range(self):
        # ``key - kmin`` wraps for probe keys far below an int64-top range.
        top = 2**63 - 1
        self.assert_matches_sorted_hash(
            [top, top - 3, top - 9], [[top, -(2**63), -(2**63) + 2, 5, top - 3]]
        )

    def test_empty_probe_morsel_and_one_row_build(self):
        self.assert_matches_sorted_hash([42], [[], [42, 41, 43, 42], []])

    def test_span_of_exactly_one_pass_is_a_table(self):
        build = [0, PASS_RANGE - 1, 17, 1000]
        radix = self.assert_matches_sorted_hash(
            build, [[PASS_RANGE - 1, PASS_RANGE, -1, 17, 18, 0]]
        )
        assert radix.rows is not None and len(radix.rows) == PASS_RANGE + 1

    def test_span_past_one_pass_keeps_the_two_pass_scatter(self):
        build = [0, PASS_RANGE, 17, 1000]
        radix = self.assert_matches_sorted_hash(
            build, [[PASS_RANGE, PASS_RANGE + 1, -1, 17, 18, 0]]
        )
        assert radix.rows is None and len(radix.starts) == PASS_RANGE + 2

    def test_keys_with_a_duplicate_keep_the_runs(self):
        radix = self.assert_matches_sorted_hash([4, 9, 4, -2], [[4, 9, -2, 5, 4]])
        assert radix.rows is None and radix.starts is not None

    @pytest.fixture
    def passed_through(self, monkeypatch):
        """Per radix probe morsel: did it take the full-hit pass-through?
        (A semi / anti probe of runs emits through ``emit_existence``.)"""
        taken = []
        real, real_existence = radix_join.emit_probe_hits, radix_join.emit_existence

        def recorded(build, right, spec, hit_pos, hit_right):
            taken.append(isinstance(hit_right, slice))
            return real(build, right, spec, hit_pos, hit_right)

        def recorded_existence(right, spec, has_hit):
            taken.append(isinstance(has_hit, slice))
            return real_existence(right, spec, has_hit)

        monkeypatch.setattr(radix_join, "emit_probe_hits", recorded)
        monkeypatch.setattr(radix_join, "emit_existence", recorded_existence)
        return taken

    def test_a_fully_hit_morsel_passes_through(self, passed_through):
        build = [7, -3, 12, 0, 5, 9]
        radix = self.assert_matches_sorted_hash(build, [[5, 7, 5, -3, 12, 12, 0, 9], [9]])
        assert radix.order is None
        assert passed_through == [True] * 8  # two morsels under four policies

    def test_all_but_one_key_hits(self, passed_through):
        build = [7, -3, 12, 0, 5, 9]
        self.assert_matches_sorted_hash(build, [[5, 7, 5, -3, 13, 12, 0, 9], [8], [6, 0]])
        assert passed_through == [False] * 12

    def test_an_empty_morsel_passes_through(self, passed_through):
        self.assert_matches_sorted_hash([4, 2], [[], [2, 4, 4]])
        assert passed_through == [True] * 8

    def test_a_duplicate_build_never_passes_through(self, passed_through):
        radix = self.assert_matches_sorted_hash([4, 2, 4, 3], [[2, 4, 3, 4], [3]])
        assert radix.rows is None and radix.order is not None
        assert passed_through == [False] * 8

    def test_a_fully_hit_inner_morsel_shares_the_probe_columns(self):
        left = RowVector(L, [np.array([3, 1, 2, 0]), np.arange(4)])
        right = RowVector(R, [np.array([2, 2, 0, 3, 1]), np.arange(5) * 10])
        out = radix_probe_morsel(RadixJoinBuild.from_rows(left, "key"), right, spec_for("inner"))
        assert out.column("key").tolist() == [2, 2, 0, 3, 1]
        assert out.column("lpay").tolist() == [2, 2, 3, 0, 1]
        assert np.shares_memory(out.column("key"), right.column("key"))
        assert np.shares_memory(out.column("rpay"), right.column("rpay"))

    @pytest.mark.parametrize("keys, sorts", [([3, 1, 2, 0, 9], 0), ([3, 1, 2, 1, 9], 1)],
                             ids=["unique", "one-duplicate"])
    def test_only_a_duplicate_sorts(self, monkeypatch, keys, sorts):
        calls = []
        real = scatter.stable_order
        monkeypatch.setattr(scatter, "stable_order",
                            lambda *args: calls.append(args) or real(*args))
        RadixJoinBuild.from_rows(vector_of([(k, i) for i, k in enumerate(keys)], L), "key")
        assert len(calls) == sorts

    @pytest.mark.parametrize("keys, tables, counts, bincounts", [
        ([3, 1, 2, 0, 9], 1, 0, 0), ([3, 1, 2, 1, 9], 1, 1, 1), ([5, 5, 5], 0, 0, 0),
        ([0, 2, 3, 7, 9], 1, 0, 0), ([4, 5, 4, 6, 5], 0, 1, 1), ([1, 2, 2, 5, 9], 0, 0, 0),
        ([40, 1, 3, 0], 1, 0, 0), ([40, 1, 40, 0], 1, 1, 1),
    ], ids=["unique", "one-duplicate", "one-key", "ascending-unique", "more-rows-than-span",
            "ascending-with-a-tie", "sparse-unique", "sparse-duplicate"])
    def test_a_single_pass_build_counts_its_keys_once(
        self, monkeypatch, keys, tables, counts, bincounts
    ):
        # A unique build proves itself unique from its one table, uncounted;
        # a repeat found there, or more rows than the span, counts once; a
        # repeat between sorted neighbours keeps neither table nor runs.
        made, counted, binned = [], [], []
        real_full, real_counts, real_bincount = np.full, scatter.bucket_counts, np.bincount
        monkeypatch.setattr(np, "full",
                            lambda *args, **kw: made.append(args) or real_full(*args, **kw))
        monkeypatch.setattr(scatter, "bucket_counts",
                            lambda *args: counted.append(args) or real_counts(*args))
        monkeypatch.setattr(np, "bincount",
                            lambda *args, **kw: binned.append(args) or real_bincount(*args, **kw))
        build = RadixJoinBuild.from_rows(vector_of([(k, i) for i, k in enumerate(keys)], L), "key")
        assert (len(made), len(counted), len(binned)) == (tables, counts, bincounts)
        assert (build.rows is None) == bool(counts or not tables)
        assert (build.starts is None) == (not counts)


class TestBitIdentity:
    """Radix vs sorted-hash vs the scalar probe: pinned cells of the
    differential oracle (``tests/test_oracle.py``), whose kernel relation
    demands bit-identical rows and simulated time across kernels and whose
    reference holds the scalar probe to the same rows."""

    @staticmethod
    def check_all_policies(left_rows, right_rows, cell):
        left, right = vector_of(left_rows, L), vector_of(right_rows, R)
        for join_type in JOIN_TYPES:
            case = bulk_case(
                "join", left, right, join_type=join_type, compression=False
            )
            check(case, cell)
            check(case, replace(cell, mode="interpreted"))

    def test_negative_keys_all_policies(self):
        rows = [(k % 17 - 8, k * 37 % 2001 - 1000) for k in range(60)]
        cell = Cell(ranks=2, join_kernel="radix", morsel_rows=7)
        self.check_all_policies(rows, rows[::-3], cell)

    def test_heavy_duplicates(self):
        left, right = [(i % 3, i) for i in range(40)], [(i % 4, -i) for i in range(40)]
        self.check_all_policies(left, right, Cell(ranks=3, join_kernel="radix"))

    def test_zipf_skew(self):
        rng = np.random.default_rng(7)
        left = [(int(k), i) for i, k in enumerate(rng.zipf(1.3, 120) % 512)]
        right = [(int(k), -i) for i, k in enumerate(rng.zipf(1.3, 90) % 512)]
        self.check_all_policies(left, right, Cell(ranks=2, join_kernel="sorted"))

    def test_degenerate_extreme_keys(self):
        # Forced radix on astronomically sparse keys must fall back to the
        # sorted-hash kernel (hard cap), never overflow or allocate.
        for key in (-(2**62), 2**62):
            rows = [(key, i) for i in range(5)]
            cell = Cell(join_kernel="radix", morsel_rows=1)
            self.check_all_policies(rows, rows[:2], cell)


class TestDispatchMetric:
    def _run_metered(self, n_rows, join_kernel, stride=1):
        ctx = ExecutionContext(options=RunOptions(join_kernel=join_kernel, metrics=True))
        left = vector_of([(i % 64 * stride, i) for i in range(n_rows)], L)
        right = vector_of([(i % 64, -i) for i in range(128)], R)
        bp = BuildProbe(scan_of(left, ctx), scan_of(right, ctx), keys="key")
        report = execute(bp, ctx=ctx)
        return report.metrics

    def test_auto_dispatches_radix_on_dense_build(self):
        snapshot = self._run_metered(RADIX_MIN_ROWS, "auto")
        assert snapshot.total("join_dispatch", path="radix") == 1
        assert snapshot.total("join_dispatch", path="kernel") == 0

    def test_auto_keeps_sorted_hash_on_small_build(self):
        # 64 rows over a span of 63,001 keys: too sparse for the density
        # rule and below the floor of the one-pass allowance.
        snapshot = self._run_metered(64, "auto", stride=1000)
        assert snapshot.total("join_dispatch", path="kernel") == 1
        assert snapshot.total("join_dispatch", path="radix") == 0

    def test_sorted_pin_wins_over_heuristic(self):
        snapshot = self._run_metered(RADIX_MIN_ROWS, "sorted")
        assert snapshot.total("join_dispatch", path="kernel") == 1


def lane_scan(tables, ctxs):
    """One scan over the lanes of ``ctxs``, each reading its own table."""
    slot = ParameterSlot(TupleType.of(t=row_vector_type(tables[0].element_type)))
    for ctx, table in zip(ctxs, tables):
        ctx.push_parameter(slot.id, (table,))
    return RowScan(ParameterLookup(slot), field="t")


def walk_lanes(join_kernel, join_type, left_keys, right_keys):
    """One ``BuildProbe`` walked in lockstep, lane ``i`` building on
    ``left_keys[i]`` (payloads from ``50 * i``) and probing ``right_keys[i]``:
    ⟨each lane's output morsels, clocks, ⟨join_dispatch, join_build_rows⟩⟩."""
    lefts = [vector_of([(k, 50 * lane + i) for i, k in enumerate(keys)], L)
             for lane, keys in enumerate(left_keys)]
    rights = [vector_of([(k, -1 - i) for i, k in enumerate(keys)], R) for keys in right_keys]
    ctxs = [ExecutionContext(options=RunOptions(join_kernel=join_kernel),
                             registry=MetricsRegistry()) for _ in lefts]
    bp = BuildProbe(lane_scan(lefts, ctxs), lane_scan(rights, ctxs),
                    keys="key", join_type=join_type)
    outs = [[] for _ in ctxs]
    for step in steps(bp, Lockstep(ctxs)):
        for lane, part in zip(step.lanes, step.parts):
            outs[lane].append(part)
    snapshots = [ctx.registry.snapshot() for ctx in ctxs]
    counts = [(snap.by_label("join_dispatch", "path"), snap.total("join_build_rows"))
              for snap in snapshots]
    return outs, [ctx.clock.now for ctx in ctxs], counts


class TestSharedBuild:
    """Lanes of one lockstep step whose join keys are equal share one build.

    Lanes 0 and 2 hold equal keys under different payloads, lane 1 other
    keys; every lane must emit its own rows, charge its own clock and count
    its own dispatch exactly as when every lane builds its own table."""

    RIGHTS = ([1, 9, 2, 3, 3, 6], [7, 8, 0, 2], [4, 5, 1, 10])

    def walk(self, join_kernel, join_type, twin_keys):
        return walk_lanes(join_kernel, join_type, (twin_keys, [2, 7, 11], twin_keys), self.RIGHTS)

    @pytest.fixture
    def made(self, monkeypatch):
        """Builds constructed, of either kernel."""
        made = []
        for kernel in (RadixJoinBuild, HashJoinBuild):
            real = kernel.from_codes.__func__
            monkeypatch.setattr(kernel, "from_codes", classmethod(
                lambda cls, *args, real=real: made.append(cls) or real(cls, *args)))
        return made

    @pytest.mark.parametrize("twin_keys", [[3, 1, 4, 0, 5, 9], [3, 1, 4, 1, 5, 9]],
                             ids=["unique", "repeated"])
    @pytest.mark.parametrize("join_type", JOIN_TYPES)
    @pytest.mark.parametrize("join_kernel", ["radix", "sorted"])
    def test_twin_lanes_share_and_match_their_own_builds(
        self, monkeypatch, made, join_kernel, join_type, twin_keys
    ):
        shared = self.walk(join_kernel, join_type, twin_keys)
        assert len(made) == 2
        monkeypatch.setattr(radix_join, "twin_build", lambda build, left: None)
        assert shared == self.walk(join_kernel, join_type, twin_keys)
        assert len(made) == 2 + 3
        if join_type in ("inner", "left_outer"):
            lane2 = RowVector.concat(spec_for(join_type).output_type, shared[0][2])
            assert len(lane2) and lane2.column("lpay").min() >= 100

    def test_twin_left_outer_lanes_keep_their_own_tails(self):
        outs, _, _ = self.walk("radix", "left_outer", [3, 1, 4, 0, 5, 9])
        tails = []
        for lane in (0, 2):
            out = RowVector.concat(spec_for("left_outer").output_type, outs[lane])
            tails.append(sorted(out.column("lpay")[out.column("rpay") == 0].tolist()))
        # Lane 0 probes keys 1, 9, 3 and lane 2 keys 4, 5, 1.
        assert tails == [[2, 3, 4], [100, 103, 105]]


class TestSortedRuns:
    """A build whose keys never decrease but repeat keeps no run table: its
    keys are searched.  Each lane's rows, clock and join counters must equal
    the counted walk's (``SORTED_RUNS = False``) under every policy."""

    CASES = {
        # Negative build keys; probe keys below, inside and above the range.
        "negative-keys": ([-9, -4, -4, -1, 0, 0, 0, 3],
                          [-10, -4, 0, 4, 3, -(2**63), 2**63 - 1, -9, -2, 0]),
        "one-row": ([6], [6, 5, 7, 6]),
        "all-duplicate": ([2, 2, 2, 2, 2], [2, 1, 3, 2]),
        "more-rows-than-span": ([0, 0, 1, 1, 1, 2, 2, 3, 3], [3, 0, 2, -1, 4, 1]),
    }

    @pytest.fixture
    def searched(self, monkeypatch):
        """Per radix build made: does it keep neither a table nor runs?"""
        searched = []
        real = RadixJoinBuild.from_codes.__func__

        def recorded(cls, *args):
            build = real(cls, *args)
            searched.append(build.rows is None and build.starts is None)
            return build

        monkeypatch.setattr(RadixJoinBuild, "from_codes", classmethod(recorded))
        return searched

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("join_type", JOIN_TYPES)
    def test_lanes_match_the_counted_walk(self, monkeypatch, searched, join_type, case):
        build, probe = self.CASES[case]
        # Lanes 0 and 2 are twins sharing one build; lane 1 builds its own.
        lefts, rights = (build, [1, 1, 4, 8], build), (probe, [8, 1, 0, 4], probe[::-1])
        walked = walk_lanes("radix", join_type, lefts, rights)
        assert searched == [len(build) > 1, True]
        monkeypatch.setattr(radix_join, "SORTED_RUNS", False)
        assert walked == walk_lanes("radix", join_type, lefts, rights)
        assert searched[2:] == [False, False]
        assert [dispatch for dispatch, _ in walked[2]] == [{"radix": 1}] * 3

    @pytest.mark.parametrize("case", CASES)
    def test_kernel_matches_sorted_hash(self, case):
        build, probe = self.CASES[case]
        radix = TestUniqueKeyTable.assert_matches_sorted_hash(build, [probe, probe[::-1], []])
        assert radix.order is None and radix.starts is None

class TestExistenceProbes:
    """A semi / anti probe of runs asks only whether a key's run is empty:
    on sorted runs one bisection and one equality gather, on counted runs
    ``counts > 0``.  Its rows must equal the sorted-hash kernel's and the
    reference's on hostile probe morsels."""

    BUILDS = {
        # Sorted with repeats at both ends: searched, or counted into runs.
        "sorted-runs": ([-9, -4, -4, -1, 0, 0, 0, 3, 3], True),
        "counted-sorted": ([-9, -4, -4, -1, 0, 0, 0, 3, 3], False),
        "counted-unsorted": ([0, 3, -4, -9, 0, -1, 3, -4, 0], True),
    }
    PROBES = {
        "empty": [],
        "all-hit-duplicates": [-9, -4, -4, 0, 3, 3, 0, -9, -1],
        "all-miss": [-10, -3, 1, 2, 4, 100, -8],
        "out-of-range": [-(2**63), 2**63 - 1, -10, 4, -9, 3, -(2**63) + 1],
    }

    @staticmethod
    def reference(build_keys, probe_keys, join_type):
        present = set(build_keys)
        return [(k, -i) for i, k in enumerate(probe_keys)
                if (k in present) == (join_type == "semi")]

    @pytest.mark.parametrize("probe", PROBES)
    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize("join_type", ["semi", "anti"])
    def test_rows_equal_the_sorted_hash_kernel_and_the_reference(
        self, monkeypatch, join_type, build, probe
    ):
        build_keys, searched = self.BUILDS[build]
        monkeypatch.setattr(radix_join, "SORTED_RUNS", searched)
        left = RowVector(L, [np.array(build_keys, np.int64),
                             np.arange(len(build_keys), dtype=np.int64)])
        radix = RadixJoinBuild.from_rows(left, "key")
        assert radix.rows is None and (radix.starts is None) == (build == "sorted-runs")
        keys = self.PROBES[probe]
        right = RowVector(R, [np.array(keys, np.int64), -np.arange(len(keys), dtype=np.int64)])
        spec = spec_for(join_type)
        out = radix_probe_morsel(radix, right, spec)
        assert out == probe_morsel(HashJoinBuild.from_rows(left, "key"), right, spec)
        assert list(out.iter_rows()) == self.reference(build_keys, keys, join_type)


class TestHashCollisions:
    """Distinct keys with one ``mix_hash`` share a run of the sorted-hash
    build; a probe reads the run's end from the build and must still split
    the run by key under every policy."""

    @staticmethod
    def colliding(n):
        """``n`` distinct int64 keys with one hash: ``k + d·M⁻¹ (mod 2^64)``
        multiplies to ``k·M + d``, the same hash while the low 33 bits of
        ``k·M`` do not carry."""
        m = int(hash_join._HASH_MULTIPLIER)
        base = next(k for k in range(1, 1000) if (k * m) % (1 << 64) % (1 << 33) < (1 << 33) - n)
        keys = [(base + d * pow(m, -1, 1 << 64)) % (1 << 64) for d in range(n)]
        return [k - (1 << 64) if k >= 1 << 63 else k for k in keys]

    def test_every_policy_splits_a_shared_hash_run(self):
        a, b, c, d = self.colliding(4)
        assert len({a, b, c, d}) == 4
        assert len(set(hash_join.mix_hash(np.array([a, b, c, d])).tolist())) == 1
        build_keys = [a, 5, b, a, c, 5, 7]
        # d shares the run but is absent; 6 has a hash of its own, absent.
        probe_keys = [b, d, a, 6, 5, c, d, a]
        left = RowVector(L, [np.array(build_keys, np.int64),
                             np.arange(len(build_keys), dtype=np.int64)])
        right = RowVector(R, [np.array(probe_keys, np.int64),
                              -np.arange(len(probe_keys), dtype=np.int64)])
        for join_type in JOIN_TYPES:
            spec = spec_for(join_type)
            build = HashJoinBuild.from_rows(left, "key")
            rows = list(probe_morsel(build, right, spec).iter_rows())
            if join_type in ("semi", "anti"):
                expected = TestExistenceProbes.reference(build_keys, probe_keys, join_type)
            else:
                expected = [(k, j, -i) for i, k in enumerate(probe_keys)
                            for j, key in enumerate(build_keys) if key == k]
            assert rows == expected, join_type
            if join_type == "left_outer":
                assert list(outer_tail(build, spec).iter_rows()) == [
                    (key, j, 0) for j, key in enumerate(build_keys) if key not in probe_keys
                ]

    def test_an_empty_build_matches_nothing(self):
        left = RowVector(L, [np.zeros(0, np.int64), np.zeros(0, np.int64)])
        right = RowVector(R, [np.array([0, 3, -1], np.int64), np.arange(3, dtype=np.int64)])
        build = HashJoinBuild.from_rows(left, "key")
        assert len(probe_morsel(build, right, spec_for("inner"))) == 0
        assert len(probe_morsel(build, right, spec_for("anti"))) == 3


class TestZeroCopyPlane:
    def test_concat_remerges_adjacent_slices_without_copy(self):
        parent = vector_of([(i, i * 2) for i in range(100)])
        parts = [parent.slice(0, 40), parent.slice(40, 75), parent.slice(75, 100)]
        merged = RowVector.concat(KV, parts)
        assert merged == parent
        for merged_col, parent_col in zip(merged.columns, parent.columns):
            assert np.shares_memory(merged_col, parent_col)

    def test_concat_copies_on_gap_or_foreign_parts(self):
        parent = vector_of([(i, i * 2) for i in range(100)])
        gap = RowVector.concat(KV, [parent.slice(0, 40), parent.slice(50, 100)])
        assert len(gap) == 90
        assert not np.shares_memory(gap.columns[0], parent.columns[0])
        other = vector_of([(7, 7)])
        mixed = RowVector.concat(KV, [parent.slice(0, 10), other])
        assert len(mixed) == 11

    def test_builder_extend_vector_bulk_and_interleaved(self):
        builder = RowVectorBuilder(KV)
        builder.append((1, 10))
        builder.extend_vector(vector_of([(2, 20), (3, 30)]))
        builder.append((4, 40))
        builder.extend_vector(RowVector.empty(KV))
        assert len(builder) == 4
        assert list(builder.finish().iter_rows()) == [
            (1, 10), (2, 20), (3, 30), (4, 40)
        ]

    def test_builder_extend_vector_type_checked(self):
        from repro.errors import TypeCheckError

        builder = RowVectorBuilder(KV)
        with pytest.raises(TypeCheckError):
            builder.extend_vector(vector_of([(1, 1)], L))

    def test_local_partitioning_emits_views_of_one_region(self):
        ctx = ExecutionContext()
        table = vector_of([(i % 4, i) for i in range(64)])
        fn = RadixPartition("key", 4)
        data = scan_of(table, ctx)
        hist = LocalHistogram(scan_of(table, ctx), fn)
        lp = LocalPartitioning(data, hist, fn)
        (batch,) = list(lp.stream_batches(ctx))
        pids = batch.columns[0].tolist()
        assert pids == [0, 1, 2, 3]
        partitions = list(batch.columns[1])
        base = partitions[0].columns[0].base
        assert base is not None
        for part in partitions:
            assert len(part) == 16
            # Every partition is a zero-copy slice of the same scattered
            # region, not a per-partition copy.
            assert part.columns[0].base is base

    def test_histogram_reader_skips_empty_batches_before_min(self):
        from repro.core.lockstep import Lockstep, Step
        from repro.core.operators.local_histogram import read_histograms

        class EmptyThenCounts:
            output_type = TupleType.of(bucket=INT64, count=INT64)

            def lanes(self, lx):
                for batch in (
                    RowVector.empty(self.output_type),
                    vector_of([(0, 3), (1, 2)], self.output_type),
                ):
                    yield Step((0,), [batch])

        counts = read_histograms(Lockstep([ExecutionContext()]), EmptyThenCounts(), 2)
        assert counts.tolist() == [[3, 2]]

    def test_histogram_reader_rejects_out_of_range_bucket(self):
        from repro.core.lockstep import Lockstep, Step
        from repro.core.operators.local_histogram import read_histograms

        class BadBucket:
            output_type = TupleType.of(bucket=INT64, count=INT64)

            def lanes(self, lx):
                yield Step((0,), [vector_of([(5, 1)], self.output_type)])

        with pytest.raises(ExecutionError):
            read_histograms(Lockstep([ExecutionContext()]), BadBucket(), 2)


class TestMemoryAccounting:
    """``materialized_bytes`` counts owned storage, not zero-copy views."""

    def _materialize_scan(self, morsel_rows):
        from repro.core.operators import MaterializeRowVector

        ctx = ExecutionContext(options=RunOptions(morsel_rows=morsel_rows, metrics=True))
        table = vector_of([(i, i * 2) for i in range(1 << 13)])
        plan = MaterializeRowVector(scan_of(table, ctx))
        report = execute(plan, ctx=ctx)
        return table, report.metrics

    def test_view_remerge_accounts_zero_bytes(self):
        # Morsels smaller than the table force the builder to re-merge
        # slice views; the result is a view of the scanned table, so no
        # new resident bytes exist to count.
        table, snap = self._materialize_scan(morsel_rows=512)
        assert table.size_bytes() > 0
        assert snap.total("materialized_bytes") == 0
        assert snap.total("rowvector_peak_bytes") == 0

    def test_owned_vector_accounts_full_size(self):
        parent = vector_of([(i, i) for i in range(32)])
        assert parent.owned_bytes() == parent.size_bytes()
        view = parent.slice(4, 20)
        assert view.size_bytes() == 16 * parent.element_type.row_size_bytes()
        assert view.owned_bytes() == 0


class TestMorselAutoTuning:
    def test_explicit_setting_pins_size(self):
        ctx = ExecutionContext(options=RunOptions(morsel_rows=123))
        assert ctx.morsel_rows_for(KV) == 123

    def test_auto_scales_inversely_with_row_width(self):
        ctx = ExecutionContext()
        narrow = ctx.morsel_rows_for(KV)
        wide_type = TupleType.of(**{f"c{i}": INT64 for i in range(256)})
        wide = ctx.morsel_rows_for(wide_type)
        assert wide < narrow
        budget = ctx.cost.machine.l3_cache_bytes // 2
        assert wide == max(1 << 10, min(1 << 16, budget // wide_type.row_size_bytes()))

    def test_unknown_join_kernel_rejected(self):
        with pytest.raises(ExecutionError):
            ExecutionContext(options=RunOptions(join_kernel="simd"))
