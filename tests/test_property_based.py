"""Property-based tests (hypothesis) for the core invariants.

Each property pins one of the guarantees the paper's design depends on:
compression is lossless within its dense domain, partitioning preserves
multisets and never mixes partitions, and the probe and the fold equal
their nested-loop and dict references.  Whole plans against the reference,
in both execution modes, are the differential oracle's
(``tests/test_oracle.py``); the last classes are its pinned cells.
"""

from __future__ import annotations

import collections
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compression import RadixCompression
from repro.core.context import ExecutionContext
from repro.core.functions import (
    HashPartition,
    RadixPartition,
    field_sum,
)
from repro.core.operators import (
    BuildProbe,
    LocalHistogram,
    LocalPartitioning,
    ReduceByKey,
    RowScan,
)
from repro.core.operators.build_probe import JOIN_TYPES
from repro.core.options import MODES
from repro.types import INT64, RowVector, TupleType

from tests.conftest import table_source
from tests.test_oracle import Cell, bulk_case, check

KV = TupleType.of(key=INT64, value=INT64)
L = TupleType.of(key=INT64, lpay=INT64)
R = TupleType.of(key=INT64, rpay=INT64)

# Key/value domain kept inside 2**10 so every compression test fits P=10.
kv_rows = st.lists(
    st.tuples(st.integers(0, 1023), st.integers(0, 1023)), min_size=0, max_size=200
)


def vector_of(rows, schema=KV):
    return RowVector.from_rows(schema, rows)


def scan_of(table, ctx):
    return RowScan(table_source(table, ctx), field="t")


class TestCompressionProperties:
    @given(
        rows=kv_rows,
        fanout_bits=st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_roundtrip(self, rows, fanout_bits):
        comp = RadixCompression(key_bits=10, fanout_bits=fanout_bits)
        fanout = 1 << fanout_bits
        for key, payload in rows:
            packed = comp.pack(key, payload)
            assert comp.unpack(packed, key % fanout) == (key, payload)

    @given(rows=kv_rows)
    @settings(max_examples=30, deadline=None)
    def test_batch_pack_matches_scalar(self, rows):
        comp = RadixCompression(key_bits=10, fanout_bits=2)
        batch = vector_of(rows)
        packed = comp.pack_batch(batch)
        assert packed.column("packed").tolist() == [
            comp.pack(k, v) for k, v in rows
        ]


class TestPartitioningProperties:
    @given(rows=kv_rows, fanout_exp=st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_partition_multiset_and_placement(self, rows, fanout_exp):
        fanout = 1 << fanout_exp
        ctx = ExecutionContext()
        table = vector_of(rows)
        fn = RadixPartition("key", fanout)
        hist = LocalHistogram(scan_of(table, ctx), RadixPartition("key", fanout))
        parts = list(LocalPartitioning(scan_of(table, ctx), hist, fn).stream(ctx))
        assert [pid for pid, _ in parts] == list(range(fanout))
        everything = []
        for pid, data in parts:
            assert ((data.column("key") & (fanout - 1)) == pid).all() or len(data) == 0
            everything.extend(data.iter_rows())
        assert sorted(everything) == sorted(rows)

    @given(rows=kv_rows, n_parts=st.integers(1, 9), salt=st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_histogram_counts_every_tuple_once(self, rows, n_parts, salt):
        ctx = ExecutionContext()
        fn = HashPartition("key", n_parts, salt=salt)
        hist = LocalHistogram(scan_of(vector_of(rows), ctx), fn)
        counts = dict(hist.stream(ctx))
        assert sum(counts.values()) == len(rows)
        assert set(counts) == set(range(n_parts))


class TestOperatorAlgebra:
    @given(rows=kv_rows)
    @settings(max_examples=30, deadline=None)
    def test_reduce_by_key_equals_dict_fold(self, rows):
        ctx = ExecutionContext()
        table = vector_of(rows)
        got = dict(
            ReduceByKey(scan_of(table, ctx), "key", field_sum("value")).stream(ctx)
        )
        expected = collections.Counter()
        for k, v in rows:
            expected[k] += v
        assert got == dict(expected)

    @given(
        left_rows=st.lists(
            st.tuples(st.integers(0, 31), st.integers(0, 100)), max_size=80
        ),
        right_rows=st.lists(
            st.tuples(st.integers(0, 31), st.integers(0, 100)), max_size=80
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_build_probe_equals_nested_loop(self, left_rows, right_rows):
        ctx = ExecutionContext()
        bp = BuildProbe(
            scan_of(vector_of(left_rows, L), ctx),
            scan_of(vector_of(right_rows, R), ctx),
            keys="key",
        )
        got = sorted(bp.stream(ctx))
        expected = sorted(
            (rk, lv, rv)
            for rk, rv in right_rows
            for lk, lv in left_rows
            if lk == rk
        )
        assert got == expected

    def test_modes_observationally_equal(self):
        table = vector_of([(k % 13, k) for k in range(200)])
        case = bulk_case("groupby", table, key_bits=10)
        for mode in MODES:
            check(case, Cell(ranks=2, mode=mode, morsel_rows=7))


class TestDistributedProperties:
    """The distributed plans against the reference: pinned cells of the
    differential oracle (``tests/test_oracle.py``), which generates them."""

    def test_distributed_join_equals_reference(self):
        keys = [k * 7 % 256 for k in range(120)]
        left = vector_of([(k, k * 2) for k in sorted(set(keys))], L)
        right = vector_of([(k, k * 3) for k in keys], R)
        check(bulk_case("join", left, right, key_bits=10), Cell(ranks=4))

    def test_distributed_groupby_equals_reference(self):
        table = vector_of([(k % 64, k * 5 % 64) for k in range(150)])
        check(bulk_case("groupby", table, key_bits=10), Cell(ranks=2))


class TestFusedScalarEquivalence:
    """The vectorized kernels against the scalar paths, on the degenerate
    morsels they share: both modes are held to the reference rows."""

    def test_probe_policies_bit_identical(self):
        rows = [(k % 17 - 8, k * 37 % 2001 - 1000) for k in range(60)]
        for join_type, mode in itertools.product(JOIN_TYPES, MODES):
            case = bulk_case("join", vector_of(rows, L), vector_of(rows[::2], R),
                             join_type=join_type, compression=False)
            check(case, Cell(ranks=2, mode=mode, morsel_rows=7))

    def test_degenerate_morsels(self):
        # Empty, single-row, and all-duplicate-key inputs in one sweep:
        # every build row shares one key, morsels of one row each.
        shapes = itertools.product((0, 1, 5), (0, 5), JOIN_TYPES)
        for n_left, n_right, join_type in shapes:
            left = vector_of([(2**62, i) for i in range(n_left)], L)
            right = vector_of([(2**62, -i) for i in range(n_right)], R)
            case = bulk_case(
                "join", left, right, join_type=join_type, compression=False
            )
            check(case, Cell(mode="interpreted", morsel_rows=1))

    def test_reduce_by_key_modes_agree(self):
        table = vector_of([(k % 7, k) for k in range(100)])
        case = bulk_case("groupby", table, key_bits=10)
        for mode, morsel_rows in itertools.product(MODES, (1, 3, None)):
            check(case, Cell(mode=mode, morsel_rows=morsel_rows))
