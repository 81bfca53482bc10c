"""The radix-order kernel under every scatter of the data plane.

``stable_order`` must be *the* stable sort permutation — bit-identical to
``np.argsort(kind="stable")`` — on every branch of its dispatch (≤ 2^8,
≤ 2^16, presorted, ≤ 2^32, fallback), because the operators' row order
rests on it.  Row-order identity of the four call sites is pinned by
``test_fused_equivalence.py`` and ``test_radix_join.py``; checked here are
the kernel itself, the two shortcuts that must not be dropped unseen
(counted, not timed), ``ReduceByKey`` on the key domains an
integer-only path gets wrong, and the counting sum (``key_sums``) bit for
bit against the sort it replaces on dense keys.
"""

import collections
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import RunOptions
from repro.core.compression import RadixCompression
from repro.core.context import ExecutionContext
from repro.core.executor import execute
from repro.core.functions import PartitionFunction, RadixPartition, field_sum
from repro.core.kernels import scatter
from repro.core.kernels.scatter import (
    DENSE_SUM_MULTIPLE, bucket_counts, counted_key_sums, key_order, key_sums, partition_layout,
    sorted_key_sums, stable_order,
)
from repro.core.operators import (
    LocalHistogram, LocalPartitioning, MaterializeRowVector, ParameterSlot, ReduceByKey, RowScan,
)
from repro.core.plans.fragments import collect, exchange, sharded_scan
from repro.core.plans.join import build_distributed_join
from repro.errors import ExecutionError
from repro.mpi.cluster import SimCluster
from repro.mpi.comm import WindowSet
from repro.relational import lower_to_modularis
from repro.tpch import ALL_QUERIES, load_catalog
from repro.types import INT64, STRING, RowVector, TupleType, row_vector_type

from tests.conftest import table_source

#: Spans straddling every dispatch boundary of the kernel.
SPANS = [1, 2, 255, 256, 257, 65535, 65536, 65537, 1 << 20, 1 << 32, (1 << 32) + 1, 1 << 40]

SHAPES = ["random", "sorted", "reversed", "all_equal", "duplicated"]


def shaped(shape: str, span: int, n: int, seed: int, dtype) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if shape == "all_equal":
        values = np.full(n, span - 1)
    elif shape == "duplicated":  # a handful of distinct values, span-wide apart
        values = rng.choice(np.unique([0, span // 2, span - 1]), size=n)
    else:
        values = rng.integers(0, span, size=n)
    if shape == "sorted":
        values = np.sort(values)
    elif shape == "reversed":
        values = np.sort(values)[::-1]
    return values.astype(dtype)


def reference(values: np.ndarray) -> np.ndarray:
    return np.argsort(values, kind="stable")


class TestStableOrder:
    @settings(max_examples=120, deadline=None)
    @given(
        span=st.sampled_from(SPANS),
        shape=st.sampled_from(SHAPES),
        n=st.sampled_from([0, 1, 2, 3, 17, 300, 5000]),
        seed=st.integers(0, 2**16),
        dtype=st.sampled_from([np.int64, np.uint64]),
    )
    def test_is_the_stable_sort_permutation(self, span, shape, n, seed, dtype):
        values = shaped(shape, span, n, seed, dtype)
        order = stable_order(values, span)
        assert order.dtype == np.intp
        assert np.array_equal(order, reference(values))

    @pytest.mark.parametrize("span", [2, 1 << 20, 1 << 40])
    def test_bool_values(self, span):
        values = np.random.default_rng(3).integers(0, 2, size=999).astype(bool)
        assert np.array_equal(stable_order(values, span), reference(values))

    def test_strided_and_read_only_views(self):
        values = np.random.default_rng(5).integers(0, 1 << 20, size=4000)[::2]
        values.flags.writeable = False
        assert np.array_equal(stable_order(values, 1 << 20), reference(values))

    def test_layout_offsets_delimit_the_runs(self):
        buckets = np.random.default_rng(7).integers(0, 16, size=1000)
        order, counts, offsets = partition_layout(buckets, 16)
        assert np.array_equal(order, reference(buckets))
        assert offsets.tolist() == [0, *np.cumsum(counts)]
        scattered = buckets[order]
        for b in range(16):
            assert (scattered[offsets[b] : offsets[b + 1]] == b).all()

    def test_layout_counts_out_of_range_buckets(self):
        # Callers compare the counts with a histogram; an id past the fan-out
        # must stay visible there rather than wrap into a valid bucket.
        _, counts, offsets = partition_layout(np.array([0, 300, 1]), 4)
        assert len(counts) == 301 and counts[300] == 1 and offsets[-1] == 3


class TestOneBucket:
    """One bucket (every exchange of a one-rank run) skips ``bincount`` and
    the sort; what it returns must be what they return."""

    @pytest.mark.parametrize("buckets", [np.zeros(999, np.int64), np.zeros(0, np.int64),
                                         np.array([0, 0, 3, 0])], ids=["zeros", "empty", "stray"])
    def test_is_the_general_layout(self, buckets):
        counts = np.bincount(buckets, minlength=1)
        assert np.array_equal(bucket_counts(buckets, 1), counts)
        assert bucket_counts(buckets, 1).dtype == counts.dtype
        order, got_counts, offsets = partition_layout(buckets, 1)
        assert np.array_equal(order, reference(buckets)) and order.dtype == np.intp
        assert np.array_equal(got_counts, counts)
        assert offsets.tolist() == [0, *np.cumsum(counts)]

    def test_a_stray_id_still_fails_the_histogram_cross_check(self, ctx):
        class Stray(PartitionFunction):
            """A defective one-way bucket function: key 3 goes to bucket 5."""

            def map_batch(self, batch):
                return np.where(batch.column("key") == 3, 5, 0)

        table = RowVector.from_rows(TupleType.of(key=INT64), [(k,) for k in range(8)])

        def scan():
            return RowScan(table_source(table, ctx), field="t")

        histogram = LocalHistogram(scan(), RadixPartition("key", 1))
        with pytest.raises(ExecutionError, match="diverge"):
            list(LocalPartitioning(scan(), histogram, Stray(1)).stream(ctx))

    def test_one_rank_tpch_charges_are_pinned(self):
        # Recorded before one-bucket layouts skipped bincount and the sort:
        # per-rank clocks, phase breakdown, puts and shuffled bytes (SF 0.01).
        pinned = {
            4: ([0.0011805970912381145], "06d47047fdfdc637", 3, 330760),
            12: ([0.0011987180233054148], "bc1f3860a2d88f57", 2, 613480),
            14: ([0.0008062447500784962], "5151340c8049b18e", 2, 99848),
            19: ([0.0011019990254133093], "fa647ce6fea0a5d8", 2, 40592),
        }
        catalog = load_catalog(0.01, seed=4)
        for q, build in ALL_QUERIES.items():
            report = lower_to_modularis(build().plan, catalog, SimCluster(1)).run(
                catalog, RunOptions(metrics=True))
            (result,) = report.cluster_results
            phases = repr(sorted(report.phase_breakdown().items())).encode()
            assert (result.clocks, hashlib.sha256(phases).hexdigest()[:16],
                    report.metrics.total("comm_puts"),
                    report.metrics.total("shuffle_bytes")) == pinned[q], q


class TestKeyOrder:
    @settings(max_examples=60, deadline=None)
    @given(
        lo=st.sampled_from([-(2**63), -(2**31), -5, 0, 2**40, 2**63 - 70000]),
        width=st.sampled_from([1, 200, 65536, 65537, 2**32, 2**32 + 1]),
        shape=st.sampled_from(SHAPES),
        seed=st.integers(0, 2**16),
    )
    def test_signed_keys_anywhere_in_int64(self, lo, width, shape, seed):
        width = min(width, 2**63 - lo)
        offsets = shaped(shape, width, 500, seed, np.uint64)
        keys = np.array([lo + int(o) for o in offsets], dtype=np.int64)
        assert np.array_equal(key_order(keys), reference(keys))

    @pytest.mark.parametrize(
        "keys",
        [
            np.array([2**63 + 5, 2**63 + 1, 2**63 + 5, 2**63], dtype=np.uint64),
            np.array([2**64 - 1, 0, 2**63], dtype=np.uint64),
            np.array([2**63 - 1, -(2**63), 0, 2**63 - 1], dtype=np.int64),
            np.array([2**31 - 1, -(2**31), 5, -(2**31)], dtype=np.int32),
            np.array([127, -128, 0, 127], dtype=np.int8),
            np.array(["b", "a", "b", ""]),
            np.array([1.5, -0.0, 0.0, 1.5]),
            np.array([True, False, True]),
            np.array([], dtype=np.int64),
        ],
        ids=lambda keys: f"{keys.dtype}-{len(keys)}",
    )
    def test_every_key_domain(self, keys):
        assert np.array_equal(key_order(keys), reference(keys))


class TestShortcutsAreCounted:
    """Trap (a): both shortcuts are guarded by a count, not a timing."""

    def test_presorted_wide_input_does_not_sort(self, monkeypatch):
        values = np.sort(np.random.default_rng(11).integers(0, 1 << 20, size=1 << 18))
        expected = reference(values)

        def no_sort(*args, **kwargs):
            raise AssertionError("a presorted input must not reach argsort")

        monkeypatch.setattr(scatter.np, "argsort", no_sort)
        assert np.array_equal(stable_order(values, 1 << 20), expected)
        assert np.array_equal(key_order(values + 7), expected)

    def test_one_partition_exchange_sends_the_morsel_itself(self, monkeypatch):
        L = TupleType.of(key=INT64, lpay=INT64)
        R = TupleType.of(key=INT64, rpay=INT64)
        left = RowVector(L, [np.arange(64) % 8, np.arange(64)])
        right = RowVector(R, [np.arange(96) % 8, np.arange(96) % 32])
        plan = build_distributed_join(SimCluster(1), L, R, key_bits=6, compression=False)
        sent = []
        original = WindowSet.put

        def spy(self, target, offset, data, rows=None):
            sent.append((data, rows))
            return original(self, target, offset, data, rows)

        monkeypatch.setattr(WindowSet, "put", spy)
        result = plan.run(left, right)
        assert len(plan.matches(result)) == 64 * 12
        inputs = {"lpay": left, "rpay": right}
        assert len(sent) == 2
        for data, rows in sent:
            source = inputs[data.element_type.field_names[1]]
            assert rows is None and len(data) == len(source)
            for sent_col, source_col in zip(data.columns, source.columns):
                assert np.shares_memory(sent_col, source_col)

    @pytest.mark.parametrize("compression", [False, True])
    def test_exchange_gathers_into_the_windows_without_take(self, monkeypatch, compression):
        # Each put gathers its partition straight from the morsel into the
        # window; a `take` into scatter order first would copy every byte
        # twice.  The plan is the bare exchange ladder: a local level's
        # in-memory scatter does take.
        table = RowVector(KV, [np.arange(1000) % 256, np.arange(1000) % 200])
        slot = ParameterSlot(TupleType.of(t=row_vector_type(KV)))

        def worker(s):
            shuffled = exchange(
                sharded_scan(s, "t"), RadixPartition("key", 4), "pid", "data",
                RadixCompression(8, 2) if compression else None,
            ).suppress("MOD023")
            return MaterializeRowVector(RowScan(shuffled, field="data"), field="result")

        _, flat = collect(slot, worker, SimCluster(4))

        def no_take(self, indices):
            raise AssertionError("the exchange must not take() a morsel")

        monkeypatch.setattr(RowVector, "take", no_take)
        report = execute(flat, params={slot: (table,)})
        assert len(report.rows) == len(table)


KS = TupleType.of(key=STRING, value=INT64)
KV = TupleType.of(key=INT64, value=INT64)


def reduce_by_key(table: RowVector, mode: str) -> collections.Counter:
    ctx = ExecutionContext(options=RunOptions(mode=mode))
    scan = RowScan(table_source(table, ctx), field="t")
    return collections.Counter(ReduceByKey(scan, "key", field_sum("value")).stream(ctx))


class TestReduceByKeyDomains:
    """Trap (b) and the Python-int span: fused must equal interpreted."""

    @pytest.mark.parametrize(
        "keys",
        [
            np.array(["1-URGENT", "5-LOW", "1-URGENT", "3-MEDIUM", "5-LOW", "1-URGENT"]),
            np.array([2**63 - 1, -(2**63), 2**63 - 1, 0, -(2**63)], dtype=np.int64),
            np.array([2**63 + 9, 2**63 + 1, 2**64 - 1, 2**63 + 9], dtype=np.uint64),
            np.array([70000, 3, 70000, 3, 65536, 0], dtype=np.int64),
        ],
        ids=["string", "int64-min-max", "uint64-above-2^63", "span-over-2^16"],
    )
    def test_fused_equals_interpreted(self, keys):
        schema = KS if keys.dtype.kind == "U" else KV
        table = RowVector(schema, [keys, np.arange(1, len(keys) + 1)])
        fused = reduce_by_key(table, "fused")
        assert fused == reduce_by_key(table, "interpreted")
        expected = collections.Counter()
        for key, value in zip(keys.tolist(), range(1, len(keys) + 1)):
            expected[key] += value
        assert fused == collections.Counter(expected.items())


def counted(keys: np.ndarray, columns: list) -> tuple:
    kmin = int(keys.min())
    return counted_key_sums(keys, columns, kmin, int(keys.max()) - kmin + 1)


def assert_same_sums(got: tuple, expected: tuple) -> None:
    """Bit for bit: keys and every sum column, values and dtypes."""
    (got_keys, got_sums), (keys, sums) = got, expected
    assert got_keys.dtype == keys.dtype and np.array_equal(got_keys, keys)
    assert len(got_sums) == len(sums)
    for got_col, col in zip(got_sums, sums):
        assert got_col.dtype == col.dtype
        assert got_col.tobytes() == col.tobytes()


class TestKeySums:
    """Dense integer keys are counted: the result must be the sort +
    ``reduceat`` result bit for bit, dtype included."""

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.uint64, np.bool_],
                             ids=lambda d: np.dtype(d).name)
    def test_value_dtypes_keep_the_reduceat_dtype(self, dtype):
        # 4,000 rows over 40 keys: every uint8 group sums past 255, which an
        # accumulator of the input dtype would wrap.
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 40, 4000)
        values = rng.integers(0, 256, 4000).astype(dtype)
        expected = sorted_key_sums(keys, [values])
        assert_same_sums(counted(keys, [values]), expected)
        assert expected[1][0].dtype == np.add.reduceat(values, [0]).dtype
        if dtype is not np.bool_:
            assert expected[1][0].max() > 255

    @pytest.mark.parametrize(
        "keys",
        [
            np.array([3, 0, 7, 3, 3, 1, 0, 7], dtype=np.int32),  # string codes
            np.array([-5, -9, -5, -7, -9, -5], dtype=np.int64),
            np.array([-(2**63), -(2**63) + 2, -(2**63)], dtype=np.int64),
            np.array([2**63 - 1, 2**63 - 3, 2**63 - 1], dtype=np.int64),
            np.array([2**64 - 1, 2**64 - 2, 2**64 - 1], dtype=np.uint64),
            np.array([2**63 + 2, 2**63, 2**63 + 2, 2**63 + 1], dtype=np.uint64),
        ],
        ids=["int32-codes", "negative", "int64-min", "int64-max", "uint64-top",
             "uint64-above-2^63"],
    )
    def test_key_domains_keep_their_dtype(self, keys):
        values = np.arange(len(keys), dtype=np.int64) * 3 + 1
        assert key_sums(keys, [values])[0].dtype == keys.dtype
        assert_same_sums(counted(keys, [values]), sorted_key_sums(keys, [values]))

    def test_int64_sums_wrap_alike(self):
        keys = np.array([1, 0, 1, 1, 0, 1])
        values = np.array([2**62, 5, 2**62, 2**62, -(2**63), 2**62], dtype=np.int64)
        expected = sorted_key_sums(keys, [values])
        assert expected[1][0].tolist() == [-(2**63) + 5, 0]  # both groups wrapped
        assert_same_sums(counted(keys, [values]), expected)

    def test_several_columns_one_key_and_one_row(self):
        for keys in (np.full(50, 9), np.array([4])):
            columns = [np.arange(len(keys)), np.ones(len(keys), dtype=np.int32)]
            assert_same_sums(counted(keys, columns), sorted_key_sums(keys, columns))
            assert key_sums(keys, columns)[0].tolist() == [keys[0]]

    def test_empty_input(self):
        got_keys, (sums,) = key_sums(np.array([], dtype=np.int32), [np.array([], np.uint8)])
        assert (got_keys.dtype, len(got_keys)) == (np.int32, 0)
        assert (sums.dtype, len(sums)) == (np.uint64, 0)

    @pytest.mark.parametrize("extra, path", [(0, "counted"), (1, "sorted")],
                             ids=["span=c*rows", "span=c*rows+1"])
    def test_the_density_rule(self, monkeypatch, extra, path):
        rows = 64
        span = DENSE_SUM_MULTIPLE * rows + extra
        keys = np.concatenate(([0, span - 1], np.arange(rows - 2) % span)) - 17
        values = np.arange(rows, dtype=np.int32)
        taken = []

        def spy(name):
            real = getattr(scatter, name)

            def recorded(*args):
                taken.append(name)
                return real(*args)

            monkeypatch.setattr(scatter, name, recorded)

        spy("counted_key_sums")
        spy("sorted_key_sums")
        got = key_sums(keys, [values])
        assert taken == [f"{path}_key_sums"]
        assert_same_sums(got, sorted_key_sums(keys, [values]))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_float_values_take_the_sort(self, dtype):
        # Dense keys, but np.add.at would start the -0.0 group from +0.0.
        keys = np.array([0, 1, 0, 1, 2])
        values = np.array([-0.0, 1.5, -0.0, 2.25, 0.1], dtype=dtype)
        got_keys, (sums,) = key_sums(keys, [values])
        assert_same_sums((got_keys, [sums]), sorted_key_sums(keys, [values]))
        assert np.signbit(sums[0]) and sums.dtype == dtype

    def test_string_and_float_keys_take_the_sort(self):
        for keys in (np.array(["b", "a", "b"]), np.array([1.0, -0.0, 1.0])):
            values = np.array([1, 2, 3])
            assert_same_sums(key_sums(keys, [values]), sorted_key_sums(keys, [values]))
