"""Unit tests for the function objects (UDF wrappers and partition fns)."""

import numpy as np
import pytest

from repro.core.functions import (
    CallablePartition,
    HashPartition,
    Predicate,
    RadixPartition,
    ReduceFunction,
    TupleFunction,
    field_sum,
)
from repro.errors import TypeCheckError
from repro.types import INT64, RowVector, TupleType

KV = TupleType.of(key=INT64, value=INT64)


def batch(*rows):
    return RowVector.from_rows(KV, list(rows))


class TestTupleFunction:
    def test_scalar_and_vectorized_agree(self):
        out_type = TupleType.of(double=INT64)
        fn = TupleFunction(
            lambda row: (row[0] * 2,),
            out_type,
            vectorized=lambda cols: (cols[0] * 2,),
        )
        data = batch((1, 10), (2, 20))
        vec = fn.apply_batch(data, out_type)
        assert list(vec.iter_rows()) == [fn(r)[:1] for r in data.iter_rows()]

    def test_output_type_callable(self):
        fn = TupleFunction(lambda row: row, lambda in_type: in_type.project(["key"]))
        assert fn.output_type_for(KV).field_names == ("key",)

    def test_scalar_fallback_without_vectorized(self):
        out_type = TupleType.of(key=INT64)
        fn = TupleFunction(lambda row: (row[0],), out_type)
        assert list(fn.apply_batch(batch((3, 4)), out_type).iter_rows()) == [(3,)]


class TestPredicate:
    def test_mask_matches_scalar(self):
        pred = Predicate(
            lambda row: row[0] % 2 == 0, vectorized=lambda cols: cols[0] % 2 == 0
        )
        data = batch((1, 0), (2, 0), (4, 0))
        assert pred.mask(data).tolist() == [False, True, True]
        assert [pred(r) for r in data.iter_rows()] == [False, True, True]

    def test_mask_without_vectorized(self):
        pred = Predicate(lambda row: row[1] > 5)
        assert pred.mask(batch((0, 1), (0, 9))).tolist() == [False, True]


class TestRadixPartition:
    def test_low_bits(self):
        fn = RadixPartition("key", 4).bind(KV)
        assert [fn((k, 0)) for k in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_shift(self):
        fn = RadixPartition("key", 2, shift=1).bind(KV)
        assert [fn((k, 0)) for k in range(4)] == [0, 0, 1, 1]

    def test_map_batch_matches_scalar(self):
        fn = RadixPartition("key", 8).bind(KV)
        data = batch(*[(k, 0) for k in range(32)])
        assert fn.map_batch(data).tolist() == [fn(r) for r in data.iter_rows()]

    def test_requires_power_of_two(self):
        with pytest.raises(TypeCheckError, match="power-of-two"):
            RadixPartition("key", 6)

    def test_requires_bind(self):
        with pytest.raises(TypeCheckError, match="bind"):
            RadixPartition("key", 4)((1, 2))


class TestHashPartition:
    def test_range_and_determinism(self):
        fn = HashPartition("key", 7).bind(KV)
        buckets = [fn((k, 0)) for k in range(100)]
        assert all(0 <= b < 7 for b in buckets)
        assert buckets == [fn((k, 0)) for k in range(100)]

    def test_map_batch_matches_scalar(self):
        fn = HashPartition("key", 5).bind(KV)
        data = batch(*[(k * 13 + 1, 0) for k in range(64)])
        assert fn.map_batch(data).tolist() == [fn(r) for r in data.iter_rows()]
        # The mask (power-of-two) and constant (n = 1) fast paths must keep
        # agreeing with the scalar modulo bit for bit, on hostile keys too.
        keys = [k * 13 + 1 for k in range(64)] + [0, -1, -7, 2**62, -(2**62), 2**62 - 1]
        data = batch(*[(k, 0) for k in keys])
        for n in (1, 2, 3, 8, 16):
            for salt in (0, 1, 2):
                fn = HashPartition("key", n, salt=salt).bind(KV)
                ids = fn.map_batch(data)
                assert ids.dtype == np.int64
                assert ids.tolist() == [fn(r) for r in data.iter_rows()], (n, salt)

    def test_salts_give_independent_hashes(self):
        a = HashPartition("key", 16, salt=0).bind(KV)
        b = HashPartition("key", 16, salt=1).bind(KV)
        keys = [(k, 0) for k in range(256)]
        assert [a(r) for r in keys] != [b(r) for r in keys]

    def test_reasonable_balance(self):
        fn = HashPartition("key", 8).bind(KV)
        data = batch(*[(k, 0) for k in range(1 << 12)])
        counts = np.bincount(fn.map_batch(data), minlength=8)
        assert counts.min() > len(data) / 16


#: Hostile key columns for the in-place kernels: int64 extremes, negative
#: keys, and the narrower integer and bool dtypes a key column may hold.
INT64_EXTREMES = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0, 1,
                           -7, -(2**62), 2**62 - 1, 12345], dtype=np.int64)
KEY_COLUMNS = {
    "int64": INT64_EXTREMES,
    "negative": -np.arange(1, 40, 3, dtype=np.int64),
    "int32": np.array([np.iinfo(np.int32).min, np.iinfo(np.int32).max, -1, 0, 5], np.int32),
    "uint8": np.array([0, 1, 7, 128, 255], np.uint8),
    "bool": np.array([True, False, True]),
}


@pytest.mark.parametrize("keys", KEY_COLUMNS.values(), ids=KEY_COLUMNS)
class TestInPlaceKernels:
    """The partition kernels compute into one output array; each must equal
    the expression it replaced, bit for bit and dtype for dtype, and leave
    its input as it was."""

    @staticmethod
    def same(kernel, keys, old):
        before = keys.copy()
        new = kernel(keys)
        assert new.dtype == old.dtype and new.tolist() == old.tolist()
        assert keys.tolist() == before.tolist()

    @pytest.mark.parametrize("n", [2, 6, 7, 8, 256])
    @pytest.mark.parametrize("salt", [0, 1, 2])
    def test_hash_partition(self, keys, n, salt):
        fn = HashPartition("key", n, salt=salt)
        mixed = (keys.astype(np.uint64) * np.uint64(fn._multiplier)) >> np.uint64(33)
        old = mixed & np.uint64(n - 1) if n & (n - 1) == 0 else mixed % np.uint64(n)
        self.same(fn._hash, keys, old.astype(np.int64))

    @pytest.mark.parametrize("n, shift", [(1, 0), (2, 0), (8, 3), (256, 1)])
    def test_radix_partition(self, keys, n, shift):
        fn = RadixPartition("key", n, shift=shift)
        def kernel(keys):
            return fn.map_batch(RowVector(KV, [keys, np.zeros(len(keys), np.int64)]))
        self.same(kernel, keys, (keys >> shift) & (n - 1))


class TestCallablePartition:
    def test_wraps_python_function(self):
        fn = CallablePartition(lambda row: row[0] % 3, 3)
        assert fn((7, 0)) == 1

    def test_out_of_range_rejected(self):
        fn = CallablePartition(lambda row: 5, 3)
        with pytest.raises(TypeCheckError, match="outside"):
            fn((1, 2))

    def test_zero_partitions_rejected(self):
        with pytest.raises(TypeCheckError):
            CallablePartition(lambda row: 0, 0)


class TestReduceFunction:
    def test_field_sum_sums_positionwise(self):
        fn = field_sum("a", "b")
        assert fn((1, 2), (10, 20)) == (11, 22)
        assert fn.vectorized_sum_fields == ("a", "b")

    def test_field_sum_requires_fields(self):
        with pytest.raises(TypeCheckError):
            field_sum()

    def test_custom_combiner(self):
        fn = ReduceFunction(lambda a, b: (max(a[0], b[0]),))
        assert fn((3,), (9,)) == (9,)
        assert fn.vectorized_sum_fields is None
