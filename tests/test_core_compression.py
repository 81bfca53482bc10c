"""Unit tests for the radix bit-drop compression (§4.1.1)."""

import numpy as np
import pytest

from repro.core.compression import COMPRESSED_TYPE, RadixCompression
from repro.errors import TypeCheckError
from repro.types import INT64, RowVector, TupleType

KV = TupleType.of(key=INT64, payload=INT64)


class TestParameters:
    def test_paper_constraint_enforced(self):
        # 2·P − F must fit in a 64-bit word.
        RadixCompression(key_bits=33, fanout_bits=2)  # 64, fits
        with pytest.raises(TypeCheckError, match="> 64"):
            RadixCompression(key_bits=33, fanout_bits=1)

    def test_invalid_bits_rejected(self):
        with pytest.raises(TypeCheckError):
            RadixCompression(key_bits=0, fanout_bits=0)
        with pytest.raises(TypeCheckError):
            RadixCompression(key_bits=8, fanout_bits=-1)
        with pytest.raises(TypeCheckError, match="exceed key bits"):
            RadixCompression(key_bits=4, fanout_bits=5)

    def test_wire_width_is_8_bytes(self):
        comp = RadixCompression(20, 3)
        assert comp.compressed_bytes_per_tuple() == 8
        assert COMPRESSED_TYPE.row_size_bytes() == 8


class TestScalarRoundtrip:
    @pytest.mark.parametrize("key_bits,fanout_bits", [(10, 2), (20, 3), (27, 3)])
    def test_roundtrip(self, key_bits, fanout_bits):
        comp = RadixCompression(key_bits, fanout_bits)
        fanout = 1 << fanout_bits
        for key in (0, 1, fanout, (1 << key_bits) - 1):
            payload = key % (1 << key_bits)
            packed = comp.pack(key, payload)
            assert comp.unpack(packed, key % fanout) == (key, payload)

    def test_dropped_bits_really_drop(self):
        comp = RadixCompression(10, 2)
        # Keys differing only in the partition bits pack identically.
        assert comp.pack(0b0100, 7) == comp.pack(0b0111, 7)


class TestBatchRoundtrip:
    def test_batch_matches_scalar(self):
        comp = RadixCompression(12, 2)
        keys = np.arange(64, dtype=np.int64)
        payloads = (keys * 3) % (1 << 12)
        data = RowVector(KV, [keys, payloads])
        packed = comp.pack_batch(data)
        assert packed.element_type == COMPRESSED_TYPE
        expected = [comp.pack(k, p) for k, p in data.iter_rows()]
        assert packed.column("packed").tolist() == expected

    def test_unpack_batch_recovers_partition_members(self):
        comp = RadixCompression(12, 2)
        keys = np.array([1, 5, 9, 13], dtype=np.int64)  # all in partition 1
        payloads = np.array([10, 20, 30, 40], dtype=np.int64)
        packed = comp.pack_batch(RowVector(KV, [keys, payloads]))
        restored = comp.unpack_batch(packed, partition_id=1, output_type=KV)
        assert restored.column("key").tolist() == keys.tolist()
        assert restored.column("payload").tolist() == payloads.tolist()

    def test_pack_requires_two_int_fields(self):
        comp = RadixCompression(12, 2)
        wide = TupleType.of(a=INT64, b=INT64, c=INT64)
        with pytest.raises(TypeCheckError, match="key, payload"):
            comp.pack_batch(RowVector.from_rows(wide, [(1, 2, 3)]))

    def test_halves_network_volume(self):
        comp = RadixCompression(16, 3)
        data = RowVector(KV, [np.arange(100, dtype=np.int64)] * 2)
        assert comp.pack_batch(data).size_bytes() * 2 == data.size_bytes()


class TestDomainGuard:
    def test_out_of_domain_payload_rejected_loudly(self):
        # Values outside [0, 2**P) would corrupt silently on the wire; the
        # pack path must refuse instead (regression guard: this bit several
        # early test workloads).
        from repro.errors import ExecutionError

        comp = RadixCompression(4, 2)
        bad = RowVector.from_rows(KV, [(3, 30)])  # payload 30 >= 2**4
        with pytest.raises(ExecutionError, match="domain violation"):
            comp.pack_batch(bad)

    def test_negative_key_rejected(self):
        from repro.errors import ExecutionError

        comp = RadixCompression(8, 2)
        bad = RowVector.from_rows(KV, [(-1, 0)])
        with pytest.raises(ExecutionError, match="domain violation"):
            comp.pack_batch(bad)

    def test_boundary_values_accepted(self):
        comp = RadixCompression(4, 2)
        edge = RowVector.from_rows(KV, [(15, 15), (0, 0)])
        packed = comp.pack_batch(edge)
        assert comp.unpack(int(packed.column("packed")[0]), 15 % 4) == (15, 15)


class TestInPlaceKernels:
    """``pack_batch`` and ``restore`` compute into one output array; each
    must equal the expression it replaced and leave its input as it was."""

    @pytest.mark.parametrize("key_bits,fanout_bits", [(12, 0), (12, 3), (32, 0), (33, 2)])
    def test_pack_batch(self, key_bits, fanout_bits):
        comp = RadixCompression(key_bits, fanout_bits)
        top = (1 << key_bits) - 1
        keys = np.array([0, 1, top, top - 1, 5, 1 << (key_bits - 1)], np.int64)
        payloads = keys[::-1].copy()
        before = keys.copy()
        packed = comp.pack_batch(RowVector(KV, [keys, payloads])).column("packed")
        old = ((keys >> fanout_bits) << key_bits) | payloads
        assert packed.dtype == old.dtype and packed.tolist() == old.tolist()
        assert keys.tolist() == before.tolist()

    @pytest.mark.parametrize("fanout_bits", [0, 3, 16])
    def test_restore(self, fanout_bits):
        comp = RadixCompression(32, fanout_bits)
        compressed = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                               -1, -9, 0, 1, 2**40], np.int64)
        before = compressed.copy()
        for pid in (0, 1, (1 << fanout_bits) - 1):
            restored = comp.restore(compressed, pid)
            old = (compressed << fanout_bits) | pid
            assert restored.dtype == old.dtype and restored.tolist() == old.tolist()
            assert compressed.tolist() == before.tolist()
            # Scalars still restore, as Python ints and as numpy scalars.
            assert comp.restore(-9, pid) == (-9 << fanout_bits) | pid
            assert comp.restore(np.int64(-9), pid) == old[3]
