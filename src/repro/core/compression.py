"""Radix key compression for network transfers (paper Section 4.1.1).

During the network-partitioning phase, each 16-byte ⟨key, payload⟩ tuple is
compressed into a single 8-byte word, halving network traffic:

* With an identity hash and radix partitioning of fan-out ``2**F`` on the
  low key bits, all keys inside one partition share those ``F`` bits — they
  equal the partition id and can be dropped and recovered downstream.
* Keys and payloads come from a dense domain of ``P`` bits each (e.g. via
  dictionary encoding), so ``(P − F) + P ≤ 64`` bits suffice for both.

The packed layout is ``packed = (key >> F) << P | payload``; recovery is
``key = (packed >> P) << F | partition_id`` and ``payload = packed & mask``.
The partition id travels out-of-band as the ``networkPartitionID`` field of
the exchange output, which is why the plans thread it through
``CartesianProduct`` into a ``ParametrizedMap`` that restores the bits after
the build-probe (or before the final aggregation, for GROUP BY).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExecutionError, TypeCheckError
from repro.types.atoms import INT64
from repro.types.collections import RowVector
from repro.types.tuples import TupleType

__all__ = ["RadixCompression", "COMPRESSED_TYPE"]

#: The wire type of compressed tuples: one packed 64-bit word.
COMPRESSED_TYPE = TupleType.of(packed=INT64)


@dataclass(frozen=True)
class RadixCompression:
    """Pack ⟨key, payload⟩ into one 64-bit word given radix fan-out bits.

    Attributes:
        key_bits: ``P``, the dense-domain width of keys and payloads.
        fanout_bits: ``F``, the number of low key bits the radix partition
            function consumes (and that the partition id recovers).
    """

    key_bits: int
    fanout_bits: int

    def __post_init__(self) -> None:
        if self.fanout_bits < 0 or self.key_bits <= 0:
            raise TypeCheckError(
                f"invalid compression parameters P={self.key_bits}, F={self.fanout_bits}"
            )
        if self.fanout_bits > self.key_bits:
            raise TypeCheckError(
                f"fan-out bits F={self.fanout_bits} exceed key bits P={self.key_bits}"
            )
        if 2 * self.key_bits - self.fanout_bits > 64:
            raise TypeCheckError(
                f"2*P - F = {2 * self.key_bits - self.fanout_bits} > 64: "
                "key/payload do not fit one word (paper Section 4.1.1)"
            )

    @property
    def payload_mask(self) -> int:
        return (1 << self.key_bits) - 1

    # -- scalar or columnar ------------------------------------------------------

    def pack(self, key: int, payload: int) -> int:
        """Compress one ⟨key, payload⟩ pair into a packed word."""
        return ((key >> self.fanout_bits) << self.key_bits) | payload

    def split(self, packed):
        """⟨compressed key, payload⟩ of packed word(s): the key still lacks
        its ``fanout_bits`` low bits, which :meth:`restore` puts back."""
        return packed >> self.key_bits, packed & self.payload_mask

    def restore(self, compressed_key, partition_id):
        """The full key(s) from compressed key(s) and their partition id."""
        key = compressed_key << self.fanout_bits
        key |= partition_id  # in place on an array, rebinding on a scalar
        return key

    def unpack(self, packed, partition_id: int) -> tuple:
        """Recover ⟨key, payload⟩ from packed word(s) and their partition id."""
        key, payload = self.split(packed)
        return self.restore(key, partition_id), payload

    # -- columnar -----------------------------------------------------------------

    def pack_batch(self, batch: RowVector) -> RowVector:
        """Compress a two-column integer batch into the wire format.

        The batch must be ⟨key, payload⟩-shaped: exactly two INT64 fields,
        key first — the paper's 16-byte workload tuple.  The dense-domain
        assumption (all values in ``[0, 2**key_bits)``) is *checked*:
        violating it would corrupt tuples silently on the wire.
        """
        if len(batch.element_type) != 2:
            raise TypeCheckError(
                f"compression expects ⟨key, payload⟩ tuples, got {batch.element_type!r}"
            )
        keys, payloads = batch.columns
        if len(batch):
            bound = 1 << self.key_bits
            for name, column in zip(batch.element_type.field_names, batch.columns):
                low, high = int(column.min()), int(column.max())
                if low < 0 or high >= bound:
                    raise ExecutionError(
                        f"compression domain violation: field {name!r} holds "
                        f"values in [{low}, {high}] but the dense domain is "
                        f"[0, {bound}); increase key_bits or disable compression"
                    )
        packed = keys >> self.fanout_bits
        packed <<= self.key_bits
        packed |= payloads
        return RowVector(COMPRESSED_TYPE, [packed])

    def unpack_batch(
        self, batch: RowVector, partition_id: int, output_type: TupleType
    ) -> RowVector:
        """Recover a compressed batch into ⟨key, payload⟩ columns."""
        keys, payloads = self.unpack(batch.column("packed"), partition_id)
        return RowVector(output_type, [keys, payloads])

    def compressed_bytes_per_tuple(self) -> int:
        return 8
