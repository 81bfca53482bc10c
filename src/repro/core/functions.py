"""First-class function objects passed to data-processing sub-operators.

The paper's sub-operators are parametrized by UDFs that the query compiler
lowers to LLVM IR and inlines into pipelines.  Here, a function object
carries a vectorized (numpy, column-at-a-time) implementation, which plays
the role of the inlined, compiled UDF, or a scalar (row-at-a-time) one, or
both; the operators' batch data path uses the vectorized form when present
and loops the scalar one over a morsel's rows otherwise.  The planner's
UDFs are vectorized-only (``fn=None``).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import TypeCheckError
from repro.types.atoms import AtomType
from repro.types.collections import RowVector
from repro.types.tuples import TupleType

__all__ = [
    "TupleFunction",
    "ParamTupleFunction",
    "Predicate",
    "PartitionFunction",
    "RadixPartition",
    "next_power_of_two",
    "HashPartition",
    "CallablePartition",
    "ReduceFunction",
    "field_sum",
]


class TupleFunction:
    """A UDF for ``Map``: one input tuple in, one output tuple out.

    Args:
        fn: Scalar implementation, ``fn(row) -> row``; may be ``None`` when
            ``vectorized`` is given.
        output_type: Either a fixed :class:`TupleType` or a callable
            ``input_type -> output_type`` (most operators' types depend on
            their upstream types; paper Section 3.2).
        vectorized: Optional columnar implementation,
            ``vectorized(columns) -> columns`` over numpy arrays.
    """

    def __init__(
        self,
        fn: Callable[[tuple], tuple] | None,
        output_type: TupleType | Callable[[TupleType], TupleType],
        vectorized: Callable[[tuple[np.ndarray, ...]], tuple[np.ndarray, ...]] | None = None,
    ) -> None:
        self.fn = fn
        self._output_type = output_type
        self.vectorized = vectorized

    def output_type_for(self, input_type: TupleType) -> TupleType:
        if callable(self._output_type):
            return self._output_type(input_type)
        return self._output_type

    def __call__(self, row: tuple) -> tuple:
        return self.fn(row)

    def apply_batch(self, batch: RowVector, output_type: TupleType) -> RowVector:
        """Columnar application; falls back to a scalar loop if needed."""
        if self.vectorized is not None:
            return RowVector(output_type, list(self.vectorized(batch.columns)))
        return RowVector.from_rows(output_type, (self.fn(r) for r in batch.iter_rows()))


class ParamTupleFunction(TupleFunction):
    """A UDF for ``ParametrizedMap``: ``fn(param_tuple, row) -> row``.

    The parameter tuple comes from a dedicated upstream and is fixed for the
    whole stream — e.g. the network partition ID used to recover compressed
    key bits (paper Section 4.1.2).  Built like a :class:`TupleFunction`
    whose ``fn`` and ``vectorized`` take the parameter tuple first.
    """

    def __call__(self, param: tuple, row: tuple) -> tuple:  # type: ignore[override]
        return self.fn(param, row)

    def apply_batch(  # type: ignore[override]
        self, param: tuple, batch: RowVector, output_type: TupleType
    ) -> RowVector:
        if self.vectorized is not None:
            return RowVector(output_type, list(self.vectorized(param, batch.columns)))
        return RowVector.from_rows(
            output_type, (self.fn(param, r) for r in batch.iter_rows())
        )


class Predicate:
    """A boolean UDF for ``Filter``: a scalar ``fn(row)``, a vectorized
    ``vectorized(columns) -> mask``, or both (``fn`` may be ``None``)."""

    def __init__(
        self,
        fn: Callable[[tuple], bool] | None,
        vectorized: Callable[[tuple[np.ndarray, ...]], np.ndarray] | None = None,
    ) -> None:
        self.fn = fn
        self.vectorized = vectorized

    def __call__(self, row: tuple) -> bool:
        return bool(self.fn(row))

    def mask(self, batch: RowVector) -> np.ndarray:
        """Boolean selection mask over a batch."""
        if self.vectorized is not None:
            return np.asarray(self.vectorized(batch.columns), dtype=bool)
        return np.fromiter(
            (bool(self.fn(r)) for r in batch.iter_rows()), dtype=bool, count=len(batch)
        )


class PartitionFunction:
    """Maps tuples to bucket/partition ids in ``[0, n_partitions)``.

    Used by ``LocalHistogram``, ``LocalPartitioning``, ``MpiExchange``
    (paper Section 3.3): all three share one function object, which is what
    guarantees the histogram describes exactly the partitions the exchange
    will write.
    """

    def __init__(self, n_partitions: int) -> None:
        if n_partitions < 1:
            raise TypeCheckError(f"need >= 1 partition, got {n_partitions}")
        self.n_partitions = n_partitions

    def check(self, input_type: TupleType) -> None:
        """Raise ``TypeCheckError`` unless tuples of ``input_type`` can be bucketed.

        The function's type rule, run by the consuming operator's
        ``infer_type``; the default accepts every type.
        """

    def bind(self, input_type: TupleType) -> "PartitionFunction":
        """Resolve field positions against the operator's input type."""
        return self

    def signature(self) -> tuple:
        """Equivalence key: class and static parameters.

        Two functions are interchangeable iff they provably map every tuple
        to the same bucket; the default is the function's own identity.
        """
        return ("opaque", id(self), self.n_partitions)

    @property
    def one_way(self) -> bool:
        """True when every tuple is bucket 0 without computing it, so a
        consumer may count or send a batch whole.  False by default: an
        opaque function is called, and its ids checked, on every tuple."""
        return False

    def __call__(self, row: tuple) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n_partitions})"

    def map_batch(self, batch: RowVector) -> np.ndarray:
        """Vectorized bucket ids for a whole batch."""
        return np.fromiter(
            (self(r) for r in batch.iter_rows()), dtype=np.int64, count=len(batch)
        )


class _KeyedPartition(PartitionFunction):
    """A partition function reading the bits of one integer-stored key field."""

    def __init__(self, key_field: str, n_partitions: int) -> None:
        super().__init__(n_partitions)
        self.key_field = key_field
        self._key_pos: int | None = None

    def check(self, input_type: TupleType) -> None:
        if self.key_field not in input_type:
            raise TypeCheckError(
                f"partition key {self.key_field!r} is absent from the data "
                f"type {input_type!r}"
            )
        atom = input_type[self.key_field]
        if not (isinstance(atom, AtomType) and atom.domain_kind in "iub"):
            raise TypeCheckError(
                f"partition key {self.key_field!r} is a {atom!r}, which is not "
                "stored as an integer; partition functions read the key's bits",
                "MOD003",
            )

    def bind(self, input_type: TupleType) -> "_KeyedPartition":
        self._key_pos = input_type.position(self.key_field)
        return self

    @property
    def one_way(self) -> bool:
        # A fan-out of one masks (radix) or reduces (hash) every key to 0.
        return self.n_partitions == 1


class RadixPartition(_KeyedPartition):
    """Radix partitioning on the bits of an integer key field.

    ``partition = (key >> shift) & (n_partitions - 1)`` with an identity
    hash, exactly the scheme whose dropped bits the compression of
    Section 4.1.1 recovers.  ``n_partitions`` must be a power of two.
    """

    def __init__(self, key_field: str, n_partitions: int, shift: int = 0) -> None:
        super().__init__(key_field, n_partitions)
        if n_partitions & (n_partitions - 1):
            raise TypeCheckError(
                f"radix partitioning needs a power-of-two fan-out, got {n_partitions}"
            )
        self.shift = shift
        self.mask = n_partitions - 1

    def signature(self) -> tuple:
        return ("radix", self.key_field, self.n_partitions, self.shift)

    @property
    def fanout_bits(self) -> int:
        return self.n_partitions.bit_length() - 1

    def __repr__(self) -> str:
        return (
            f"RadixPartition({self.key_field!r}, {self.n_partitions}, "
            f"shift={self.shift})"
        )

    def __call__(self, row: tuple) -> int:
        if self._key_pos is None:
            raise TypeCheckError("RadixPartition used before bind()")
        return (row[self._key_pos] >> self.shift) & self.mask

    def map_batch(self, batch: RowVector) -> np.ndarray:
        buckets = batch.column(self.key_field) >> self.shift
        buckets &= self.mask
        return buckets


def next_power_of_two(n: int) -> int:
    """Smallest power of two ``>= n`` (``n >= 1``): the radix fan-out for ``n`` ranks."""
    return 1 << (n - 1).bit_length()


class HashPartition(_KeyedPartition):
    """Multiplicative (Fibonacci) hashing of an integer key field.

    ``salt`` selects an independent hash function, so that e.g. the local
    partitioning pass is uncorrelated with the network partitioning pass
    (correlated passes would leave most local partitions empty).
    """

    _MULTIPLIERS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9)

    def __init__(self, key_field: str, n_partitions: int, salt: int = 0) -> None:
        super().__init__(key_field, n_partitions)
        self.salt = salt
        self._multiplier = self._MULTIPLIERS[salt % len(self._MULTIPLIERS)]

    def signature(self) -> tuple:
        return ("hash", self.key_field, self.n_partitions, self.salt)

    def __repr__(self) -> str:
        return (
            f"HashPartition({self.key_field!r}, {self.n_partitions}, "
            f"salt={self.salt})"
        )

    def _hash(self, keys: np.ndarray) -> np.ndarray:
        n = self.n_partitions
        # One array, computed in place: int64 keys wrap as uint64 by a view.
        wide = keys.view(np.uint64) if keys.dtype == np.int64 else keys.astype(np.uint64)
        mixed = wide * np.uint64(self._multiplier)
        mixed >>= np.uint64(33)
        if n & (n - 1) == 0:
            # Power of two: a mask gives the same residue as the modulo
            # without a 64-bit division per key.
            mixed &= np.uint64(n - 1)
        else:
            mixed %= np.uint64(n)
        return mixed.view(np.int64)

    def __call__(self, row: tuple) -> int:
        if self._key_pos is None:
            raise TypeCheckError("HashPartition used before bind()")
        # Pure-int replica of _hash (wrapping uint64 multiply): the scalar
        # call the symbolic prover probes must agree bit-for-bit with the
        # vectorized one without paying a one-element-array allocation.
        key = row[self._key_pos] & 0xFFFFFFFFFFFFFFFF
        mixed = (key * self._multiplier) & 0xFFFFFFFFFFFFFFFF
        return (mixed >> 33) % self.n_partitions

    def map_batch(self, batch: RowVector) -> np.ndarray:
        return self._hash(batch.column(self.key_field))


class CallablePartition(PartitionFunction):
    """Adapter for an arbitrary Python bucket function (no fast path)."""

    def __init__(self, fn: Callable[[tuple], int], n_partitions: int) -> None:
        super().__init__(n_partitions)
        self.fn = fn

    def signature(self) -> tuple:
        return ("callable", id(self.fn), self.n_partitions)

    def __call__(self, row: tuple) -> int:
        bucket = self.fn(row)
        if not 0 <= bucket < self.n_partitions:
            raise TypeCheckError(
                f"bucket function returned {bucket}, outside [0, {self.n_partitions})"
            )
        return bucket


class ReduceFunction:
    """An associative, commutative combiner for ``Reduce``/``ReduceByKey``.

    Args:
        fn: Scalar combiner ``fn(acc_tuple, row_tuple) -> tuple`` over the
            *value* tuples (key stripped, per the paper's ReduceByKey rule).
        vectorized_sum_fields: If all the function does is sum a set of
            numeric fields, name them here and the fused path uses
            ``np.add.reduceat``-style segment sums instead of a Python fold.
    """

    def __init__(
        self,
        fn: Callable[[tuple, tuple], tuple],
        vectorized_sum_fields: Sequence[str] | None = None,
    ) -> None:
        self.fn = fn
        self.vectorized_sum_fields = (
            tuple(vectorized_sum_fields) if vectorized_sum_fields else None
        )

    def __call__(self, acc: tuple, row: tuple) -> tuple:
        return self.fn(acc, row)


def field_sum(*fields: str) -> ReduceFunction:
    """A ReduceFunction that sums the named fields position-wise.

    The value tuples handed to the combiner must consist of exactly these
    fields (in order), which is how the paper's GROUP BY and the TPC-H
    post-aggregations use it.
    """
    if not fields:
        raise TypeCheckError("field_sum needs at least one field")

    def fn(acc: tuple, row: tuple) -> tuple:
        return tuple(a + b for a, b in zip(acc, row))

    return ReduceFunction(fn, vectorized_sum_fields=fields)
