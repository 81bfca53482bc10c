"""Linear-time stable scatter order: the one sort under every partition.

Every scatter (``MpiExchange``, ``LocalPartitioning``, the radix join build,
``ReduceByKey``) needs the *stable sort permutation* of small non-negative
integers, and ``np.argsort(kind="stable")`` is a radix sort only for 8/16-bit
integers — a merge sort for anything wider.  :func:`stable_order` dispatches
on what it observes in its input (value width, sortedness; the table is in
``docs/fused_execution.md``); the permutation is unique, so every branch is
bit-identical to the merge sort it replaces.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bucket_counts",
    "counted_layout",
    "key_order",
    "partition_layout",
    "stable_order",
]


def stable_order(values: np.ndarray, span: int) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` for integers in ``[0, span)``."""
    if span <= 1 << 16:
        # numpy radix-sorts 8/16-bit integers: O(n), and O(n) on sorted input.
        narrow = np.uint8 if span <= 1 << 8 else np.uint16
        return np.argsort(values.astype(narrow), kind="stable")
    if bool((values[1:] >= values[:-1]).all()):
        # The merge sort is O(n) on sorted input (TPC-H build keys arrive
        # sorted); radix passes are not, so sortedness is tested first.
        return np.arange(len(values), dtype=np.intp)
    if span > 1 << 32:
        return np.argsort(values, kind="stable")
    # Least-significant-digit radix sort, two stable 16-bit passes.
    order = np.argsort((values & 0xFFFF).astype(np.uint16), kind="stable")
    high = (values >> 16).astype(np.uint16)[order]
    return order[np.argsort(high, kind="stable")]


def bucket_counts(buckets: np.ndarray, n_buckets: int) -> np.ndarray:
    """``np.bincount(buckets, minlength=n_buckets)``: rows per bucket.

    One bucket (every one-rank exchange) is counted by ``any()``, because
    ``bincount`` is at its slowest when every id is equal; any other input,
    an out-of-range id included, is ``bincount``'s, so that id stays visible
    in the counts and fails the histogram cross-check.
    """
    if n_buckets == 1 and not buckets.any():
        return np.array([len(buckets)], dtype=np.intp)
    return np.bincount(buckets, minlength=n_buckets)


def partition_layout(buckets: np.ndarray, n_buckets: int) -> tuple[np.ndarray, ...]:
    """⟨order, counts, offsets⟩ of a stable scatter into ``n_buckets`` runs:
    after ``take(order)`` bucket ``b`` occupies ``[offsets[b], offsets[b+1])``."""
    return counted_layout(buckets, bucket_counts(buckets, n_buckets))


def counted_layout(buckets: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`partition_layout` from ``counts = bucket_counts(buckets, n)``
    already taken, for a caller that read the counts first."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    if len(counts) == 1:  # one bucket, every id in it: the identity, unsorted
        return np.arange(len(buckets), dtype=np.intp), counts, offsets
    return stable_order(buckets, len(counts)), counts, offsets


def key_order(keys: np.ndarray) -> np.ndarray:
    """Stable sort permutation of arbitrary group keys.

    Integer keys are rebased onto their range (span in Python ints, rebase in
    64 bits: neither ``int64`` extremes nor a full-range ``int32`` column
    overflow) and radix-ordered; strings, floats and spans beyond 2^32 keep
    the comparison sort.
    """
    if keys.dtype.kind in "iu" and len(keys):
        kmin = int(keys.min())
        span = int(keys.max()) - kmin + 1
        if span <= 1 << 32:
            wide = np.int64 if keys.dtype.kind == "i" else np.uint64
            return stable_order(keys.astype(wide, copy=False) - wide(kmin), span)
    return np.argsort(keys, kind="stable")
