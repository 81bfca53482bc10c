"""Linear-time stable scatter order: the one sort under every partition.

Every scatter (``MpiExchange``, ``LocalPartitioning``, the radix join build,
a sparse ``ReduceByKey``) needs the *stable sort permutation* of small
non-negative integers, and ``np.argsort(kind="stable")`` is a radix sort only
for 8/16-bit integers — a merge sort for anything wider.  :func:`stable_order`
dispatches on what it observes in its input (value width, sortedness; the
table is in ``docs/fused_execution.md``); the permutation is unique, so every
branch is bit-identical to the merge sort it replaces.  A dense ``ReduceByKey`` does
not sort at all: :func:`key_sums` counts its keys.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DENSE_SUM_MULTIPLE",
    "bucket_counts",
    "key_order",
    "key_sums",
    "partition_layout",
    "stable_order",
    "window_layout",
]

#: ``key_sums`` counts integer keys instead of sorting them when their span
#: is at most this multiple of the rows.  In the sweep in
#: ``docs/fused_execution.md`` counting wins at every size up to span = rows;
#: at 2 × rows it wins or loses by size and run.
DENSE_SUM_MULTIPLE = 1


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

    One bucket (an opaque partition function's, a one-rank monolith's; a
    one-way function's histogram counts rows, not ids) is counted by
    ``any()``, because ``bincount`` is at its slowest when every id is
    equal; any other input, an out-of-range id included, is ``bincount``'s,
    so that id stays visible in the counts and fails the histogram
    cross-check.
    """
    if n_buckets == 1 and not buckets.any():
        return np.array([len(buckets)], dtype=np.intp)
    return np.bincount(buckets, minlength=n_buckets)


def partition_layout(buckets: np.ndarray, n_buckets: int) -> tuple[np.ndarray, ...]:
    """⟨order, counts, offsets⟩ of a stable scatter into ``n_buckets`` runs:
    after ``take(order)`` bucket ``b`` occupies ``[offsets[b], offsets[b+1])``."""
    counts = bucket_counts(buckets, n_buckets)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    if len(counts) == 1:  # one bucket, every id in it: the identity, unsorted
        return np.arange(len(buckets), dtype=np.intp), counts, offsets
    return stable_order(buckets, len(counts)), counts, offsets


def window_layout(counts: np.ndarray, n_ranks: int) -> tuple[np.ndarray, np.ndarray]:
    """⟨base offset of every partition inside its owner's RMA window, rows
    each rank's window holds⟩.

    Partition ``p`` lives in rank ``p mod n_ranks``'s window, after all the
    lower partitions that rank owns; ``counts`` are the global partition
    sizes, so every rank derives the same table locally.
    """
    # Row i, column r of the grid is partition i * n_ranks + r, so each
    # column lists one owner's partitions in window order.
    padding = np.zeros(-len(counts) % n_ranks, dtype=counts.dtype)
    grid = np.concatenate((counts, padding)).reshape(-1, n_ranks)
    return (grid.cumsum(axis=0) - grid).ravel()[: len(counts)], grid.sum(axis=0)


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


def key_sums(keys: np.ndarray, columns: list[np.ndarray]) -> tuple[np.ndarray, list]:
    """⟨distinct ``keys`` ascending, each column's per-key sums⟩.

    Integer keys spanning at most ``DENSE_SUM_MULTIPLE`` × rows with integer
    or bool values are counted (:func:`counted_key_sums`); anything else is
    ordered with :func:`key_order` and summed per run (:func:`sorted_key_sums`).
    """
    integral = all(column.dtype.kind in "iub" for column in columns)
    if keys.dtype.kind in "iu" and len(keys) and integral:
        kmin = int(keys.min())
        span = int(keys.max()) - kmin + 1
        if span <= DENSE_SUM_MULTIPLE * len(keys):
            return counted_key_sums(keys, columns, kmin, span)
    return sorted_key_sums(keys, columns)


def sorted_key_sums(
    keys: np.ndarray, columns: list[np.ndarray]
) -> tuple[np.ndarray, list]:
    """:func:`key_sums` by sorting: ``key_order``, then one ``reduceat`` per
    column over the runs of equal keys."""
    order = key_order(keys)
    sorted_keys = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    boundaries = np.flatnonzero(starts)
    sums = [np.add.reduceat(column[order], boundaries) for column in columns]
    return sorted_keys[boundaries], sums


def counted_key_sums(
    keys: np.ndarray, columns: list[np.ndarray], kmin: int, span: int
) -> tuple[np.ndarray, list]:
    """:func:`key_sums` by counting integer keys in ``[kmin, kmin + span)``.

    The keys are rebased as in :func:`key_order`; one ``bucket_counts``
    finds the keys present and one ``np.add.at`` per column sums into a
    span-wide accumulator of the dtype ``reduceat`` returns (integer sums
    wrap alike in any order, so they are bit-identical to the sort's).
    Float values must not come here: ``np.add.at`` starts from ``+0.0``.
    """
    wide = np.int64 if keys.dtype.kind == "i" else np.uint64
    rebased = (keys.astype(wide, copy=False) - wide(kmin)).view(np.int64)
    present = np.flatnonzero(bucket_counts(rebased, span))
    sums = []
    for column in columns:
        acc = np.zeros(span, dtype=np.add.reduce(column[:0]).dtype)
        np.add.at(acc, rebased, column)
        sums.append(acc[present])
    return (present.astype(wide) + wide(kmin)).astype(keys.dtype, copy=False), sums
