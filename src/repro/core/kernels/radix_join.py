"""Radix-partitioned direct-address join kernel (BuildProbe's data path).

The cache-conscious alternative to the sorted-hash kernel
(:mod:`repro.core.kernels.hash_join`), modeled on the radix hash join of
Barthels et al. that the paper decomposes into sub-operators.  Instead of
hashing, the build side is *rebased* onto its key range ``[kmin, kmax]``
and either addressed directly, searched in place, or scattered into
per-key runs with counting passes.  One comparison pass over the build
keys (:func:`key_shape`) tells the shapes apart; sorted keys read their
range off their ends:

1. a span that fits one cache-sized pass takes a direct-address table
   ``rows[key - kmin] -> build row`` (-1 where the key is absent): one
   ``np.full`` and one scatter of the row numbers.  Strictly increasing
   keys are unique; otherwise the table proves the keys unique when it
   holds one filled slot per row (:meth:`RadixJoinBuild._unique_table`).
   A unique build keeps the table — no count, no sort, no run offsets;
2. keys that never decrease but repeat (a build stored sorted on its
   join key) are their own runs: the build keeps no table and no order,
   and a probe finds each key's run in the keys themselves with two
   ``np.searchsorted`` calls (:data:`SORTED_RUNS`);
3. any other repeated key, or more rows than the span (some key must
   repeat), counts the rebased keys (``scatter.bucket_counts``): the
   counts give every key's run length, their ``cumsum`` the run start
   offsets, and the scatter is one stable linear-time order
   (:mod:`repro.core.kernels.scatter`).  When the key range exceeds a
   cache-sized pass, a first radix pass partitions on the high bits
   (fan-out chosen from the key range so each sub-range fits the pass
   budget), then each partition is counted and scattered locally — the
   classic two-pass radix scheme that keeps every pass's working set
   cache-sized.

A probe morsel against the table is one ``take`` of ``rows`` (keys out of
range clamped to a -1 slot, the slots read as ``intp``); a
``count_nonzero`` of the hit mask tells whether every probe row hit (the
morsel fully hits), and then the probe's columns pass through as they
are and only the build side is gathered; otherwise one ``flatnonzero``
finds the hits.  Against runs, a probe reads each candidate run
``[starts[k], starts[k+1])`` with two direct loads, or bisects the sorted
keys, and expands it; a semi or anti probe expands nothing, it only tests
whether the run is empty (one bisection and one equality gather on sorted
keys).  None of them hashes or chains.

It runs on the same int64 key codes as the sorted-hash kernel
(:class:`~repro.core.kernels.hash_join.JoinKeyCodes`).  The scatter is
stable, so candidate runs hold build rows in insertion order and the
emitted rows are bit-identical to the sorted-hash kernel's; a unique
or sorted build's ``order`` is the identity, held as ``None``.  All four probe
policies (inner / semi / anti / left_outer) share the emission through
:func:`~repro.core.kernels.hash_join.emit_probe_hits`.

Direct addressing trades memory for the key range: the kernel is only
eligible when the range is dense relative to the build cardinality, or
fits one pass under a build large enough to pay for it, and never beyond
a hard cap — :func:`radix_eligible` is the dispatch heuristic
``BuildProbe`` consults.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.kernels.hash_join import (
    HashJoinBuild,
    HashJoinSpec,
    JoinKeyCodes,
    emit_existence,
    emit_probe_hits,
    probe_morsel,
)
from repro.core.kernels.scatter import partition_layout, stable_order
from repro.types.collections import RowVector

__all__ = [
    "HARD_RANGE_CAP",
    "RADIX_MIN_ROWS",
    "RadixJoinBuild",
    "radix_eligible",
    "radix_fanout",
    "radix_probe_morsel",
    "select_join_kernel",
    "twin_build",
]

#: Largest key range the kernel will ever allocate a direct-address table
#: for (counts + starts ≈ 1 GiB at the cap); beyond it dispatch falls back
#: to the sorted-hash kernel regardless of any force knob.
HARD_RANGE_CAP = 1 << 26

#: Rebased-key range one counting pass may cover while staying inside the
#: cost model's cache budget (int64 counts for 2^18 keys = 2 MiB).
PASS_RANGE = 1 << 18

#: ``auto`` dispatch accepts a key range up to this multiple of the build
#: cardinality at any build size.  In the sweep in
#: ``docs/fused_execution.md`` radix beats sorted-hash on every unique
#: build with ``span <= 8 * rows``; at ``16 * rows`` it loses from 2^12
#: rows up.
DENSITY_MULTIPLE = 8

#: A sparser build takes radix only with at least this many rows and a
#: span of one pass: at span 2^18 radix breaks even from 2^12 rows against
#: four probe rows per build row, while 2^11 rows need sixteen.
RADIX_MIN_ROWS = 1 << 12

#: A build whose keys never decrease but repeat keeps no run table: its
#: rows are their own scattered positions and a probe key's run is found
#: with two ``np.searchsorted`` calls.  False counts such builds into runs.
SORTED_RUNS = True


def key_span(kmin: int, kmax: int) -> int:
    """Width of the inclusive key range, in exact Python-int arithmetic.

    Python ints cannot overflow, so degenerate sweeps with keys at
    ``±2**62`` report their true astronomical span (and get rejected by
    the caps) instead of wrapping in int64.
    """
    return int(kmax) - int(kmin) + 1


def key_shape(keys: np.ndarray) -> tuple[int, int, bool | None]:
    """⟨min, max, ties⟩ of non-empty ``keys``: ``ties`` is False when they
    strictly increase, True when they never decrease but repeat, ``None``
    when unsorted (sorted keys read min and max off their ends)."""
    before, after = keys[:-1], keys[1:]
    if np.count_nonzero(after >= before) == len(after):
        ties = np.count_nonzero(after > before) < len(after)
        return int(keys[0]), int(keys[-1]), ties
    return int(keys.min()), int(keys.max()), None


def radix_eligible(n_build: int, kmin: int, kmax: int, forced: bool = False) -> bool:
    """Dispatch heuristic: is the radix kernel worth (and safe to) run?

    ``forced`` skips the profitability test but never the hard memory cap.
    """
    if n_build == 0:
        return False
    span = key_span(kmin, kmax)
    if span > HARD_RANGE_CAP:
        return False
    if forced:
        return True
    if span <= DENSITY_MULTIPLE * n_build:
        return True
    return n_build >= RADIX_MIN_ROWS and span <= PASS_RANGE


def select_join_kernel(
    join_kernel: str, left: RowVector, key: str | tuple[str, ...], built=()
):
    """⟨dispatch label, constructed build, probe function⟩ for one join.

    The dispatch point ``BuildProbe.build`` calls with the context's
    ``join_kernel`` setting, the materialized build side and the join
    attribute(s): ``"sorted"`` pins the sorted-hash kernel, ``"radix"``
    forces radix up to the hard memory cap, and ``"auto"`` applies
    :func:`radix_eligible` to the build's key codes.  The label is the
    ``join_dispatch{path}`` metric value (``"kernel"`` keeps the
    sorted-hash path's historical label).  ``built`` holds the triples
    this join already returned for earlier lanes of its lockstep step; a
    build side with the same join keys as one of them shares its build.
    """
    for path, build, probe in built:
        twin = twin_build(build, left)
        if twin is not None:
            return path, twin, probe
    eligible = False
    codes = JoinKeyCodes(left, key)
    keys = codes.build
    if join_kernel != "sorted" and len(keys):
        shape = key_shape(keys)
        eligible = radix_eligible(
            len(keys), shape[0], shape[1], forced=join_kernel == "radix"
        )
    if eligible:
        build = RadixJoinBuild.from_codes(left, codes, shape)
        return "radix", build, radix_probe_morsel
    return "kernel", HashJoinBuild.from_codes(left, codes), probe_morsel


def twin_build(build, left: RowVector):
    """``build`` rebound to the build side ``left`` if ``left``'s join-key
    columns equal those ``build`` was made from, else ``None``.

    Everything a build derives comes from its key columns, so only the
    rows it emits (``left``) and its left_outer bookkeeping (``matched``)
    are ``left``'s own.  Lengths, then each key column's first row, are
    compared before the full columns, so a build side that differs costs
    almost nothing to tell apart.
    """
    made = build.left
    if len(made) != len(left) or not all(
        np.array_equal(a[:1], b[:1]) and np.array_equal(a, b)
        for a, b in ((made.column(k), left.column(k)) for k in build.codes.keys)
    ):
        return None
    return replace(build, left=left, matched=np.zeros(len(left), dtype=bool))


def radix_fanout(span: int) -> tuple[int, int]:
    """⟨shift, fan-out⟩ of the high-bit pass covering ``span`` keys.

    The shift is chosen so every sub-range fits one cache-sized counting
    pass; the fan-out is the resulting partition count.
    """
    shift = PASS_RANGE.bit_length() - 1
    fanout = (span + (1 << shift) - 1) >> shift
    return shift, fanout


@dataclass
class RadixJoinBuild:
    """Build-side state: the key-scattered view of the left input.

    Field names mirror :class:`~repro.core.kernels.hash_join.HashJoinBuild`
    where the semantics coincide (``order`` maps scattered position to
    original row, ``None`` meaning the identity; ``matched`` is indexed by
    scattered position), so ``outer_tail`` works on either build.
    """

    left: RowVector
    codes: JoinKeyCodes
    key_min: int
    key_max: int
    #: Scattered position -> build row; ``None`` when it is the identity
    #: (a unique build, whose ``rows`` hold build rows directly, or a
    #: sorted one, whose rows are already in key order).
    order: np.ndarray | None
    #: Run offsets of the direct-address table when some key repeats: the
    #: build rows holding rebased key ``k`` occupy scattered positions
    #: [starts[k], starts[k+1]).  ``None`` for a unique build, and for a
    #: sorted one with ties, whose runs are searched in ``codes.build``.
    starts: np.ndarray | None
    #: The direct-address table when every key is unique: ``rows[k]`` is
    #: the build row holding rebased key ``k``, or -1; one more -1 slot at
    #: ``rows[span]`` absorbs every out-of-range probe key.  ``order`` is
    #: the identity (``None``), so a row is its own scattered position.
    #: ``None`` when some key repeats.
    rows: np.ndarray | None
    #: Build rows hit by some probe so far (left_outer bookkeeping).
    matched: np.ndarray

    @classmethod
    def from_rows(cls, left: RowVector, key: str | tuple[str, ...]) -> "RadixJoinBuild":
        return cls.from_codes(left, JoinKeyCodes(left, key))

    @classmethod
    def from_codes(cls, left: RowVector, codes: JoinKeyCodes, shape=None) -> "RadixJoinBuild":
        """The build over ``left``'s key ``codes``, whose :func:`key_shape`
        is ``shape`` when the caller has taken it."""
        build_keys = codes.build
        n = len(left)
        if shape is None:
            shape = key_shape(build_keys) if n else (0, -1, False)
        kmin, kmax, ties = shape
        span = key_span(kmin, kmax)
        if span > HARD_RANGE_CAP:
            raise ValueError(
                f"key range {span} exceeds the radix table cap {HARD_RANGE_CAP}"
            )
        order = starts = rows = None
        if not (ties and SORTED_RUNS):
            rebased = build_keys - np.int64(kmin)
            if span > PASS_RANGE:
                starts, order = cls._two_pass_scatter(rebased, span)
            else:
                # A tie, or more rows than keys, means some key repeats.
                if not ties and n <= span:
                    rows = cls._unique_table(rebased, span, checked=ties is False)
                if rows is None:
                    order, _, starts = partition_layout(rebased, span)
        return cls(
            left=left,
            codes=codes,
            key_min=kmin,
            key_max=kmax,
            order=order,
            starts=starts,
            rows=rows,
            matched=np.zeros(n, dtype=bool),
        )

    @staticmethod
    def _unique_table(rebased: np.ndarray, span: int, checked: bool) -> np.ndarray | None:
        """The key -> row table of ``rebased``, or ``None`` if a key repeats.

        With no count: ``checked`` keys (strictly increasing) are unique;
        otherwise a repeated key's rows share one slot, so fewer than ``n``
        slots are filled.  Up to four slots per row they are counted in
        one sequential read of the table; sparser, each row reading its
        own number back from its slot is the cheaper test.
        """
        n = len(rebased)
        ids = np.arange(n, dtype=np.intp)
        rows = np.full(span + 1, -1, dtype=np.intp)
        rows[rebased] = ids
        if checked:
            return rows
        if span <= 4 * n:
            unique = np.count_nonzero(rows >= 0) == n
        else:
            unique = bool((rows.take(rebased) == ids).all())
        return rows if unique else None

    @staticmethod
    def _two_pass_scatter(rebased: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
        """Two radix passes: high-bit partition, then per-partition scatter.

        Each pass touches a cache-sized working set; the composition is a
        stable sort by the full rebased key, so the ⟨starts, order⟩ it
        returns are identical to the single-pass scatter's.
        """
        shift, fanout = radix_fanout(span)
        high = rebased >> np.int64(shift)
        part_order, part_counts, bounds = partition_layout(high, fanout)
        scattered = rebased[part_order]
        starts = np.zeros(span + 1, dtype=np.int64)
        order = np.empty(len(rebased), dtype=part_order.dtype)
        for p in np.flatnonzero(part_counts):
            lo, hi = int(bounds[p]), int(bounds[p + 1])
            base = int(p) << shift
            width = min(1 << shift, span - base)
            segment = scattered[lo:hi] - np.int64(base)
            starts[base + 1 : base + width + 1] = np.bincount(segment, minlength=width)
            order[lo:hi] = part_order[lo:hi][stable_order(segment, width)]
        np.cumsum(starts, out=starts)
        return starts, order


def radix_probe_morsel(
    build: RadixJoinBuild, right: RowVector, spec: HashJoinSpec
) -> RowVector:
    """Probe one right-side morsel against the direct-address table."""
    right_keys = build.codes.probe(right)
    kmin = np.int64(build.key_min)
    if build.rows is not None:
        # ``key - kmin`` wraps modulo 2^64, so as unsigned it is below the
        # span exactly for keys in [kmin, kmax]; the clamp sends every
        # other key to the -1 slot, and one gather resolves the morsel.
        slots = (right_keys - kmin).view(np.uint64)
        # In place: clamping into a fresh array measured several times slower.
        np.minimum(slots, np.uint64(len(build.rows) - 1), out=slots)
        # Clamped, every slot is below 2^63: read as intp it feeds ``take``,
        # which measured twice as fast as indexing with uint64.
        hit_rows = build.rows.take(slots.view(np.intp))
        hit = hit_rows >= 0
        if np.count_nonzero(hit) == len(right):
            # Every key hit, once each and in order: the probe passes through.
            return emit_probe_hits(build, right, spec, hit_rows, slice(None))
        hit_right = np.flatnonzero(hit)
        return emit_probe_hits(build, right, spec, hit_rows[hit_right], hit_right)
    n_right = len(right)
    # A semi / anti probe asks only whether a key's run is empty.
    exists = spec.join_type in ("semi", "anti")
    if build.starts is None:
        # Sorted runs: the build keys never decrease, so a key's run is
        # found by bisection; a key outside [kmin, kmax] finds an empty one.
        keys = build.codes.build
        lo = np.searchsorted(keys, right_keys, side="left")
        if exists:
            # The run is non-empty iff its first row holds the key.  A
            # sorted build with a repeat has rows, so the clamp of a key
            # past the last one reads a row that differs from it.
            hit = keys[np.minimum(lo, len(keys) - 1)] == right_keys
            return emit_existence(right, spec, hit)
        hi = np.searchsorted(keys, right_keys, side="right")
    else:
        in_range = (right_keys >= build.key_min) & (right_keys <= build.key_max)
        # Out-of-range keys are clamped to slot 0 before indexing; their
        # candidate count is masked to zero below, so the clamp never emits.
        rebased = np.where(in_range, right_keys - kmin, 0)
        lo = build.starts[rebased]
        hi = np.where(in_range, build.starts[rebased + 1], lo)
        if exists:
            return emit_existence(right, spec, hi > lo)
    counts = hi - lo
    total = int(counts.sum())
    # Candidate expansion: for probe row i, the run of scattered build
    # positions [lo[i], hi[i]) that hold its exact key — the same
    # expansion as the sorted-hash kernel, but with no collision chains
    # to resolve (runs are keyed on the key itself, not its hash).
    right_cand = np.repeat(np.arange(n_right), counts)
    offsets = np.repeat(hi - np.cumsum(counts), counts)
    hit_pos = np.arange(total) + offsets
    return emit_probe_hits(build, right, spec, hit_pos, right_cand)
