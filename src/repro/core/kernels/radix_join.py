"""Radix-partitioned direct-address join kernel (BuildProbe's data path).

The cache-conscious alternative to the sorted-hash kernel
(:mod:`repro.core.kernels.hash_join`), modeled on the radix hash join of
Barthels et al. that the paper decomposes into sub-operators.  Instead of
hashing, the build side is *rebased* onto its key range ``[kmin, kmax]``
and either addressed directly or scattered into per-key runs with
counting passes:

1. a span that fits one cache-sized pass takes a direct-address table
   ``rows[key - kmin] -> build row`` (-1 where the key is absent): one
   ``np.full`` and one scatter of the row numbers, which also proves the
   keys unique (:meth:`RadixJoinBuild._unique_table`).  A unique build
   keeps the table — no count, no sort, no run offsets;
2. a repeated key, or more rows than the span (some key must repeat),
   counts the rebased keys (``scatter.bucket_counts``): the counts give
   every key's run length, their ``cumsum`` the run start offsets, and
   the scatter is one stable linear-time order
   (:mod:`repro.core.kernels.scatter`).  When the key range exceeds a
   cache-sized pass, a first radix pass partitions on the high bits
   (fan-out chosen from the key range so each sub-range fits the pass
   budget), then each partition is counted and scattered locally — the
   classic two-pass radix scheme that keeps every pass's working set
   cache-sized;
3. a probe morsel against the table is one ``take`` of ``rows`` (keys out
   of range clamped to a -1 slot, the slots read as ``intp``) and one
   ``flatnonzero``.  When that finds every probe row (the morsel fully
   hits), the probe's columns pass through as they are and only the
   build side is gathered; the table's identity ``order`` is never
   gathered through.  Against runs, a probe reads each candidate run
   ``[starts[k], starts[k+1])`` with two direct loads and expands it.
   Neither hashes, chains or searches.

It runs on the same int64 key codes as the sorted-hash kernel
(:class:`~repro.core.kernels.hash_join.JoinKeyCodes`).  The scatter is
stable, so candidate runs hold build rows in insertion order and the
emitted rows are bit-identical to the sorted-hash kernel's; a unique
build's ``order`` is the identity, held as ``None``.  All four probe
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


def key_span(kmin: int, kmax: int) -> int:
    """Width of the inclusive key range, in exact Python-int arithmetic.

    Python ints cannot overflow, so degenerate sweeps with keys at
    ``±2**62`` report their true astronomical span (and get rejected by
    the caps) instead of wrapping in int64.
    """
    return int(kmax) - int(kmin) + 1


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
        kmin, kmax = int(keys.min()), int(keys.max())
        eligible = radix_eligible(
            len(keys), kmin, kmax, forced=join_kernel == "radix"
        )
    if eligible:
        build = RadixJoinBuild.from_codes(left, codes, (kmin, kmax))
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
    #: (a unique build, whose ``rows`` hold build rows directly).
    order: np.ndarray | None
    #: Run offsets of the direct-address table when some key repeats: the
    #: build rows holding rebased key ``k`` occupy scattered positions
    #: [starts[k], starts[k+1]).  ``None`` for a unique build.
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
    def from_codes(cls, left: RowVector, codes: JoinKeyCodes, key_range=None) -> "RadixJoinBuild":
        """The build over ``left``'s key ``codes``, whose ⟨min, max⟩ is
        ``key_range`` when the caller has taken it."""
        build_keys = codes.build
        n = len(left)
        if key_range is None:
            key_range = (int(build_keys.min()), int(build_keys.max())) if n else (0, -1)
        kmin, kmax = key_range
        span = key_span(kmin, kmax)
        if span > HARD_RANGE_CAP:
            raise ValueError(
                f"key range {span} exceeds the radix table cap {HARD_RANGE_CAP}"
            )
        rebased = build_keys - np.int64(kmin)
        order = starts = rows = None
        if span > PASS_RANGE:
            starts, order = cls._two_pass_scatter(rebased, span)
        else:
            # More rows than keys means some key repeats.
            rows = cls._unique_table(rebased, span) if n <= span else None
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
    def _unique_table(rebased: np.ndarray, span: int) -> np.ndarray | None:
        """The key -> row table of ``rebased``, or ``None`` if a key repeats.

        O(n), with no count: keys that strictly increase are unique, and
        sorted keys with a tie repeat (found before any table is made);
        otherwise a repeated key's slot holds only its last row's number.
        """
        lowest = np.diff(rebased).min(initial=1)
        if lowest == 0:
            return None
        ids = np.arange(len(rebased), dtype=np.intp)
        rows = np.full(span + 1, -1, dtype=np.intp)
        rows[rebased] = ids
        if lowest > 0 or bool((rows.take(rebased) == ids).all()):
            return rows
        return None

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
        hit_right = np.flatnonzero(hit_rows >= 0)
        if len(hit_right) == len(right):
            # Every key hit, once each and in order: the probe passes through.
            return emit_probe_hits(build, right, spec, hit_rows, slice(None))
        return emit_probe_hits(build, right, spec, hit_rows[hit_right], hit_right)
    n_right = len(right)
    in_range = (right_keys >= build.key_min) & (right_keys <= build.key_max)
    # Out-of-range keys are clamped to slot 0 before indexing; their
    # candidate count is masked to zero below, so the clamp never emits.
    rebased = np.where(in_range, right_keys - kmin, 0)
    lo = build.starts[rebased]
    hi = np.where(in_range, build.starts[rebased + 1], lo)
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
