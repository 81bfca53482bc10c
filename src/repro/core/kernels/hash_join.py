"""Vectorized hash-join kernel over int64 key codes (BuildProbe's data path).

Every join runs on one int64 column of key codes (:class:`JoinKeyCodes`),
equal exactly when the join keys are equal.  The build side's codes are
hashed with a multiplicative (Fibonacci) mix and sorted by hash value once
— a single stable ``np.argsort`` replaces the hash table — and the end of
every equal-hash run is recorded.  Each probe morsel hashes its codes,
locates the start of its candidate hash run with one ``np.searchsorted``
call, reads the run's end where the hash is present, and resolves
collision chains by comparing the actual codes of the candidates.  All
four probe policies (inner / semi / anti / left_outer) share the same
candidate machinery, and every policy emits the original key columns, not
their codes.

The stable sort keeps equal-hash candidates (and therefore equal-key
matches) in build-insertion order, so the emitted rows are probe-major
with build-insertion order inside a key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.types.collections import RowVector, _column_dtype
from repro.types.tuples import TupleType

__all__ = [
    "HashJoinBuild",
    "HashJoinSpec",
    "JoinKeyCodes",
    "emit_existence",
    "emit_probe_hits",
    "mix_hash",
    "outer_tail",
    "probe_morsel",
]

#: Fibonacci multiplier of the build/probe hash (the same constant family
#: as :class:`~repro.core.functions.HashPartition`).
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
_HASH_SHIFT = np.uint64(33)
#: Above every hash (``mix_hash`` keeps 31 bits): the last entry of a
#: build's ``sorted_hash``, so a probe hash's run start is always readable.
_HASH_SENTINEL = np.uint64(1 << 63)


def mix_hash(keys: np.ndarray) -> np.ndarray:
    """Multiplicative hash of an int64 key column (wrapping uint64 math)."""
    return (keys.astype(np.uint64) * _HASH_MULTIPLIER) >> _HASH_SHIFT


def _lookup(values: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Position of each ``probe`` value in the sorted distinct ``values``,
    or -1 where it is absent."""
    if len(values) == 0:
        return np.full(len(probe), -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(values, probe), len(values) - 1)
    return np.where(values[pos] == probe, pos, -1)


class JoinKeyCodes:
    """Int64 codes of the join keys, equal exactly when the keys are equal.

    A single integer-stored key (INT64, DATE, BOOL, string codes) is its
    own code, widened.  Any other key set — a FLOAT64 key, several keys —
    is factorized over the build side column by column: a column's sorted
    distinct build values number it densely, and each further column is
    folded in by numbering the distinct (codes so far, column code) pairs.
    A probe morsel looks its keys up in the same tables; a key the build
    side does not hold gets code -1, which no build row has.
    """

    def __init__(self, left: RowVector, key: str | tuple[str, ...]) -> None:
        self.keys = (key,) if isinstance(key, str) else tuple(key)
        first = left.column(self.keys[0])
        #: Per key column: its sorted distinct build values and, from the
        #: second column on, the sorted distinct folded pairs.
        self._levels: list[tuple[np.ndarray, np.ndarray | None]] | None = None
        if len(self.keys) == 1 and first.dtype.kind in "iub":
            self.build = first.astype(np.int64, copy=False)
            return
        self._levels = []
        codes = None
        for key in self.keys:
            values, column_codes = np.unique(left.column(key), return_inverse=True)
            pairs = None
            if codes is not None:
                pairs, column_codes = np.unique(
                    codes * len(values) + column_codes, return_inverse=True
                )
            self._levels.append((values, pairs))
            codes = column_codes
        self.build = codes.astype(np.int64, copy=False)

    def probe(self, right: RowVector) -> np.ndarray:
        """The codes of one probe morsel's keys (-1 where the build lacks them)."""
        if self._levels is None:
            return right.column(self.keys[0]).astype(np.int64, copy=False)
        codes = None
        for key, (values, pairs) in zip(self.keys, self._levels):
            column_codes = _lookup(values, right.column(key))
            if codes is not None:
                known = (codes >= 0) & (column_codes >= 0)
                folded = np.where(known, codes * len(values) + column_codes, -1)
                column_codes = _lookup(pairs, folded)
            codes = column_codes
        return codes


@dataclass(frozen=True)
class HashJoinSpec:
    """Shape of one join: policy, join attributes, and column layout of both sides."""

    join_type: str
    output_type: TupleType
    #: The join attribute, or a tuple of them for a multi-key join.
    key: str | tuple[str, ...]
    left_rest_pos: tuple[int, ...]
    right_rest_pos: tuple[int, ...]
    right_type: TupleType
    outer_fill: object

    @property
    def keys(self) -> tuple[str, ...]:
        return (self.key,) if isinstance(self.key, str) else tuple(self.key)


@dataclass
class HashJoinBuild:
    """Build-side state: the sorted-by-hash view of the left input."""

    left: RowVector
    codes: JoinKeyCodes
    order: np.ndarray
    #: The build's hashes in sorted order, then ``_HASH_SENTINEL``.
    sorted_hash: np.ndarray
    sorted_keys: np.ndarray
    #: ``run_end[i]``: the end of the equal-hash run holding sorted
    #: position ``i``; ``run_end[n] == n`` (the sentinel's).
    run_end: np.ndarray
    #: Build rows hit by some probe so far (left_outer bookkeeping).
    matched: np.ndarray

    @classmethod
    def from_rows(cls, left: RowVector, key: str | tuple[str, ...]) -> "HashJoinBuild":
        return cls.from_codes(left, JoinKeyCodes(left, key))

    @classmethod
    def from_codes(cls, left: RowVector, codes: JoinKeyCodes) -> "HashJoinBuild":
        build_hash = mix_hash(codes.build)
        order = np.argsort(build_hash, kind="stable")
        sorted_hash = build_hash[order]
        # One pass over the sorted hashes: every run's end, repeated over it.
        n = len(sorted_hash)
        ends = np.append(np.flatnonzero(sorted_hash[1:] != sorted_hash[:-1]) + 1, n)
        run_end = np.append(np.repeat(ends, np.diff(ends, prepend=0)), n)
        return cls(
            left=left,
            codes=codes,
            order=order,
            sorted_hash=np.append(sorted_hash, _HASH_SENTINEL),
            sorted_keys=codes.build[order],
            run_end=run_end,
            matched=np.zeros(len(left), dtype=bool),
        )


def probe_morsel(
    build: HashJoinBuild, right: RowVector, spec: HashJoinSpec
) -> RowVector:
    """Probe one right-side morsel against the sorted build side."""
    right_keys = build.codes.probe(right)
    n_right = len(right)
    probe_hash = mix_hash(right_keys)
    # The first position whose hash is not below the probe's: its run's
    # start when the hash is present (the sentinel stops a search that
    # passes every hash), else an empty run.
    lo = np.searchsorted(build.sorted_hash, probe_hash)
    hi = np.where(build.sorted_hash[lo] == probe_hash, build.run_end[lo], lo)
    counts = hi - lo
    total = int(counts.sum())
    # Candidate expansion: for probe row i, the run of sorted build
    # positions [lo[i], hi[i]) that share its hash value.
    right_cand = np.repeat(np.arange(n_right), counts)
    offsets = np.repeat(hi - np.cumsum(counts), counts)
    cand_pos = np.arange(total) + offsets
    # Collision chains: candidates share the hash, not necessarily the key.
    good = build.sorted_keys[cand_pos] == right_keys[right_cand]
    return emit_probe_hits(build, right, spec, cand_pos[good], right_cand[good])


def emit_probe_hits(
    build,
    right: RowVector,
    spec: HashJoinSpec,
    hit_pos: np.ndarray,
    hit_right: np.ndarray | slice,
) -> RowVector:
    """Assemble one morsel's output rows from resolved candidate hits.

    Shared by the sorted-hash and radix kernels: ``hit_pos`` indexes the
    build side in *sorted position* (``build.order[hit_pos]`` recovers the
    original row; an ``order`` of ``None`` is the identity), ``hit_right``
    indexes the probe morsel, and both are ordered probe-row-major with
    matches in build-insertion order — the emission contract both kernels
    are bit-identical under.  ``hit_right`` is ``slice(None)`` when every
    probe row hits exactly once: the probe's columns then pass through as
    views.  The key columns are the probe side's own.
    """
    if spec.join_type in ("inner", "left_outer"):
        if spec.join_type == "left_outer":
            build.matched[hit_pos] = True
        left_idx = hit_pos if build.order is None else build.order[hit_pos]
        columns = [right.column(key)[hit_right] for key in spec.keys]
        columns += [build.left.columns[p][left_idx] for p in spec.left_rest_pos]
        columns += [right.columns[p][hit_right] for p in spec.right_rest_pos]
        return RowVector(spec.output_type, columns)

    if not isinstance(hit_right, slice):
        has_hit = np.zeros(len(right), dtype=bool)
        has_hit[hit_right] = True
        hit_right = has_hit
    return emit_existence(right, spec, hit_right)


def emit_existence(
    right: RowVector, spec: HashJoinSpec, has_hit: np.ndarray | slice
) -> RowVector:
    """A semi / anti probe's output rows: the probe rows that have (semi)
    or lack (anti) a match, in probe order.  ``has_hit`` is a per-row mask,
    or ``slice(None)`` when every probe row hits (the semi columns then
    pass through as views)."""
    if isinstance(has_hit, slice):
        sel = has_hit if spec.join_type == "semi" else slice(0)
    else:
        sel = np.flatnonzero(has_hit if spec.join_type == "semi" else ~has_hit)
    columns = [right.column(key)[sel] for key in spec.keys]
    columns += [right.columns[p][sel] for p in spec.right_rest_pos]
    return RowVector(spec.output_type, columns)


def outer_tail(build: HashJoinBuild, spec: HashJoinSpec) -> RowVector:
    """Unmatched build rows, in insertion order, padded with ``outer_fill``
    on the right."""
    left_idx = np.flatnonzero(~build.matched)
    if build.order is not None:
        left_idx = np.sort(build.order[left_idx])
    n = len(left_idx)
    columns: list[np.ndarray] = [build.left.column(key)[left_idx] for key in spec.keys]
    columns += [build.left.columns[p][left_idx] for p in spec.left_rest_pos]
    for p in spec.right_rest_pos:
        name = spec.right_type.field_names[p]
        dtype = _column_dtype(spec.right_type[name])
        columns.append(np.full(n, spec.outer_fill, dtype=dtype))
    return RowVector(spec.output_type, columns)
