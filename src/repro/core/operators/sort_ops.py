"""Sort-based sub-operators: LocalSort and MergeJoin.

The paper names "(partial) sorting" among the operations that fine-grained
sub-operators make offloadable and re-composable (§1), and its related
work revisits the classic sort-vs-hash join question [Kim et al.].  These
two operators let the same distributed join plan of Figure 3 swap its
innermost hash build/probe for a sort-merge join by replacing exactly one
plan fragment — the ablation in ``benchmarks/test_sort_vs_hash.py``.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from repro.core.context import ExecutionContext
from repro.core.lockstep import Lockstep, Step, drained_vectors, each_lane, steps
from repro.core.operator import Operator, join_output_type, require_fields
from repro.errors import ExecutionError, TypeCheckError
from repro.types.collections import RowVector

__all__ = ["LocalSort", "MergeJoin"]


class LocalSort(Operator):
    """Materialize and sort the upstream by ``keys``.

    A blocking operator: it consumes its whole input before emitting the
    first tuple.  The cost model charges ``n · log2(n)`` comparison steps,
    the textbook in-cache sort cost.
    """

    abbreviation = "LS"
    phase_name = "sort"
    breaks_pipeline = True

    def __init__(
        self,
        upstream: Operator,
        keys: Sequence[str] | str,
        descending: bool | Sequence[bool] = False,
    ) -> None:
        if isinstance(keys, str):
            keys = (keys,)
        if not keys:
            raise TypeCheckError("LocalSort needs at least one sort key")
        self.keys = tuple(keys)
        if isinstance(descending, bool):
            self.descending = (descending,) * len(self.keys)
        else:
            self.descending = tuple(descending)
            if len(self.descending) != len(self.keys):
                raise TypeCheckError(
                    "per-key sort directions must match the number of keys"
                )
        super().__init__(upstreams=(upstream,))
        self._positions = tuple(upstream.output_type.position(k) for k in self.keys)

    def infer_type(self, upstream_types):
        (upstream,) = upstream_types
        require_fields("LocalSort", upstream, self.keys)
        for key, desc in zip(self.keys, self.descending):
            kind = getattr(upstream[key], "domain_kind", "O")
            if desc and kind not in "iuf":
                raise TypeCheckError(
                    f"descending sort key {key!r} is a {upstream[key]!r}; a key "
                    "sorts descending by negation, so it must be numeric",
                    "MOD003",
                )
        return upstream

    def signature(self) -> tuple:
        return (self.keys, self.descending)

    def _charge(self, ctx: ExecutionContext, n: int) -> None:
        if n > 1:
            ctx.charge_cpu(self, "sort", n * max(1, math.ceil(math.log2(n))))

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        data = self.upstreams[0]
        vectors = drained_vectors(data, steps(data, lx), lx)
        yield each_lane([
            self.sort(ctx, vector) for ctx, vector in zip(lx.ctxs, vectors)
        ])

    def sort(self, ctx: ExecutionContext, data: RowVector) -> RowVector:
        """Charge and sort the drained input ``data``."""
        self._charge(ctx, len(data))
        if len(data) == 0:
            return data
        key_columns = []
        for position, desc in zip(reversed(self._positions), reversed(self.descending)):
            column = data.columns[position]
            key_columns.append(-column if desc else column)
        return data.take(np.lexsort(key_columns))


class MergeJoin(Operator):
    """Join two *sorted* inputs on a single key by merging (§ sort-vs-hash).

    Both upstreams must arrive sorted ascending by ``key`` (violations are
    detected at runtime).  Output layout matches ``BuildProbe``: the key,
    the remaining left fields, then the remaining right fields.  The merge
    costs one sequential step per input/output tuple — cheaper per tuple
    than hash probing, which is the whole point of sorting first.
    """

    abbreviation = "MJ"
    phase_name = "build_probe"
    side_inputs = frozenset({0, 1})
    heavy_loop = True

    def __init__(
        self,
        left: Operator,
        right: Operator,
        key: str,
        join_type: str = "inner",
    ) -> None:
        if join_type not in ("inner", "semi", "anti"):
            raise TypeCheckError(f"MergeJoin does not support join type {join_type!r}")
        self.key = key
        self.join_type = join_type
        super().__init__(upstreams=(left, right))
        left_type, right_type = left.output_type, right.output_type
        left_rest = left_type.drop((key,))
        right_rest = right_type.drop((key,))
        self._left_key = left_type.position(key)
        self._right_key = right_type.position(key)
        self._left_rest = tuple(left_type.position(f) for f in left_rest.field_names)
        self._right_rest = tuple(
            right_type.position(f) for f in right_rest.field_names
        )

    def infer_type(self, upstream_types):
        return join_output_type(*upstream_types, (self.key,), self.join_type)

    def signature(self) -> tuple:
        return (self.key, self.join_type)

    @staticmethod
    def _check_sorted(keys: np.ndarray, side: str) -> None:
        if len(keys) > 1 and not (keys[1:] >= keys[:-1]).all():
            raise ExecutionError(
                f"MergeJoin {side} input is not sorted by the join key; "
                "insert a LocalSort upstream"
            )

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        lefts, rights = (drained_vectors(up, steps(up, lx), lx) for up in self.upstreams)
        yield each_lane([
            self.merge(ctx, left, right) for ctx, left, right in zip(lx.ctxs, lefts, rights)
        ])

    def merge(self, ctx: ExecutionContext, left: RowVector, right: RowVector) -> RowVector:
        """Charge and merge-join the drained, sorted inputs."""
        left_keys = np.asarray(left.columns[self._left_key])
        right_keys = np.asarray(right.columns[self._right_key])
        self._check_sorted(left_keys, "left")
        self._check_sorted(right_keys, "right")

        lo = np.searchsorted(left_keys, right_keys, side="left")
        hi = np.searchsorted(left_keys, right_keys, side="right")
        match_counts = hi - lo

        if self.join_type in ("semi", "anti"):
            keep = match_counts > 0 if self.join_type == "semi" else match_counts == 0
            ctx.charge_cpu(self, "merge", len(left) + len(right))
            idx = np.flatnonzero(keep)
            columns = [right_keys[idx]]
            columns += [right.columns[p][idx] for p in self._right_rest]
            return RowVector(self.output_type, columns)

        emitted = int(match_counts.sum())
        ctx.charge_cpu(self, "merge", len(left) + len(right) + emitted)
        right_idx = np.repeat(np.arange(len(right)), match_counts)
        offsets = np.repeat(hi - np.cumsum(match_counts), match_counts)
        left_idx = np.arange(emitted) + offsets
        columns = [right_keys[right_idx]]
        columns += [left.columns[p][left_idx] for p in self._left_rest]
        columns += [right.columns[p][right_idx] for p in self._right_rest]
        return RowVector(self.output_type, columns)
