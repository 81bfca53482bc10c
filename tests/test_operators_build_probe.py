"""Unit tests for BuildProbe and its join variants."""

import numpy as np
import pytest

from repro.core.context import ExecutionContext
from repro.core.options import RunOptions
from repro.core.operators import BuildProbe, RowScan
from repro.core.operators.build_probe import JOIN_TYPES
from repro.errors import TypeCheckError
from repro.types import BOOL, FLOAT64, INT64, RowVector, TupleType

from tests.conftest import table_source

L = TupleType.of(key=INT64, lv=INT64)
R = TupleType.of(key=INT64, rv=INT64)


def side(rows, schema, ctx):
    return RowScan(table_source(RowVector.from_rows(schema, rows), ctx), field="t")


def reference_inner(left_rows, right_rows):
    out = []
    for rk, rv in right_rows:
        for lk, lv in left_rows:
            if lk == rk:
                out.append((rk, lv, rv))
    return sorted(out)


def nested_loop(left_rows, right_rows, n_keys, join_type):
    """``BuildProbe``'s emission order, by nested loops over rows whose
    first ``n_keys`` fields are the keys (outer fill 0)."""
    out, matched = [], set()
    for r in right_rows:
        hits = [i for i, l in enumerate(left_rows) if l[:n_keys] == r[:n_keys]]
        if join_type in ("semi", "anti"):
            out += [r] if bool(hits) == (join_type == "semi") else []
            continue
        matched.update(hits)
        out += [r[:n_keys] + left_rows[i][n_keys:] + r[n_keys:] for i in hits]
    if join_type == "left_outer":
        pad = (0,) * (len(right_rows[0]) - n_keys)
        out += [l + pad for i, l in enumerate(left_rows) if i not in matched]
    return out


class TestInnerJoin:
    def test_matches_nested_loop_reference(self, ctx):
        left = [(1, 10), (2, 20), (2, 21), (5, 50)]
        right = [(2, 200), (2, 201), (5, 500), (9, 900)]
        bp = BuildProbe(side(left, L, ctx), side(right, R, ctx), keys="key")
        assert sorted(bp.stream(ctx)) == reference_inner(left, right)

    def test_output_type_layout(self, ctx):
        bp = BuildProbe(side([], L, ctx), side([], R, ctx), keys="key")
        assert bp.output_type.field_names == ("key", "lv", "rv")

    def test_duplicates_multiply(self, ctx):
        left = [(7, 1), (7, 2), (7, 3)]
        right = [(7, 10), (7, 20)]
        bp = BuildProbe(side(left, L, ctx), side(right, R, ctx), keys="key")
        assert len(list(bp.stream(ctx))) == 6

    def test_empty_sides(self, ctx):
        bp = BuildProbe(side([], L, ctx), side([(1, 1)], R, ctx), keys="key")
        assert list(bp.stream(ctx)) == []
        bp2 = BuildProbe(side([(1, 1)], L, ctx), side([], R, ctx), keys="key")
        assert list(bp2.stream(ctx)) == []

    def test_modes_agree(self):
        rng = np.random.default_rng(0)
        left = [(int(k), int(k) * 2) for k in rng.integers(0, 50, 200)]
        right = [(int(k), int(k) * 3) for k in rng.integers(0, 50, 200)]
        outs = []
        for mode in ("fused", "interpreted"):
            ctx = ExecutionContext(options=RunOptions(mode=mode))
            bp = BuildProbe(side(left, L, ctx), side(right, R, ctx), keys="key")
            outs.append(sorted(bp.stream(ctx)))
        assert outs[0] == outs[1]

    def test_multi_key_join(self, ctx):
        l2 = TupleType.of(a=INT64, b=INT64, lv=INT64)
        r2 = TupleType.of(a=INT64, b=INT64, rv=INT64)
        left = [(1, 1, 10), (1, 2, 20)]
        right = [(1, 1, 100), (1, 3, 300)]
        bp = BuildProbe(side(left, l2, ctx), side(right, r2, ctx), keys=("a", "b"))
        assert list(bp.stream(ctx)) == [(1, 1, 10, 100)]

    @pytest.mark.parametrize("join_type", JOIN_TYPES)
    @pytest.mark.parametrize("join_kernel", ["sorted", "radix"])
    def test_keys_other_than_one_integer_run_on_codes(self, join_type, join_kernel):
        """A FLOAT64 key and a (BOOL, INT64) key pair are factorized into
        the kernels' int64 codes: the rows are the nested-loop join's,
        probe-major with build-insertion order inside a key and the outer
        tail in insertion order (-0.0 equals 0.0; the probe's key is kept)."""
        ctx = ExecutionContext(options=RunOptions(join_kernel=join_kernel, morsel_rows=2))
        float_side = TupleType.of(key=FLOAT64, v=INT64)
        pair_side = TupleType.of(flag=BOOL, key=INT64, v=INT64)
        cases = [
            (float_side, [(0.5, 1), (-0.0, 2), (0.5, 3), (2.25, 4)],
             [(0.0, 10), (0.5, 20), (7.0, 30), (0.5, 40)], ("key",)),
            (pair_side, [(True, 1, 1), (False, 1, 2), (True, 1, 3), (True, 9, 4)],
             [(False, 1, 10), (True, 1, 20), (True, 2, 30), (False, 9, 40)],
             ("flag", "key")),
        ]
        for schema, left, right, keys in cases:
            rschema = schema.rename({"v": "w"})
            bp = BuildProbe(
                side(left, schema, ctx), side(right, rschema, ctx), keys=keys,
                join_type=join_type,
            )
            assert list(bp.stream(ctx)) == nested_loop(left, right, len(keys), join_type)


class TestVariants:
    LEFT = [(1, 10), (2, 20)]
    RIGHT = [(2, 200), (3, 300), (2, 201)]

    def test_semi_keeps_matching_right_rows(self, ctx):
        bp = BuildProbe(
            side(self.LEFT, L, ctx), side(self.RIGHT, R, ctx), keys="key",
            join_type="semi",
        )
        assert sorted(bp.stream(ctx)) == [(2, 200), (2, 201)]
        assert bp.output_type.field_names == ("key", "rv")

    def test_anti_keeps_unmatched_right_rows(self, ctx):
        bp = BuildProbe(
            side(self.LEFT, L, ctx), side(self.RIGHT, R, ctx), keys="key",
            join_type="anti",
        )
        assert list(bp.stream(ctx)) == [(3, 300)]

    def test_semi_emits_each_right_row_once(self, ctx):
        # Duplicate build keys must not duplicate semi-join output (EXISTS).
        left = [(2, 1), (2, 2), (2, 3)]
        bp = BuildProbe(
            side(left, L, ctx), side([(2, 99)], R, ctx), keys="key",
            join_type="semi",
        )
        assert list(bp.stream(ctx)) == [(2, 99)]

    def test_left_outer_pads_unmatched_build_rows(self, ctx):
        bp = BuildProbe(
            side(self.LEFT, L, ctx), side(self.RIGHT, R, ctx), keys="key",
            join_type="left_outer", outer_fill=-1,
        )
        rows = sorted(bp.stream(ctx))
        assert (1, 10, -1) in rows  # unmatched build row padded
        assert (2, 20, 200) in rows and (2, 20, 201) in rows

    def test_unknown_join_type_rejected(self, ctx):
        with pytest.raises(TypeCheckError, match="unknown join type"):
            BuildProbe(side([], L, ctx), side([], R, ctx), keys="key", join_type="full")


class TestTypeChecking:
    def test_missing_key_rejected(self, ctx):
        with pytest.raises(TypeCheckError, match="lacks fields"):
            BuildProbe(side([], L, ctx), side([], R, ctx), keys="ghost")

    def test_key_type_mismatch_rejected(self, ctx):
        rf = TupleType.of(key=FLOAT64, rv=INT64)
        with pytest.raises(TypeCheckError, match="has type"):
            BuildProbe(side([], L, ctx), side([], rf, ctx), keys="key")

    def test_shared_payload_names_rejected(self, ctx):
        same = TupleType.of(key=INT64, lv=INT64)
        with pytest.raises(TypeCheckError, match="shared field names"):
            BuildProbe(side([], L, ctx), side([], same, ctx), keys="key")

    def test_no_keys_rejected(self, ctx):
        with pytest.raises(TypeCheckError, match="at least one join attribute"):
            BuildProbe(side([], L, ctx), side([], R, ctx), keys=())
