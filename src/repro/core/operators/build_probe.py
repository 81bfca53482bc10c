"""BuildProbe: in-memory hash join of two upstreams (§3.3.2).

Builds a hash table from the *left* upstream on the join attributes, then
streams the *right* upstream probing it.  This single operator is where
join-variant semantics live; supporting semi/anti/outer joins means
changing only the small probe policy below — the extensibility argument of
paper Section 5.1.1 ("to support other join types we only need to modify
the HashProbe operator that consists of 103 lines").

The data path delegates to the vectorized join kernels
(:mod:`repro.core.kernels`) over int64 key codes, whatever the key types
and count: a sorted-hash build (one stable sort by hash value, then
per-morsel ``searchsorted`` probes) or a radix direct-address build — the
operator never materializes the probe side.  The operator owns the join's
plan-level contract (types, policies, cost charging); the kernels own the
numpy machinery.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.context import ExecutionContext
from repro.core.kernels.hash_join import HashJoinSpec, outer_tail
from repro.core.kernels.radix_join import select_join_kernel
from repro.core.lockstep import Lockstep, Step, drained_vectors, pulled
from repro.core.operator import Operator, join_output_type
from repro.errors import TypeCheckError
from repro.types.collections import RowVector

__all__ = ["BuildProbe", "JOIN_TYPES"]

#: Supported join variants.  ``inner`` emits matching combinations;
#: ``semi``/``anti`` emit right tuples with/without a build-side match;
#: ``left_outer`` additionally emits unmatched build tuples padded with
#: ``outer_fill`` on the probe side.
JOIN_TYPES = ("inner", "semi", "anti", "left_outer")


class BuildProbe(Operator):
    """Join left and right upstreams on equal values of ``keys``.

    Output tuples consist of the join attributes followed by the remaining
    left fields and the remaining right fields; the non-key field names of
    the two sides must be distinct.
    """

    abbreviation = "BP"
    phase_name = "build_probe"
    side_inputs = frozenset({0})
    heavy_loop = True

    def __init__(
        self,
        left: Operator,
        right: Operator,
        keys: tuple[str, ...] | str,
        join_type: str = "inner",
        outer_fill: object = 0,
    ) -> None:
        if isinstance(keys, str):
            keys = (keys,)
        if not keys:
            raise TypeCheckError("BuildProbe needs at least one join attribute")
        if join_type not in JOIN_TYPES:
            raise TypeCheckError(
                f"unknown join type {join_type!r}; supported: {JOIN_TYPES}"
            )
        self.keys = tuple(keys)
        self.join_type = join_type
        self.outer_fill = outer_fill
        super().__init__(upstreams=(left, right))

        left_type, right_type = left.output_type, right.output_type
        left_rest = left_type.drop(self.keys)
        right_rest = right_type.drop(self.keys)
        self._left_rest_pos = tuple(
            left_type.position(f) for f in left_rest.field_names
        )
        self._right_rest_pos = tuple(
            right_type.position(f) for f in right_rest.field_names
        )

    def infer_type(self, upstream_types):
        return join_output_type(*upstream_types, self.keys, self.join_type)

    def signature(self) -> tuple:
        return (self.keys, self.join_type)

    def spec(self) -> HashJoinSpec:
        """The join's shape, as the kernels read it."""
        return HashJoinSpec(
            join_type=self.join_type,
            output_type=self.output_type,
            key=self.keys,
            left_rest_pos=self._left_rest_pos,
            right_rest_pos=self._right_rest_pos,
            right_type=self.upstreams[1].output_type,
            outer_fill=self.outer_fill,
        )

    def build(self, ctx: ExecutionContext, left: RowVector, built=()):
        """Charge and build the hash side ``left``, sharing a twin among the
        earlier lanes' ``built``; ⟨label, build, probe function⟩."""
        ctx.charge_cpu(self, "build", len(left))
        # The kernels module owns the radix-vs-sorted-hash dispatch; the
        # returned label is the join_dispatch{path} metric value.
        path, build, probe = select_join_kernel(ctx.options.join_kernel, left, self.keys, built)
        metrics = ctx.registry
        if metrics is not None:
            metrics.counter("join_dispatch", path=path).inc()
            metrics.counter("join_build_rows", op=type(self).__name__).add(len(left))
        return path, build, probe

    def lanes(self, lx: Lockstep) -> Iterator[Step]:
        # Each lane probes its own build, which its data decides; a lane
        # whose join keys equal an earlier lane's (every lane of a
        # broadcast) shares that lane's build, and still charges and
        # counts its own.
        spec = self.spec()
        left = self.upstreams[0]
        lefts = drained_vectors(left, pulled(left, lx), lx)
        builds = []
        for ctx, vector in zip(lx.ctxs, lefts):
            builds.append(self.build(ctx, vector, builds))
        del lefts
        yielded = [False] * len(lx.ctxs)
        for step in pulled(self.upstreams[1], lx):
            lanes, outs = [], []
            for lane, batch in zip(step.lanes, step.parts):
                _, build, probe = builds[lane]
                out = probe(build, batch, spec)
                # Every policy charges one unit per probe tuple plus one per
                # emitted tuple.
                lx.ctxs[lane].charge_cpu(self, "probe", len(batch) + len(out))
                if len(out):
                    lanes.append(lane)
                    outs.append(out)
                    yielded[lane] = True
            if lanes:
                yield Step(lanes, outs)

        if self.join_type == "left_outer":
            # outer_tail reads only the (order, matched) contract both
            # builds share, so one tail routine serves either kernel.
            tails = [(lane, outer_tail(build, spec)) for lane, (_, build, _) in enumerate(builds)]
            tails = [(lane, tail) for lane, tail in tails if len(tail)]
            for lane, _ in tails:
                yielded[lane] = True
            if tails:
                yield Step([lane for lane, _ in tails],
                           [tail for _, tail in tails])
        empty = [lane for lane, done in enumerate(yielded) if not done]
        if empty:
            yield Step(empty,
                       [RowVector.empty(self.output_type) for _ in empty])
