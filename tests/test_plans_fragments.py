"""The plan fragments as a public surface of their own.

The builders' suites (``test_plans_*.py``, ``test_planner_fanout.py``) are
the witnesses that the fragments reproduce every existing plan; here a plan
no builder produces is written from fragments alone, and each fragment's
own contract — a local level only when asked for, the compressed wire
format, the phase each histogram is charged to — is pinned down.
"""

import numpy as np
import pytest

from repro import RunOptions
from repro.analysis import verify
from repro.core.compression import RadixCompression
from repro.core.functions import (
    HashPartition,
    ParamTupleFunction,
    RadixPartition,
    field_sum,
)
from repro.core.operators import (
    BuildProbe,
    LocalPartitioning,
    MaterializeRowVector,
    MpiExchange,
    NestedMap,
    ParameterLookup,
    ParameterSlot,
    ParametrizedMap,
    Projection,
    ReduceByKey,
    RowScan,
)
from repro.core.plan import walk
from repro.core.plans.fragments import (
    DistributedPlan,
    collect,
    exchange,
    field_scan,
    local_level,
    partitioned_join,
    sharded_scan,
)
from repro.errors import PlanVerificationError
from repro.mpi.cluster import SimCluster
from repro.types import INT64, RowVector, TupleType, row_vector_type

from tests.conftest import KV, make_kv_table

MODES = ("fused", "interpreted")
NAMES = ("a", "b", "c")
N_KEYS = 96


def relation(name: str, copies: int, seed: int) -> RowVector:
    """``copies`` rows per key of a shuffled ⟨key, name⟩ relation."""
    rng = np.random.default_rng(seed)
    keys = rng.permutation(np.repeat(np.arange(N_KEYS, dtype=np.int64), copies))
    values = rng.integers(0, 1000, len(keys))
    return RowVector(TupleType.of(key=INT64, **{name: INT64}), [keys, values])


RELATIONS = [relation("a", 2, seed=1), relation("b", 1, seed=2), relation("c", 3, seed=3)]


def three_way_sum(cluster: SimCluster, local_fanout: int | None) -> DistributedPlan:
    """``SELECT key, sum(c), sum(b), sum(a) FROM a ⋈ b ⋈ c GROUP BY key``:
    a three-input same-key join, hash-partitioned at both levels, with a
    real post-aggregation at every nesting boundary."""
    n_net = cluster.n_ranks
    slot = ParameterSlot(
        TupleType.of(
            **{n: row_vector_type(r.element_type) for n, r in zip(NAMES, RELATIONS)}
        )
    )

    def chain(scans):
        acc = scans[0]
        for side in scans[1:]:
            acc = BuildProbe(side, acc, keys="key")
        return acc  # ⟨key, c, b, a⟩

    def merge(stream):
        return ReduceByKey(stream, "key", field_sum("c", "b", "a"))

    def build_worker(worker_slot):
        flat = partitioned_join(
            [sharded_scan(worker_slot, name) for name in NAMES],
            NAMES,
            lambda stream, id_field, data_field: exchange(
                stream, HashPartition("key", n_net, salt=0), id_field, data_field
            ),
            None if local_fanout is None
            else lambda: HashPartition("key", local_fanout, salt=1),
            chain, merge, "agg",
        )
        return MaterializeRowVector(merge(flat), field="result")

    executor, flat = collect(slot, build_worker, cluster)
    root = MaterializeRowVector(merge(flat), field="result")
    return DistributedPlan(root, slot, executor, root.output_type, cluster)


def reference() -> dict[int, tuple[int, int, int]]:
    """Per key ⟨sum c, sum b, sum a⟩ over the 2·1·3 joined combinations."""
    sums, counts = {}, {}
    for name, rel in zip(NAMES, RELATIONS):
        sums[name] = np.bincount(rel.column("key"), rel.column(name), N_KEYS)
        counts[name] = np.bincount(rel.column("key"), minlength=N_KEYS)
    combos = counts["a"] * counts["b"] * counts["c"]
    per_key = [sums[n] * combos // counts[n] for n in ("c", "b", "a")]
    return {k: tuple(int(col[k]) for col in per_key) for k in range(N_KEYS)}


def rows_of(vector: RowVector) -> dict[int, tuple]:
    columns = [vector.column(f).tolist() for f in vector.element_type.field_names]
    rows = list(zip(*columns))
    assert len({row[0] for row in rows}) == len(rows)  # one row per key
    return {row[0]: row[1:] for row in rows}


class TestAPlanNoBuilderProduces:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("ranks", [1, 3, 4])
    def test_three_way_join_matches_numpy(self, ranks, mode):
        plan = three_way_sum(SimCluster(ranks), local_fanout=4)
        assert [d for d in verify(plan.root) if d.is_error] == []
        report = plan.execute(tuple(RELATIONS), RunOptions(mode=mode))
        assert rows_of(plan.result(report)) == reference()

    def test_a_mismatched_ladder_would_be_caught(self):
        """MOD012 is live on fragment-built plans: the same plan with one
        exchange routing by another function than its histograms counted
        with fails verification."""
        plan = three_way_sum(SimCluster(4), local_fanout=4)
        ladder = next(
            op for op in walk(plan.root, into_nested=True)
            if isinstance(op, MpiExchange)
        )
        ladder.partition_fn = HashPartition("key", 4, salt=2)
        with pytest.raises(PlanVerificationError, match="MOD012"):
            verify(plan.root)


class TestLocalLevelIsTheCallersChoice:
    @pytest.mark.parametrize("mode", MODES)
    def test_none_plans_no_level_and_a_factory_plans_one(self, mode):
        shapes = {}
        for local_fanout in (None, 4):
            plan = three_way_sum(SimCluster(3), local_fanout)
            levels = [
                op for op in walk(plan.root, into_nested=True)
                if isinstance(op, LocalPartitioning)
            ]
            report = plan.execute(tuple(RELATIONS), RunOptions(mode=mode))
            shapes[local_fanout] = (
                len(levels),
                report.phase_breakdown().get("local_partition", 0.0) > 0,
                rows_of(plan.result(report)),
            )
            # The exchange's own histograms are charged either way.
            assert report.phase_breakdown()["local_histogram"] > 0
        assert shapes[None][:2] == (0, False)
        assert shapes[4][:2] == (len(NAMES), True)
        assert shapes[None][2] == shapes[4][2] == reference()


def run_partitioned(cluster, table, partition, inner):
    """Run ``partition(scan)`` over this rank's shard of a ⟨key, value⟩
    ``table`` and ``inner`` (→ a ``rows`` vector) per partition tuple;
    returns the concatenated rows and the report."""
    slot = ParameterSlot(TupleType.of(t=row_vector_type(KV)))

    def build_worker(worker_slot):
        partitioned = partition(sharded_scan(worker_slot, "t"))
        flat = RowScan(NestedMap(partitioned, inner), field="rows")
        return MaterializeRowVector(flat, field="result")

    executor, flat = collect(slot, build_worker, cluster)
    root = MaterializeRowVector(flat, field="result")
    plan = DistributedPlan(root, slot, executor, root.output_type, cluster)
    report = plan.execute((table,), None)
    return plan.result(report), report


def rows_from(part_field):
    """A nested plan handing a partition tuple's rows through unchanged."""
    return lambda part: MaterializeRowVector(field_scan(part, part_field), field="rows")


class TestExchangeWireFormat:
    @pytest.mark.parametrize("ranks", [1, 4])
    def test_radix_compression_round_trips(self, ranks):
        """Rows packed by ``exchange(..., compression)`` unpack, with their
        partition id, to exactly the rows the uncompressed ladder delivers."""
        table = make_kv_table(512, seed=5)
        comp = RadixCompression(key_bits=10, fanout_bits=2)

        def unpacked(part):
            pid = Projection(ParameterLookup(part), ["net"])
            fn = ParamTupleFunction(lambda p, r: comp.unpack(r[0], p[0]), KV)
            stream = ParametrizedMap(field_scan(part, "data"), pid, fn)
            return MaterializeRowVector(stream, field="rows")

        def delivered(compression, inner):
            out, _ = run_partitioned(
                SimCluster(ranks), table,
                lambda scan: exchange(
                    scan, RadixPartition("key", 4), "net", "data", compression
                ),
                inner,
            )
            return out.column("key").tolist(), out.column("value").tolist()

        plain = delivered(None, rows_from("data"))
        assert delivered(comp, unpacked) == plain
        assert sorted(zip(*plain)) == sorted(
            zip(table.column("key").tolist(), table.column("value").tolist())
        )


class TestPhaseAttribution:
    def test_each_histogram_is_charged_to_its_fragments_phase(self):
        """A plan with only a local level charges ``local_partition`` and no
        ``local_histogram``; a plan with only an exchange the reverse."""
        table = make_kv_table(512, seed=7)

        def phases(partition, part_field):
            out, report = run_partitioned(
                SimCluster(2), table, partition, rows_from(part_field)
            )
            assert len(out) == len(table)
            return {k for k, v in report.phase_breakdown().items() if v > 0}

        local = phases(
            lambda scan: local_level(scan, HashPartition("key", 4), "sub", "sd"), "sd"
        )
        net = phases(
            lambda scan: exchange(scan, HashPartition("key", 2), "net", "data"), "data"
        )
        assert "local_partition" in local and "local_histogram" not in local
        assert "local_histogram" in net and "local_partition" not in net
