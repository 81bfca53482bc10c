"""Communication-safety rules (MOD010–MOD013), incl. the static race check.

The headline case: an ``MpiExchange`` whose histogram ladder disagrees
with its partition function writes overlapping RMA window regions — today
a mid-execution ``MpiSemanticsError`` from ``Window.write``; here
the analyzer proves it *before* execution (MOD012), without running a
single tuple.
"""

from repro.analysis import analyze
from repro.core.functions import RadixPartition
from repro.core.operators import (
    Limit,
    LocalHistogram,
    MaterializeRowVector,
    MpiBroadcast,
    MpiExchange,
    MpiExecutor,
    MpiHistogram,
    NestedMap,
    ParameterLookup,
    ParameterSlot,
    RowScan,
)
from repro.core.plan import prepare
from repro.core.plans import build_distributed_join
from repro.mpi.cluster import SimCluster
from repro.types import INT64, TupleType, row_vector_type

from tests.conftest import KV

T = TupleType.of(t=row_vector_type(KV))
TT = TupleType.of(
    t1=row_vector_type(KV),
    t2=row_vector_type(TupleType.of(key=INT64, other=INT64)),
)


def cluster_plan(build_inner, param_type=T):
    """Wrap a nested plan in an MpiExecutor, the canonical plan shape."""
    driver = ParameterLookup(ParameterSlot(param_type))
    return MaterializeRowVector(
        RowScan(MpiExecutor(driver, build_inner, SimCluster(2)))
    )


def errors_of(plan):
    return [d for d in analyze(plan) if d.is_error]


def rules_of(diagnostics):
    return {d.rule.id for d in diagnostics}


def good_exchange(slot):
    scan = RowScan(ParameterLookup(slot), field="t", shard_by_rank=True)
    net = RadixPartition("key", 4)
    local = LocalHistogram(scan, net)
    global_ = MpiHistogram(local, 4)
    return MaterializeRowVector(
        RowScan(MpiExchange(scan, local, global_, net), field="data")
    )


class TestEpochDiscipline:
    def test_known_good_ladder_is_clean(self):
        assert errors_of(cluster_plan(good_exchange)) == []

    def test_mod012_overlapping_window_regions_caught_statically(self):
        # The histogram buckets by the *high* radix bits (shift=2) while
        # the exchange routes by the low bits: the pre-computed exclusive
        # offsets do not match the actual write targets, so ranks write
        # overlapping window regions — a data race on real RDMA hardware,
        # a SimulationError in the simulator, and as of this pass a
        # build-time diagnostic.
        def bad_inner(slot):
            scan = RowScan(ParameterLookup(slot), field="t", shard_by_rank=True)
            local = LocalHistogram(scan, RadixPartition("key", 4, shift=2))
            global_ = MpiHistogram(local, 4)
            exchange = MpiExchange(
                scan, local, global_, RadixPartition("key", 4)
            )
            return MaterializeRowVector(RowScan(exchange, field="data"))

        findings = errors_of(cluster_plan(bad_inner))
        assert rules_of(findings) == {"MOD012"}
        assert "overlap" in findings[0].message

    def test_mod012_histogram_over_different_data(self):
        # The ladder counts table t1 but the exchange ships table t2:
        # promised region sizes do not bound the actual writes.
        def bad_inner(slot):
            counted = RowScan(ParameterLookup(slot), field="t1")
            shipped = RowScan(ParameterLookup(slot), field="t2")
            net = RadixPartition("key", 4)
            local = LocalHistogram(counted, net)
            global_ = MpiHistogram(local, 4)
            exchange = MpiExchange(shipped, local, global_, net)
            return MaterializeRowVector(RowScan(exchange, field="data"))

        findings = errors_of(cluster_plan(bad_inner, param_type=TT))
        assert rules_of(findings) == {"MOD012"}
        assert "different one" in findings[0].message

    def test_mod012_wrong_bucket_count(self):
        def bad_inner(slot):
            scan = RowScan(ParameterLookup(slot), field="t", shard_by_rank=True)
            local = LocalHistogram(scan, RadixPartition("key", 2))
            global_ = MpiHistogram(local, 2)
            exchange = MpiExchange(
                scan, local, global_, RadixPartition("key", 4)
            )
            return MaterializeRowVector(RowScan(exchange, field="data"))

        findings = errors_of(cluster_plan(bad_inner))
        assert rules_of(findings) == {"MOD012"}

    def test_equal_but_distinct_partition_fns_are_equivalent(self):
        # Structural equivalence, not object identity: two separately
        # constructed RadixPartition("key", 4) route identically, and two
        # separately constructed scan chains over the same slot read the
        # same stream.
        def inner(slot):
            scan_a = RowScan(ParameterLookup(slot), field="t", shard_by_rank=True)
            scan_b = RowScan(ParameterLookup(slot), field="t", shard_by_rank=True)
            local = LocalHistogram(scan_a, RadixPartition("key", 4))
            global_ = MpiHistogram(local, 4)
            exchange = MpiExchange(
                scan_b, local, global_, RadixPartition("key", 4)
            )
            return MaterializeRowVector(RowScan(exchange, field="data"))

        assert errors_of(cluster_plan(inner)) == []

    def test_mod012_broadcast_with_multi_bucket_histogram(self):
        def bad_inner(slot):
            scan = RowScan(ParameterLookup(slot), field="t", shard_by_rank=True)
            local = LocalHistogram(scan, RadixPartition("key", 4))
            global_ = MpiHistogram(local, 4)
            return MaterializeRowVector(MpiBroadcast(scan, local, global_))

        findings = errors_of(cluster_plan(bad_inner))
        assert rules_of(findings) == {"MOD012"}


class TestScopes:
    def test_mod010_collective_on_the_driver(self):
        scan = RowScan(ParameterLookup(ParameterSlot(T)), field="t")
        local = LocalHistogram(scan, RadixPartition("key", 4))
        plan = MaterializeRowVector(MpiHistogram(local, 4))
        findings = errors_of(plan)
        assert rules_of(findings) == {"MOD010"}
        assert "MpiExecutor" in findings[0].message

    def test_mod011_nested_mpi_executor(self):
        def inner(slot):
            return MaterializeRowVector(
                RowScan(
                    MpiExecutor(
                        ParameterLookup(slot),
                        lambda s2: MaterializeRowVector(
                            RowScan(ParameterLookup(s2), field="t")
                        ),
                        SimCluster(2),
                    )
                )
            )

        findings = errors_of(cluster_plan(inner))
        assert rules_of(findings) == {"MOD011"}

    def test_mod013_collective_inside_nested_map(self):
        # A collective inside a per-tuple NestedMap loop: each rank invokes
        # it once per local partition, and partition counts differ across
        # ranks — the allreduce deadlocks.
        def inner(slot):
            per_tuple = NestedMap(
                ParameterLookup(slot),
                lambda s2: MaterializeRowVector(
                    MpiHistogram(
                        LocalHistogram(
                            RowScan(ParameterLookup(s2), field="t"),
                            RadixPartition("key", 4),
                        ),
                        4,
                    )
                ),
            )
            return MaterializeRowVector(RowScan(per_tuple, field="data"))

        findings = errors_of(cluster_plan(inner))
        assert rules_of(findings) == {"MOD013"}
        assert "deadlock" in findings[0].message

    def test_mod013_collective_below_a_limit(self):
        # Each rank's Limit stops pulling at its own point, so whether a rank
        # reaches the exchange's collectives depends on its data.
        def inner(slot):
            (exchanged,) = good_exchange(slot).upstreams
            return MaterializeRowVector(Limit(exchanged, 5))

        findings = errors_of(cluster_plan(inner))
        assert rules_of(findings) == {"MOD013"}
        assert all("below a Limit" in d.message for d in findings)


class TestCanonicalPlans:
    def test_all_canonical_plans_have_zero_errors(self):
        from repro.analysis.lint import _builtin_plans

        for name, plan in _builtin_plans("all", 4):
            findings = errors_of(plan)
            assert findings == [], f"{name}: {[d.format() for d in findings]}"

    def test_verdict_stable_across_prepare(self):
        # prepare() rewires multi-consumer edges (SharedScan insertion,
        # base-scan-chain cloning); the analyzer's verdict must not change.
        plan = build_distributed_join(
            SimCluster(2),
            TupleType.of(key=INT64, lpay=INT64),
            TupleType.of(key=INT64, rpay=INT64),
        )
        before = errors_of(plan.root)
        prepare(plan.root)
        after = errors_of(plan.root)
        assert before == [] and after == []
