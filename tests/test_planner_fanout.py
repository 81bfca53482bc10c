"""The lowering's cache-conscious local partitioning depth.

``lower_to_modularis`` sizes the local fan-out from catalog statistics and
the cluster's cache budget, and plans no local partitioning level at all
when the build side already fits.  The choice may change cache fit and
simulated time, never results.
"""

import numpy as np
import pytest

from repro import RunOptions
from repro.analysis import verify
from repro.core.context import ExecutionContext
from repro.core.plan import explain
from repro.errors import PlanError
from repro.faults import FaultPolicy
from repro.mpi.cluster import SimCluster
from repro.mpi.costmodel import DEFAULT_COST_MODEL, MachineSpec
from repro.relational import frames_match, lower_to_modularis, run_logical_plan
from repro.relational.builder import scan
from repro.relational.expressions import col
from repro.storage.catalog import Catalog
from repro.storage.table import Table, TableStats
from repro.tpch import ALL_QUERIES, load_catalog, q12
from repro.types import INT64, TupleType
from tests.test_oracle import Cell, check, logical_case, tpch_case

#: Pruned row width of every relation in ``chain_catalog`` (two INT64s).
ROW_BYTES = 16


def chain_catalog(**claimed_rows: int) -> Catalog:
    """Three 600-row relations ``ra``/``rb``/``rc`` sharing key ``k``.

    ``claimed_rows`` overrides a table's ``stats.row_count`` — the planner
    reads statistics, not data, so a tiny table can claim any size.
    """
    catalog = Catalog()
    rng = np.random.default_rng(5)
    for name, pay in (("ra", "pa"), ("rb", "pb"), ("rc", "pc")):
        keys = rng.permutation(600).astype(np.int64)
        table = Table.from_arrays(name, k=keys, **{pay: keys % 7})
        if name in claimed_rows:
            stats = TableStats(claimed_rows[name], table.stats.distinct)
            table = Table(name, table.data, stats, table.dictionaries)
        catalog.register(table)
    return catalog


def single_join():
    return (
        scan("ra").join(scan("rb"), on="k")
        .aggregate(group_by=["pa"], aggs=[("sum", col("pb"), "t")])
    )


def cascade_chain():
    return (
        scan("ra").join(scan("rb"), on="k").join(scan("rc"), on="k")
        .aggregate(group_by=[], aggs=[("sum", col("pa") + col("pb") + col("pc"), "t")])
    )


def multistage_chain():
    return (
        scan("ra").join(scan("rb"), on="k", kind="semi").join(scan("rc"), on="k")
        .aggregate(group_by=[], aggs=[("sum", col("pc"), "t")])
    )


def small_cache_cluster(n_ranks: int, l3_cache_bytes: int) -> SimCluster:
    """The way to get a fan-out above 1 without big data: a tiny cache."""
    cost = DEFAULT_COST_MODEL.with_overrides(
        machine=MachineSpec(l3_cache_bytes=l3_cache_bytes)
    )
    return SimCluster(n_ranks, cost_model=cost)


def sized(query, catalog, cluster, **kwargs) -> int:
    return lower_to_modularis(query.plan, catalog, cluster, **kwargs).local_fanout


def local_levels(lowered) -> int:
    """LocalPartitioning operators in the plan, nested scopes included."""
    return explain(lowered.root).count("LocalPartitioning ->")


class TestTheRule:
    BUDGET = DEFAULT_COST_MODEL.cache_budget_bytes

    def test_no_local_level_when_the_build_side_fits(self):
        lowered = lower_to_modularis(single_join().plan, chain_catalog(), SimCluster(2))
        assert lowered.local_fanout == 1
        assert local_levels(lowered) == 0

    def test_smallest_power_of_two_that_fits_and_monotone_in_rows(self):
        previous = 1
        for rows in (10**3, 10**5, 10**6, 3 * 10**6, 10**7, 10**8, 10**9):
            fanout = sized(single_join(), chain_catalog(ra=rows), SimCluster(2))
            bound = rows * ROW_BYTES // 2
            assert fanout & (fanout - 1) == 0
            assert bound <= fanout * self.BUDGET
            assert fanout == 1 or bound > (fanout // 2) * self.BUDGET
            assert fanout >= previous
            previous = fanout
        assert previous > 1

    def test_threshold_is_exactly_the_budget(self):
        at = self.BUDGET // ROW_BYTES
        assert sized(single_join(), chain_catalog(ra=at), SimCluster(1)) == 1
        assert sized(single_join(), chain_catalog(ra=at + 1), SimCluster(1)) == 2

    def test_non_increasing_in_network_fanout(self):
        catalog = chain_catalog(ra=10**8)
        by_ranks = [sized(single_join(), catalog, SimCluster(n)) for n in (1, 2, 4, 8)]
        assert by_ranks == sorted(by_ranks, reverse=True)
        assert by_ranks[0] > by_ranks[-1]
        assert sized(
            single_join(), catalog, SimCluster(2), network_fanout=8
        ) == by_ranks[-1]

    def test_only_the_build_side_counts(self):
        # ra is the build side of ra ⋈ rb; a huge probe side needs no level.
        assert sized(single_join(), chain_catalog(rb=10**9), SimCluster(2)) == 1

    def test_follows_the_clusters_machine(self):
        catalog = chain_catalog()
        assert sized(single_join(), catalog, SimCluster(2)) == 1
        # 600 rows × 16 B / 2 ranks = 4800 B against a 1 KiB budget.
        assert sized(single_join(), catalog, small_cache_cluster(2, 2048)) == 8

    def test_budget_is_shared_with_the_morsel_tuner(self):
        cost = DEFAULT_COST_MODEL.with_overrides(
            machine=MachineSpec(l3_cache_bytes=1 << 20)
        )
        assert cost.cache_budget_bytes == 1 << 19
        rows = TupleType.of(k=INT64, pa=INT64)
        assert ExecutionContext(cost=cost).morsel_rows_for(rows) == (1 << 19) // ROW_BYTES
        at = (1 << 19) // ROW_BYTES
        cluster = SimCluster(1, cost_model=cost)
        assert sized(single_join(), chain_catalog(ra=at), cluster) == 1
        assert sized(single_join(), chain_catalog(ra=at + 1), cluster) == 2

    def test_cascade_sizes_by_its_largest_build_side(self):
        cluster = SimCluster(2)
        # ra only ever probes in the cascade; rb and rc are built on.
        assert sized(cascade_chain(), chain_catalog(ra=10**9), cluster) == 1
        assert sized(cascade_chain(), chain_catalog(rc=10**7), cluster) == 8
        assert sized(cascade_chain(), chain_catalog(rb=10**7, rc=10**6), cluster) == 8

    def test_multistage_bounds_an_intermediate_by_what_it_joined(self):
        # Stage 1 builds on ra (small); stage 2 builds on ra ⋈ rb, bounded
        # by the larger rb — so only the second stage partitions locally.
        # (The semi join prunes rb to its 8-byte key: 40 MB against 10 MiB.)
        lowered = lower_to_modularis(
            multistage_chain().plan, chain_catalog(rb=10**7), SimCluster(2)
        )
        assert lowered.strategy == "multistage"
        assert lowered.local_fanout == 4
        assert local_levels(lowered) == 2  # one stage, two sides
        # rc joins last, so it never bounds a build side.
        assert sized(multistage_chain(), chain_catalog(rc=10**9), SimCluster(2)) == 1

    def test_explicit_fanout_pins_and_is_recorded(self):
        catalog = chain_catalog()
        for query in (single_join(), cascade_chain(), multistage_chain()):
            lowered = lower_to_modularis(
                query.plan, catalog, SimCluster(2), local_fanout=4
            )
            assert lowered.local_fanout == 4
            assert local_levels(lowered) > 0

    def test_strategies_without_a_local_level_record_one(self):
        catalog = chain_catalog(ra=10**9)
        lowered = lower_to_modularis(
            single_join().plan, catalog, SimCluster(2), join_strategy="broadcast"
        )
        assert (lowered.strategy, lowered.local_fanout) == ("broadcast", 1)

    @pytest.mark.parametrize("bad", [0, -4])
    def test_nonpositive_fanout_is_a_plan_error(self, bad):
        with pytest.raises(PlanError, match="local_fanout"):
            lower_to_modularis(
                single_join().plan, chain_catalog(), SimCluster(2), local_fanout=bad
            )

    @pytest.mark.parametrize("bad", [0, -4])
    def test_nonpositive_network_fanout_is_a_plan_error(self, bad):
        # 0 used to be read as "not given" and silently lowered the default.
        with pytest.raises(PlanError, match="network_fanout"):
            lower_to_modularis(
                single_join().plan, chain_catalog(), SimCluster(2), network_fanout=bad
            )


class TestResultsDoNotDependOnTheDepth:
    """Collapsed and partitioned shapes agree with the reference interpreter
    on every rank count: pinned cells of the differential oracle
    (``tests/test_oracle.py``), whose generated cells draw the fan-out."""

    @pytest.mark.parametrize("ranks", [1, 2, 3, 8])
    @pytest.mark.parametrize("qnum", [4, 12, 14, 19])
    def test_tpch(self, qnum, ranks):
        check(tpch_case(qnum), Cell(ranks=ranks, local_fanout=4))

    @pytest.mark.parametrize("ranks", [1, 2, 3, 8])
    @pytest.mark.parametrize("query", [cascade_chain, multistage_chain])
    def test_join_chains(self, query, ranks):
        catalog = chain_catalog()
        case = logical_case(query(), lambda: catalog, query.__name__)
        check(case, Cell(ranks=ranks, mode="interpreted", local_fanout=2))

    def test_a_sized_fanout_above_one_runs(self):
        catalog = chain_catalog()
        for query in (single_join(), cascade_chain(), multistage_chain()):
            lowered = lower_to_modularis(
                query.plan, catalog, small_cache_cluster(3, 2048)
            )
            assert lowered.local_fanout > 1 and local_levels(lowered) > 0
            frame = lowered.result_frame(lowered.run(catalog))
            assert frames_match(
                run_logical_plan(query.plan, catalog), frame, tolerance=0.0
            )


class TestPartitionedShapeStaysChecked:
    """The soaks run the collapsed shape at their scale factor; the
    partitioned one keeps its static, sanitizer and chaos checks here."""

    @pytest.fixture(scope="class")
    def tpch(self):
        return load_catalog(scale_factor=0.005, seed=42)

    @pytest.mark.parametrize("qnum", [12, 14])
    def test_verify_sanitize_and_transient_faults(self, tpch, qnum):
        plan = ALL_QUERIES[qnum]().plan

        def run(options):
            lowered = lower_to_modularis(
                plan, tpch, SimCluster(4), local_fanout=4, options=options
            )
            verify(lowered.root, name=f"q{qnum} partitioned")
            report = lowered.run(tpch, options)
            return report, lowered.result_frame(report)

        clean, clean_frame = run(RunOptions())
        sanitized, sanitized_frame = run(RunOptions(sanitize=True))
        assert sanitized.sanitizer is not None and sanitized.sanitizer.clean
        assert frames_match(clean_frame, sanitized_frame, tolerance=0.0)
        transient = FaultPolicy(put_drop_rate=0.05, collective_drop_rate=0.05)
        faulty, faulty_frame = run(RunOptions(faults=transient))
        assert frames_match(clean_frame, faulty_frame, tolerance=0.0)
        assert faulty.simulated_time > clean.simulated_time

    def test_deploy_verifies_both_shapes(self, tpch, monkeypatch):
        import repro.analysis
        from repro.serving.registry import PlanRegistry

        verified = []
        real_verify = repro.analysis.verify

        def recording_verify(root, name="plan", **kwargs):
            verified.append((name, explain(root).count("LocalPartitioning ->")))
            return real_verify(root, name=name, **kwargs)

        monkeypatch.setattr(repro.analysis, "verify", recording_verify)
        registry = PlanRegistry()
        registry.deploy("q12", q12(), tpch, SimCluster(2))
        assert verified == [("deploy(q12)", 0), ("deploy(q12, local_fanout=2)", 2)]
        # A catalog already past the threshold deploys partitioned; the
        # shape instantiate() falls back to when it shrinks is checked too.
        del verified[:]
        registry.deploy("q12", q12(), tpch, small_cache_cluster(2, 2048))
        assert [levels for _name, levels in verified] == [2, 0]


class TestFixedCostGuard:
    """Exact per-seed counts, so the ×16 nested-plan cost cannot return."""

    def test_q12_on_eight_ranks(self):
        catalog = load_catalog(scale_factor=0.01)

        def counts(local_fanout):
            lowered = lower_to_modularis(
                q12().plan, catalog, SimCluster(8), local_fanout=local_fanout
            )
            report = lowered.run(catalog, RunOptions(metrics=True))
            metrics = report.metrics
            return (
                metrics.value("operator_calls", op="BuildProbe"),
                metrics.total("morsels_drained"),
                metrics.total("comm_puts"),
                metrics.total("shuffle_bytes"),
                report.simulated_time,
            )

        # Control tuples reach NestedMap as rows, so no morsel carries them.
        assert counts(None) == (8, 202, 127, 613_480, 0.0007572127960726466)
        assert counts(16)[:2] == (128, 1258)
