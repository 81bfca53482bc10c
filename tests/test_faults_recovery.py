"""End-to-end recovery tests: injected faults, identical results.

The contract under test: faults cost simulated time (retries, backoff,
re-executed stages, degraded clusters) but never change results — every
chaos run must be bit-identical to its fault-free twin, with the fault/
retry/recovery story visible in the execution report.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.options import RunOptions
from repro.core.executor import execute
from repro.core.functions import RadixPartition
from repro.core.operators import (
    LocalHistogram,
    MaterializeRowVector,
    MpiExchange,
    MpiExecutor,
    MpiHistogram,
    ParameterLookup,
    ParameterSlot,
    Projection,
    RowScan,
)
from repro.core.plans import build_distributed_join
from repro.errors import RankCrashError, RetryBudgetExceeded
from repro.faults import CrashFault, FaultPolicy, RetryPolicy, StragglerFault
from repro.mpi.cluster import SimCluster
from repro.types import TupleType, row_vector_type
from repro.workloads import make_join_relations

from tests.conftest import KV, make_kv_table


def _join_plan(machines=4, n=2048):
    workload = make_join_relations(n)
    plan = build_distributed_join(
        SimCluster(machines, trace=True),
        workload.left.element_type,
        workload.right.element_type,
        key_bits=workload.key_bits,
    )
    return plan, workload


def _matches_equal(a, b, ordered=True):
    names = list(a.element_type.field_names)
    cols_a = [np.asarray(a.column(n)) for n in names]
    cols_b = [np.asarray(b.column(n)) for n in names]
    if len(cols_a[0]) != len(cols_b[0]):
        return False
    if not ordered:
        cols_a = [c[np.lexsort(tuple(reversed(cols_a)))] for c in cols_a]
        cols_b = [c[np.lexsort(tuple(reversed(cols_b)))] for c in cols_b]
    return all(np.array_equal(x, y) for x, y in zip(cols_a, cols_b))


class TestTransientRetries:
    def test_put_and_collective_drops_are_retried(self):
        plan, workload = _join_plan()
        baseline = plan.run(workload.left, workload.right)
        policy = FaultPolicy(seed=3, put_drop_rate=0.15, collective_drop_rate=0.1)
        chaos = plan.run(workload.left, workload.right, RunOptions(faults=policy))

        assert _matches_equal(plan.matches(baseline), plan.matches(chaos))
        summary = chaos.fault_summary()
        injected = {k: v for k, v in summary.items() if k.startswith("fault:")}
        retried = {k: v for k, v in summary.items() if k.startswith("retry:")}
        assert injected, "transient faults should have fired"
        assert sum(retried.values()) == sum(injected.values())
        # Retries charge lost transfers + backoff to the simulated clock.
        assert chaos.simulated_time > baseline.simulated_time

    def test_retry_events_carry_typed_details(self):
        plan, workload = _join_plan()
        policy = FaultPolicy(seed=3, put_drop_rate=0.15, collective_drop_rate=0.1)
        chaos = plan.run(workload.left, workload.right, RunOptions(faults=policy))
        events = chaos.fault_events()
        faults = [e for e in events if e.kind == "fault"]
        retries = [e for e in events if e.kind == "retry"]
        assert faults and retries
        assert all(e.detail.attempt >= 1 for e in faults)
        assert all(e.detail.backoff > 0 for e in retries)
        # Backoff intervals occupy simulated time on the rank's clock.
        assert all(e.end >= e.start for e in retries)

    def test_exhausted_retry_budget_escalates(self):
        plan, workload = _join_plan(machines=2, n=512)
        policy = FaultPolicy(
            seed=3,
            put_drop_rate=0.97,
            retry=RetryPolicy(max_attempts=1, backoff_base=1e-6),
            max_stage_retries=0,
        )
        with pytest.raises(RetryBudgetExceeded):
            plan.run(workload.left, workload.right, RunOptions(faults=policy))

    def test_straggler_slows_the_clock_not_the_data(self):
        plan, workload = _join_plan(machines=2, n=1024)
        baseline = plan.run(workload.left, workload.right)
        policy = FaultPolicy(stragglers=(StragglerFault(rank=1, slowdown=8.0),))
        chaos = plan.run(workload.left, workload.right, RunOptions(faults=policy))
        assert _matches_equal(plan.matches(baseline), plan.matches(chaos))
        assert chaos.simulated_time > baseline.simulated_time
        assert chaos.fault_summary().get("fault:straggler") == 1


class TestStageRecovery:
    def test_transient_crash_reexecutes_only_the_failed_stage(self):
        plan, workload = _join_plan()
        baseline = plan.run(workload.left, workload.right, RunOptions(profile=True))
        policy = FaultPolicy(crash=CrashFault(rank=2, after_comm_ops=5))
        chaos = plan.run(
            workload.left, workload.right,
            RunOptions(profile=True, faults=policy),
        )

        assert _matches_equal(plan.matches(baseline), plan.matches(chaos))
        summary = chaos.fault_summary()
        assert summary.get("fault:crash") == 1
        assert summary.get("recovery:stage_retry") == 1
        # The crashed attempt's operator spans are dropped, so the profile
        # describes exactly one surviving execution of the stage: activation
        # counts match the fault-free run operator for operator.
        for op_type in ("MpiExchange", "BuildProbe", "MaterializeRowVector"):
            base_nodes = baseline.profile.find(op_type)
            chaos_nodes = chaos.profile.find(op_type)
            assert [n.stats.calls for n in base_nodes] == [
                n.stats.calls for n in chaos_nodes
            ], op_type
            assert [n.stats.rows_out for n in base_nodes] == [
                n.stats.rows_out for n in chaos_nodes
            ], op_type
        # ... while the wasted attempt still costs simulated time.
        assert chaos.simulated_time > baseline.simulated_time

    def test_recovery_events_name_the_stage(self):
        plan, workload = _join_plan()
        policy = FaultPolicy(crash=CrashFault(rank=1, after_comm_ops=5))
        chaos = plan.run(workload.left, workload.right, RunOptions(faults=policy))
        (recovery,) = [
            e for e in chaos.recovery_events if e.kind == "recovery"
        ]
        assert recovery.detail.action == "stage_retry"
        assert recovery.detail.lost_rank == 1
        assert recovery.detail.attempt == 1
        assert "MpiExecutor" in recovery.detail.stage

    def test_permanent_crash_degrades_to_survivors(self):
        plan, workload = _join_plan()
        baseline = plan.run(workload.left, workload.right)
        policy = FaultPolicy(
            crash=CrashFault(rank=1, after_comm_ops=3, permanent=True)
        )
        chaos = plan.run(workload.left, workload.right, RunOptions(faults=policy))
        # Re-sharding over 3 survivors permutes rows but not the row set.
        assert _matches_equal(
            plan.matches(baseline), plan.matches(chaos), ordered=False
        )
        summary = chaos.fault_summary()
        assert summary.get("fault:crash") == 1
        assert summary.get("recovery:degrade_cluster") == 1

    @pytest.mark.parametrize("profile", ["crash", "degrade", "budget", "transient"])
    def test_an_untraced_run_names_the_crash_its_recovery_answers(self, profile):
        from repro.faults.policy import fault_profile
        from repro.workloads.targets import resolve

        target = resolve("q12", 4, log2_tuples=6, sf=0.0002)
        faults = fault_profile("flaky" if profile == "budget" else profile, 1, 4)
        if profile == "budget":  # a put drop exhausts the stage retry budget
            faults = dataclasses.replace(faults, max_stage_retries=1)
        plain = target.run(RunOptions(faults=faults))
        observed = target.run(RunOptions(faults=faults, metrics=True))
        # The observed run traces every job; the plain run names the same
        # faults (a crash, a put drop, a collective drop) without it.
        assert plain.fault_summary() == observed.fault_summary() != {}
        assert plain.fault_events() == observed.fault_events()

    def test_permanent_crash_on_single_rank_cluster_is_fatal(self):
        plan, workload = _join_plan(machines=1, n=256)
        policy = FaultPolicy(
            crash=CrashFault(rank=0, after_comm_ops=1, permanent=True)
        )
        with pytest.raises(RankCrashError):
            plan.run(workload.left, workload.right, RunOptions(faults=policy))


def _staged_plan(cluster):
    """A worker plan with a *mid-stage* materialization point.

    scan → Materialize(staged) → re-scan → exchange → Materialize(result):
    the staged vector completes on every rank before the first collective,
    so a crash at the exchange leaves a sealed checkpoint for the retry.
    """
    slot = ParameterSlot(TupleType.of(t=row_vector_type(KV)))
    n_net = 4

    def build_worker(worker_slot):
        scan = RowScan(
            Projection(ParameterLookup(worker_slot), ["t"]),
            field="t",
            shard_by_rank=True,
        )
        staged = MaterializeRowVector(scan, field="staged")
        restream = RowScan(staged, field="staged")
        fn = RadixPartition("key", n_net)
        local = LocalHistogram(restream, fn)
        global_h = MpiHistogram(local, n_net)
        exchange = MpiExchange(
            restream, local, global_h, fn, id_field="pid", data_field="data"
        ).suppress("MOD023")
        flat = RowScan(exchange, field="data")
        return MaterializeRowVector(flat, field="result")

    executor = MpiExecutor(ParameterLookup(slot), build_worker, cluster)
    flat = RowScan(executor, field="result")
    return MaterializeRowVector(flat, field="result"), slot


class TestCheckpointReuse:
    def test_sealed_materialization_served_from_checkpoint(self):
        table = make_kv_table(512, seed=9)
        root, slot = _staged_plan(SimCluster(4, trace=True))
        baseline = execute(root, params={slot: (table,)})
        # The crash fires at rank 2's first comm op — after every rank has
        # deposited the staged materialization, before the exchange.
        policy = FaultPolicy(crash=CrashFault(rank=2, after_comm_ops=1))
        chaos = execute(
            root, params={slot: (table,)},
            options=RunOptions(faults=policy, metrics=True),
        )

        (base_row,) = baseline.rows
        (chaos_row,) = chaos.rows
        assert _matches_equal(base_row[0], chaos_row[0])
        summary = chaos.fault_summary()
        assert summary.get("fault:crash") == 1
        assert summary.get("recovery:stage_retry") == 1
        # All four ranks serve the staged vector from the checkpoint.
        assert summary.get("recovery:checkpoint_hit") == 4
        # The metric is a fold over those same four events, one per rank.
        assert chaos.metrics.total("checkpoint_hits") == 4
        assert [
            totals["checkpoint_hits"] for totals in chaos.metrics.per_rank.values()
        ] == [1, 1, 1, 1]

    def test_checkpoint_hits_do_not_leak_across_executions(self):
        table = make_kv_table(512, seed=9)
        root, slot = _staged_plan(SimCluster(4, trace=True))
        policy = FaultPolicy(crash=CrashFault(rank=2, after_comm_ops=1))
        execute(root, params={slot: (table,)}, options=RunOptions(faults=policy))
        # A fresh fault-free execution starts with an empty store.
        clean = execute(root, params={slot: (table,)})
        assert "recovery:checkpoint_hit" not in clean.fault_summary()


class TestBroadcastFallback:
    @pytest.fixture(scope="class")
    def catalog(self):
        from repro.tpch import load_catalog

        return load_catalog(scale_factor=0.005)

    def test_memory_pressure_degrades_broadcast_to_exchange(self, catalog):
        from repro.relational import frames_match
        from repro.relational import lower_to_modularis, run_logical_plan
        from repro.tpch import ALL_QUERIES

        query = ALL_QUERIES[14]()
        policy = FaultPolicy(memory_pressure=True)
        lowered = lower_to_modularis(
            query.plan, catalog, SimCluster(4), join_strategy="broadcast",
            options=RunOptions(faults=policy),
        )
        assert lowered.strategy == "exchange"
        assert lowered.degraded_from == "broadcast"
        result = lowered.run(catalog, RunOptions(faults=policy))
        assert result.fault_summary().get("recovery:broadcast_fallback") == 1
        reference = run_logical_plan(query.plan, catalog)
        assert frames_match(reference, lowered.result_frame(result), 1e-6)

    def test_no_pressure_keeps_the_broadcast_plan(self, catalog):
        from repro.relational import lower_to_modularis
        from repro.tpch import ALL_QUERIES

        query = ALL_QUERIES[14]()
        lowered = lower_to_modularis(
            query.plan, catalog, SimCluster(4), join_strategy="broadcast",
            options=RunOptions(faults=FaultPolicy(put_drop_rate=0.05)),
        )
        assert lowered.strategy == "broadcast"
        assert lowered.degraded_from is None


class TestRankSummaryAfterReshard:
    """Per-rank communication stats when recovery re-shards to n-1 ranks."""

    def test_rank_summary_covers_survivor_ranks_only(self):
        plan, workload = _join_plan()
        policy = FaultPolicy(
            crash=CrashFault(rank=1, after_comm_ops=3, permanent=True)
        )
        chaos = plan.run(workload.left, workload.right, RunOptions(faults=policy))
        # The surviving cluster result comes from the with_ranks(n-1)
        # degraded rerun: its trace knows only the 3 survivor ranks.
        (cluster_result,) = chaos.cluster_results
        trace = cluster_result.trace
        assert trace.n_ranks == 3
        summaries = [trace.rank_summary(r) for r in range(trace.n_ranks)]
        assert [s.rank for s in summaries] == [0, 1, 2]
        # The crashed world's rank 3 no longer exists in the summary.
        with pytest.raises(IndexError):
            trace.rank_summary(trace.n_ranks)
        # Conservation: per-rank sent/received totals both cover exactly
        # the traced network volume.
        network = trace.network_bytes()
        assert network > 0
        assert sum(s.bytes_sent for s in summaries) == network
        assert sum(s.bytes_received for s in summaries) == network
        # Every survivor took part in the rerun's windows and collectives.
        for stats in summaries:
            assert stats.window_registrations > 0
            assert stats.collectives > 0
            assert stats.stall_seconds >= 0.0

    def test_metrics_per_rank_breakdown_matches_survivors(self):
        plan, workload = _join_plan()
        policy = FaultPolicy(
            crash=CrashFault(rank=1, after_comm_ops=3, permanent=True)
        )
        chaos = plan.run(
            workload.left, workload.right,
            RunOptions(faults=policy, metrics=True),
        )
        snapshot = chaos.metrics
        # Only the successful (degraded) attempt's rank registries are
        # absorbed: the per-rank breakdown lists survivors, not the
        # original 4-rank world.
        assert sorted(snapshot.per_rank) == [0, 1, 2]
        assert snapshot.value("recovery_actions", action="degrade_cluster") == 1
        (cluster_result,) = chaos.cluster_results
        assert (
            snapshot.total("comm_put_bytes", scope="network")
            == cluster_result.trace.network_bytes()
        )
