"""Unit tests for the serving layer: registry, scheduler, server surface.

The end-to-end concurrency/bit-identity soak lives in
``tests/test_serving_soak.py``; this file covers the pieces in
isolation: the deploy-time schema contract, prepared-plan versioning,
admission control, stride fair-share, and the run queue's pick rule.
"""

import sys
import threading

import pytest

from repro.core.options import RunOptions
from repro.errors import AdmissionError, SchemaContractError
from repro.faults import FaultPolicy
from repro.mpi.cluster import SimCluster
from repro.observability.metrics import MetricsRegistry
from repro.relational import frames_match, run_logical_plan
from repro.serving import (
    FairShare,
    PlanRegistry,
    QueryTask,
    Scheduler,
    SchemaContract,
    Server,
)
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.tpch import load_catalog, q4, q12, q19


@pytest.fixture(scope="module")
def catalog():
    return load_catalog(scale_factor=0.002)


@pytest.fixture(scope="module")
def cluster():
    return SimCluster(2)


class TestSchemaContract:
    def test_captures_referenced_tables_and_types(self, catalog):
        contract = SchemaContract.capture(q12().plan, catalog)
        tables = dict(contract.tables)
        assert set(tables) == {"lineitem", "orders"}
        # Every captured column exists in the catalog with the same type.
        for name, required in tables.items():
            schema = catalog.get(name).schema
            assert required.field_names
            for field in required:
                assert schema[field.name] == field.item_type

    def test_validate_accepts_deploy_catalog(self, catalog):
        SchemaContract.capture(q12().plan, catalog).validate(catalog)

    def test_missing_table_rejected(self, catalog):
        contract = SchemaContract.capture(q12().plan, catalog)
        empty = Catalog()
        with pytest.raises(SchemaContractError, match="needs table"):
            contract.validate(empty)

    def test_missing_column_rejected(self, catalog):
        contract = SchemaContract.capture(q12().plan, catalog)
        drifted = Catalog()
        for table in catalog:
            if table.name == "orders":
                keep = [
                    f.name for f in table.schema if f.name != "o_orderpriority"
                ]
                pruned_type = type(table.schema).of(
                    **{n: table.schema[n] for n in keep}
                )
                from repro.types.collections import RowVector

                drifted.register(Table(
                    "orders",
                    RowVector(
                        pruned_type, [table.data.column(n) for n in keep]
                    ),
                ))
            else:
                drifted.register(table)
        with pytest.raises(SchemaContractError, match="lost column"):
            contract.validate(drifted)


class TestPlanRegistry:
    def test_deploy_returns_versioned_handle(self, catalog, cluster):
        registry = PlanRegistry()
        prepared = registry.deploy("q12", q12(), catalog, cluster)
        assert prepared.handle == "q12@v1"
        assert registry.get("q12@v1") is prepared
        # A bare name resolves to the latest version.
        assert registry.get("q12") is prepared

    def test_redeploy_bumps_version_and_keeps_old_handle(self, catalog, cluster):
        registry = PlanRegistry()
        first = registry.deploy("q", q12(), catalog, cluster)
        second = registry.deploy("q", q4(), catalog, cluster)
        assert first.handle != second.handle
        assert registry.get(first.handle) is first
        assert registry.get("q") is second

    def test_unknown_handle_raises_admission_error(self, catalog, cluster):
        registry = PlanRegistry()
        with pytest.raises(AdmissionError, match="unknown plan handle"):
            registry.get("nope")

    def test_deploy_rejects_non_plans(self, catalog, cluster):
        registry = PlanRegistry()
        with pytest.raises(AdmissionError, match="needs a Query"):
            registry.deploy("bad", object(), catalog, cluster)

    def test_instantiate_returns_fresh_lowered_plan(self, catalog, cluster):
        # Fresh per catalog version, not per run: the same tables, cluster
        # and memory-pressure flag give the same lowering (deploy's own).
        registry = PlanRegistry()
        prepared = registry.deploy("q12", q12(), catalog, cluster)
        a = prepared.instantiate(catalog, cluster)
        assert prepared.instantiate(catalog, cluster, RunOptions(metrics=True)) is a
        assert prepared.instantiate(catalog, SimCluster(2)) is not a
        replaced = Catalog()
        for table in catalog:
            replaced.register(table)
        orders = catalog.get("orders")
        replaced.register(
            Table("orders", orders.data, orders.stats, orders.dictionaries), replace=True
        )
        b = prepared.instantiate(replaced, cluster)
        assert b is not a and prepared.instantiate(replaced, cluster) is b
        # Memory pressure degrades a broadcast join at planning time, and
        # the next normal run gets the broadcast lowering back.
        broadcast = registry.deploy("q12b", q12(), catalog, cluster, join_strategy="broadcast")
        normal = broadcast.instantiate(catalog, cluster)
        pressured = broadcast.instantiate(
            catalog, cluster, RunOptions(faults=FaultPolicy(memory_pressure=True))
        )
        assert pressured is not normal
        assert (pressured.strategy, pressured.degraded_from) == ("exchange", "broadcast")
        again = broadcast.instantiate(catalog, cluster)
        assert (again.strategy, again.degraded_from) == ("broadcast", None)

    def test_tables_are_immutable_and_replacing_one_relowers(self, cluster):
        catalog = load_catalog(scale_factor=0.002)
        orders = catalog.get("orders")
        for name in ("data", "stats", "dictionaries"):
            with pytest.raises(AttributeError, match="cannot be rebound"):
                setattr(orders, name, getattr(orders, name))
        prepared = PlanRegistry().deploy("q12", q12(), catalog, cluster)
        before = prepared.instantiate(catalog, cluster)
        full = before.result_frame(before.run(catalog))
        # Keep the first half of the orders: q12's counts follow them.
        kept = orders.data.slice(0, len(orders) // 2)
        catalog.register(Table("orders", kept), replace=True)
        after = prepared.instantiate(catalog, cluster)
        assert after is not before
        frame = after.result_frame(after.run(catalog))
        assert frames_match(run_logical_plan(q12().plan, catalog), frame, tolerance=0.0)
        assert not frames_match(full, frame, tolerance=0.0)

    def test_prepared_plan_is_immutable(self, catalog, cluster):
        registry = PlanRegistry()
        prepared = registry.deploy("q12", q12(), catalog, cluster)
        with pytest.raises(AttributeError):
            prepared.handle = "other"


def _counting_task(query_id, tenant, n_steps, log=None):
    def steps():
        for i in range(n_steps):
            yield i
        return f"done-{query_id}"

    task = QueryTask(
        query_id=query_id, tenant=tenant, label=f"t{query_id}", steps=steps()
    )
    if log is not None:
        task.on_done = lambda t, result, error: log.append((t.query_id, result, error))
    return task


class TestFairShare:
    def test_weighted_stride(self):
        share = FairShare()
        share.register("heavy", 2.0)
        share.register("light", 1.0)
        share.charge("heavy", 10)
        share.charge("light", 10)
        # Equal work advances the light tenant's pass twice as fast.
        assert share.pass_of("light") == pytest.approx(
            2 * share.pass_of("heavy")
        )

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            FairShare().register("x", 0.0)

    def test_late_joiner_starts_at_current_floor(self):
        share = FairShare()
        share.register("old", 1.0)
        share.charge("old", 100)
        share.register("new", 1.0)
        assert share.pass_of("new") == pytest.approx(share.pass_of("old"))


class TestScheduler:
    def test_runs_tasks_to_completion(self):
        # Eight caller threads race to submit and to step the one run
        # queue under a tiny switch interval: a lost update to the queue
        # or the counters, or two steps at once, breaks the totals below.
        metrics = MetricsRegistry()
        scheduler = Scheduler(metrics=metrics)
        log = []

        def caller(c):
            mine = [
                _counting_task(3 * c + i, f"t{i}", n_steps=5, log=log)
                for i in range(3)
            ]
            for task in mine:
                scheduler.submit(task)
            scheduler.run_until(lambda: all(task.done for task in mine))

        callers = [threading.Thread(target=caller, args=(c,)) for c in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert sorted(r for _, r, _ in log) == sorted(f"done-{i}" for i in range(24))
        assert all(e is None for _, _, e in log)
        assert scheduler.pending() == 0
        snap = metrics.snapshot()
        assert snap.total("serving_completed") == 24
        # Each task: 5 yields + the completing next() count as steps.
        assert snap.total("serving_steps") == 24 * 6
        assert snap.total("serving_quanta") == 24 * 6
        # One step at a time: the trace is in pick order.
        assert [e.seq for e in scheduler.trace] == list(range(24 * 6))

    def test_errors_delivered_not_raised_in_worker(self):
        def exploding():
            yield 0
            raise RuntimeError("boom")

        scheduler = Scheduler()
        log = []
        task = QueryTask(query_id=1, tenant="default", label="x", steps=exploding())
        task.on_done = lambda t, r, e: log.append(e)
        scheduler.submit(task)
        scheduler.drain()
        assert len(log) == 1 and isinstance(log[0], RuntimeError)

    def test_quantum_interleaves_two_tasks(self):
        # One driver step per pick: two tasks must alternate, which is
        # the step-level preemption the serving layer is built on.
        order = []

        def tracked(tag, n):
            for i in range(n):
                order.append(tag)
                yield i
            return tag

        scheduler = Scheduler()
        scheduler.submit(QueryTask(1, "default", "a", tracked("a", 4)))
        scheduler.submit(QueryTask(2, "default", "b", tracked("b", 4)))
        scheduler.drain()
        # Strict round-robin is not guaranteed, but both tags must appear
        # before either finishes (no run-to-completion).
        first_b = order.index("b")
        last_a = len(order) - 1 - order[::-1].index("a")
        assert first_b < last_a, order

    def test_lowest_pass_tenant_is_picked_first(self):
        def picks(head_start):
            # Tenant a queues a 200-step task, then tenant b a 1-step task.
            log = []
            scheduler = Scheduler()
            scheduler.fairshare.register("a")
            scheduler.fairshare.register("b")
            scheduler.fairshare.charge("a", head_start)
            scheduler.submit(_counting_task(1, "a", n_steps=200, log=log))
            scheduler.submit(_counting_task(2, "b", n_steps=1, log=log))
            scheduler.drain()
            assert [query_id for query_id, _, _ in log] == [2, 1]
            return [event.query_id for event in scheduler.trace[:4]]

        # Equal passes go to the first task in queue order ...
        assert picks(head_start=0) == [1, 2, 1, 2]
        # ... and a lower pass beats admission order.
        assert picks(head_start=10) == [2, 2, 1, 1]

    def test_trace_records_every_quantum(self):
        scheduler = Scheduler()
        for i in range(3):
            scheduler.submit(_counting_task(i, "default", n_steps=4))
        scheduler.drain()
        # One event per driver step: 4 yields + the completing next().
        assert len(scheduler.trace) == 3 * 5
        assert all(e.steps == 1 for e in scheduler.trace)
        assert [e.seq for e in scheduler.trace] == list(range(len(scheduler.trace)))

    def test_a_wait_steps_only_until_it_is_over(self):
        scheduler = Scheduler()
        first = _counting_task(1, "default", n_steps=3)
        second = _counting_task(2, "default", n_steps=3)
        scheduler.submit(first)
        scheduler.submit(second)
        # A zero timeout takes no step; a wait stops once it is over.
        assert scheduler.run_until(lambda: first.done, timeout=0) is False
        assert scheduler.trace == []
        assert scheduler.run_until(lambda: first.done) is True
        assert first.done and not second.done
        assert scheduler.pending() == 1
        # A wait nothing queued can end is an error, not a hang.
        scheduler.drain()
        with pytest.raises(RuntimeError, match="nothing runnable"):
            scheduler.run_until(lambda: False)


class TestServerSurface:
    def test_session_deploy_run(self, catalog, cluster):
        with Server(cluster, catalog, max_pending=8) as server:
            session = server.session("team-a", weight=1.0)
            prepared = session.deploy("q12", q12())
            outcome = session.run(prepared.handle, timeout=120)
            assert outcome.tenant == "team-a"
            assert outcome.frame.n_rows >= 1
            assert outcome.steps > 0
            account = session.account()
            assert account.queries == 1
            assert account.simulated_seconds == outcome.report.simulated_time

    def test_unknown_tenant_rejected(self, catalog, cluster):
        with Server(cluster, catalog) as server:
            server.deploy("q12", q12())
            with pytest.raises(AdmissionError, match="unknown tenant"):
                server.submit("q12", tenant="ghost")

    def test_admission_bound_backpressure(self, catalog, cluster):
        with Server(cluster, catalog, max_pending=1) as server:
            handle = server.deploy("q12", q12()).handle
            first = server.submit(handle)
            # No step runs until a thread waits, so the first query is
            # still pending and the bound refuses the second.
            with pytest.raises(AdmissionError):
                server.submit(handle)
            first.result(timeout=120)
            # After it settles, admission opens up again.
            server.run(handle, timeout=120)
            assert server.tenant("default").rejected == 1
            assert server.snapshot().total("serving_rejected") == 1

    def test_n_workers_is_accepted_and_ignored(self, catalog, cluster):
        with Server(cluster, catalog, n_workers=2) as server:
            handle = server.deploy("q12", q12()).handle
            assert server.run(handle, timeout=120).frame.n_rows >= 1

    def test_run_options_flow_through(self, catalog, cluster):
        with Server(cluster, catalog) as server:
            handle = server.deploy("q4", q4()).handle
            outcome = server.run(
                handle, options=RunOptions(profile=True, metrics=True),
                timeout=120,
            )
            assert outcome.report.profile is not None
            assert outcome.report.metrics is not None

    def test_per_run_metrics_isolated_across_concurrent_queries(
        self, catalog, cluster
    ):
        # Two queries with metrics on, submitted together: each report's
        # snapshot must describe its own run only (no cross-talk through
        # the shared cluster).
        with Server(cluster, catalog) as server:
            handle = server.deploy("q12", q12()).handle
            options = RunOptions(metrics=True)
            futures = [server.submit(handle, options=options) for _ in range(2)]
            snaps = [f.result(timeout=120).report.metrics for f in futures]
            values = [s.total("operator_rows_out") for s in snaps]
            assert values[0] == values[1] > 0

    def test_contract_violation_surfaces_at_submit(self, cluster):
        deploy_catalog = load_catalog(scale_factor=0.002)
        with Server(cluster, deploy_catalog) as server:
            handle = server.deploy("q12", q12()).handle
            # Swap the server's catalog for one missing a required column.
            server.catalog = Catalog()
            with pytest.raises(SchemaContractError):
                server.submit(handle)


class TestOneLoweringServesEveryRun:
    """Every run of a deployed query shares one lowered plan, so its runs —
    serial, interleaved on one thread, or on two threads — must not see
    each other: rows, clocks, phases and counts bit-identical."""

    OPTIONS = RunOptions(profile=True, metrics=True)

    @staticmethod
    def evidence(report):
        (row,) = report.rows
        vector = row[0]
        return (
            [vector.column(f).tobytes() for f in vector.element_type.field_names],
            report.simulated_time,
            report.phase_breakdown(),
            report.metrics.total("comm_puts"),
            report.metrics.total("shuffle_bytes"),
        )

    @pytest.mark.parametrize("query", [q12, q19], ids=["q12", "q19"])
    def test_serial_interleaved_and_threaded_runs_agree(self, catalog, query):
        cluster = SimCluster(4)
        lowered = PlanRegistry().deploy("q", query(), catalog, cluster).instantiate(
            catalog, cluster
        )
        first = self.evidence(lowered.run(catalog, self.OPTIONS))
        assert lowered.bind(catalog) is lowered.bind(catalog)
        assert self.evidence(lowered.run(catalog, self.OPTIONS)) == first

        steps = [lowered.execution(catalog, self.OPTIONS) for _ in range(2)]
        interleaved = [None, None]
        while None in interleaved:
            for i, generator in enumerate(steps):
                if interleaved[i] is None:
                    try:
                        next(generator)
                    except StopIteration as done:
                        interleaved[i] = done.value
        assert [self.evidence(r) for r in interleaved] == [first, first]

        threaded = []

        def run():
            threaded.append(self.evidence(lowered.run(catalog, self.OPTIONS)))

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert threaded == [first, first]
