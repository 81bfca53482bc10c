"""Query-lifecycle robustness: deadlines, cancellation, retries,
circuit breakers, and overload shedding.

The happy-path serving surface is covered by ``tests/test_serving.py``
and the end-to-end soak by ``tests/test_serving_soak.py``; this file
exercises the failure half of the lifecycle state machine — the pure
:class:`CircuitBreaker` state transitions in isolation, and each
server-enforced transition (deadline miss, cooperative cancel, retry
exhaustion, shed, breaker quarantine) end to end, including the tenant
ledger's conservation invariant.
"""

import dataclasses
from collections import Counter

import pytest

from repro.core.options import RunOptions
from repro.errors import (
    AdmissionError,
    CircuitOpenError,
    DeadlineExceeded,
    OverloadShedError,
    QueryCancelled,
    ResultTimeout,
    RetriesExhausted,
    SchemaContractError,
)
from repro.faults.policy import FaultPolicy, RetryPolicy, fault_profile
from repro.mpi.cluster import SimCluster
from repro.observability.slo import SLOConfig
from repro.serving import BreakerConfig, CircuitBreaker, Server
from repro.serving.lifecycle import BREAKER_STATE_CODES
from repro.storage.catalog import Catalog
from repro.tpch import load_catalog, q4, q12

SF = 0.002

#: A plan poisoned at deploy time: drops nearly every network put with a
#: zeroed substrate retry budget, so every run fails terminally.
POISON = FaultPolicy(
    seed=7,
    put_drop_rate=0.95,
    retry=RetryPolicy(max_attempts=1),
    max_stage_retries=0,
)


@pytest.fixture(scope="module")
def catalog():
    return load_catalog(scale_factor=SF)


@pytest.fixture(scope="module")
def cluster():
    return SimCluster(2)


class TestCircuitBreakerUnit:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(cooldown=0)

    def test_trips_after_consecutive_terminal_failures(self):
        breaker = CircuitBreaker("q@v1", BreakerConfig(failure_threshold=3))
        for _ in range(2):
            breaker.record_failure(terminal=True)
        assert breaker.state == "closed"
        breaker.record_failure(terminal=True)
        assert breaker.state == "open"

    def test_success_resets_the_failure_run(self):
        breaker = CircuitBreaker("q@v1", BreakerConfig(failure_threshold=2))
        breaker.record_failure(terminal=True)
        breaker.record_success()
        breaker.record_failure(terminal=True)
        assert breaker.state == "closed"

    def test_non_terminal_failures_never_count(self):
        breaker = CircuitBreaker("q@v1", BreakerConfig(failure_threshold=1))
        for _ in range(10):
            breaker.record_failure(terminal=False)
        assert breaker.state == "closed"

    def test_open_fast_fails_with_typed_error(self):
        breaker = CircuitBreaker(
            "q@v1", BreakerConfig(failure_threshold=1, cooldown=5)
        )
        breaker.record_failure(terminal=True)
        with pytest.raises(CircuitOpenError) as exc:
            breaker.admit()
        assert exc.value.handle == "q@v1"
        assert exc.value.state == "open"

    def test_cooldown_is_counted_in_submissions(self):
        breaker = CircuitBreaker(
            "q@v1", BreakerConfig(failure_threshold=1, cooldown=3)
        )
        breaker.record_failure(terminal=True)
        # Two fast-fails, then the third submission becomes the probe.
        for _ in range(2):
            with pytest.raises(CircuitOpenError):
                breaker.admit()
        breaker.admit()
        assert breaker.state == "half-open"

    def test_half_open_admits_exactly_one_probe(self):
        breaker = CircuitBreaker(
            "q@v1", BreakerConfig(failure_threshold=1, cooldown=1)
        )
        breaker.record_failure(terminal=True)
        breaker.admit()  # the probe
        with pytest.raises(CircuitOpenError) as exc:
            breaker.admit()
        assert exc.value.state == "half-open"

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(
            "q@v1", BreakerConfig(failure_threshold=1, cooldown=1)
        )
        breaker.record_failure(terminal=True)
        breaker.admit()
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.admit()  # flows freely again

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker = CircuitBreaker(
            "q@v1", BreakerConfig(failure_threshold=1, cooldown=2)
        )
        breaker.record_failure(terminal=True)
        with pytest.raises(CircuitOpenError):
            breaker.admit()
        breaker.admit()  # probe
        breaker.record_failure(terminal=True)
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.admit()  # cooldown restarted from zero

    def test_abandon_releases_the_probe_slot(self):
        breaker = CircuitBreaker(
            "q@v1", BreakerConfig(failure_threshold=1, cooldown=1)
        )
        breaker.record_failure(terminal=True)
        breaker.admit()
        breaker.abandon()
        breaker.admit()  # the slot is free again

    def test_transition_callback_sees_every_edge(self):
        edges = []
        breaker = CircuitBreaker(
            "q@v1",
            BreakerConfig(failure_threshold=1, cooldown=1),
            on_transition=lambda h, old, new: edges.append((h, old, new)),
        )
        breaker.record_failure(terminal=True)
        breaker.admit()
        breaker.record_success()
        assert edges == [
            ("q@v1", "closed", "open"),
            ("q@v1", "open", "half-open"),
            ("q@v1", "half-open", "closed"),
        ]


class TestDeadlines:
    def test_deadline_miss_raises_with_budget_and_elapsed(
        self, catalog, cluster
    ):
        with Server(cluster, catalog) as server:
            handle = server.deploy("q12", q12()).handle
            future = server.submit(handle, deadline=1e-9)
            with pytest.raises(DeadlineExceeded) as exc:
                future.result(timeout=60)
            assert exc.value.deadline == 1e-9
            assert exc.value.elapsed > 1e-9
            account = server.tenant("default")
            assert account.deadline_missed == 1
            assert account.in_flight == 0

    def test_generous_deadline_never_fires(self, catalog, cluster):
        with Server(cluster, catalog) as server:
            handle = server.deploy("q12", q12()).handle
            outcome = server.submit(handle, deadline=1e6).result(timeout=60)
            assert outcome.frame.n_rows > 0
            assert server.tenant("default").deadline_missed == 0

    def test_slo_report_shows_a_tenant_that_never_completed(
        self, catalog, cluster
    ):
        slo = SLOConfig(target_seconds=1.0)
        with Server(cluster, catalog, slo=slo) as server:
            handle = server.deploy("q12", q12()).handle
            for _ in range(4):
                with pytest.raises(DeadlineExceeded):
                    server.submit(handle, deadline=1e-9).result(timeout=60)
            snap = server.snapshot()
            assert snap.value("serving_slo_miss", tenant="default") == 4
            report = server.slo_report()
            for entry in (report.tenant("default"), *report.handles):
                assert (entry.completed, entry.burned, entry.considered) == (0, 4, 4)
                assert entry.p50 != entry.p50  # NaN: nothing completed
            assert report.ok is False
            assert "no settled queries" not in report.render()

    def test_non_positive_deadline_rejected_up_front(self, catalog, cluster):
        with Server(cluster, catalog) as server:
            handle = server.deploy("q12", q12()).handle
            with pytest.raises(ValueError, match="deadline"):
                server.submit(handle, deadline=0.0)


class TestCancellation:
    def test_cancel_before_start_settles_as_cancelled(self, catalog, cluster):
        with Server(cluster, catalog) as server:
            handle = server.deploy("q12", q12()).handle
            future = server.submit(handle)
            assert future.cancel() is True
            assert future.cancelled()
            with pytest.raises(QueryCancelled):
                future.result(timeout=60)
            account = server.tenant("default")
            assert account.cancelled == 1
            assert account.in_flight == 0

    def test_cancel_after_completion_is_a_noop(self, catalog, cluster):
        with Server(cluster, catalog) as server:
            handle = server.deploy("q12", q12()).handle
            future = server.submit(handle)
            future.result(timeout=60)
            assert future.cancel() is False
            assert server.tenant("default").cancelled == 0

    def test_close_settles_every_pending_query(self, catalog, cluster):
        server = Server(cluster, catalog)
        handle = server.deploy("q12", q12()).handle
        futures = [server.submit(handle) for _ in range(3)]
        futures[1].cancel()
        assert not any(future.done() for future in futures)
        server.close()  # steps the run queue on this thread
        assert all(future.done() for future in futures)
        assert server.scheduler.pending() == 0
        account = server.tenant("default")
        assert (account.queries, account.cancelled, account.in_flight) == (2, 1, 0)
        with pytest.raises(AdmissionError, match="closed"):
            server.submit(handle)

    def test_server_cancel_by_query_id(self, catalog, cluster):
        with Server(cluster, catalog) as server:
            handle = server.deploy("q12", q12()).handle
            future = server.submit(handle)
            assert server.cancel(future.query_id) is True
            assert server.cancel(9999) is False  # unknown id
            with pytest.raises(QueryCancelled):
                future.result(timeout=60)


class TestResultTimeout:
    def test_wall_clock_timeout_leaves_the_query_running(
        self, catalog, cluster
    ):
        with Server(cluster, catalog) as server:
            handle = server.deploy("q12", q12()).handle
            future = server.submit(handle, tenant="default")
            # A zero wall-clock timeout takes no step: the query stays
            # pending, untouched, until a later wait steps it.
            with pytest.raises(ResultTimeout) as exc:
                future.result(timeout=0)
            assert exc.value.query_id == future.query_id
            assert exc.value.tenant == "default"
            assert exc.value.handle == handle
            assert not future.done()
            assert server.scheduler.trace == []
            assert server.scheduler.pending() == 1
            assert future.result(timeout=60).frame.n_rows > 0


class TestRetries:
    def test_poison_plan_exhausts_retries(self, catalog, cluster):
        with Server(
            cluster,
            catalog,
            retry=RetryPolicy(max_attempts=2),
        ) as server:
            handle = server.deploy(
                "q4", q4(), defaults=RunOptions(faults=POISON)
            ).handle
            future = server.submit(handle)
            with pytest.raises(RetriesExhausted) as exc:
                future.result(timeout=60)
            assert exc.value.attempts == 2
            assert exc.value.last_error is not None
            account = server.tenant("default")
            assert account.retries == 1
            assert account.failed == 1
            assert account.queries == 0
            snap = server.snapshot()
            assert snap.value("serving_retries", tenant="default") == 1
            assert snap.value("serving_failed", tenant="default") == 1

    def test_serving_submitted_counts_queries_not_attempts(self, catalog, cluster):
        # flaky, retries=2, 8 queries: every query retries once, on its own
        # task, so the scheduler admits 8 tasks, not 16.
        flaky = RunOptions(faults=fault_profile("flaky", 2021, 2))
        with Server(cluster, catalog, retry=RetryPolicy(max_attempts=3)) as server:
            handle = server.deploy("q12", q12()).handle
            futures = [server.submit(handle, options=flaky) for _ in range(8)]
            assert [f.result(timeout=60).attempts for f in futures] == [2] * 8
            assert server.metrics.snapshot().total("serving_submitted") == 8


    def test_a_cancel_during_a_failing_step_settles_cancelled(
        self, catalog, cluster, monkeypatch
    ):
        # The client cancels while a driver step runs, and that step then
        # fails retryably: the cancel wins, so the retry budget is neither
        # spent nor reported exhausted, and the breaker hears nothing.
        flaky = RunOptions(faults=fault_profile("flaky", 2021, 2))
        check = Server._check_lifecycle

        def cancel_after_check(self, query, task, elapsed):
            check(self, query, task, elapsed)
            query.future.cancel()

        monkeypatch.setattr(Server, "_check_lifecycle", cancel_after_check)
        with Server(cluster, catalog, retry=RetryPolicy(max_attempts=3)) as server:
            handle = server.deploy("q12", q12()).handle
            future = server.submit(handle, options=flaky)
            with pytest.raises(QueryCancelled) as exc:
                future.result(timeout=60)
            assert exc.value.__cause__ is not None
            (journal,) = server.journals
            assert (journal.terminal, journal.reason) == ("cancelled", "QueryCancelled")
            assert server.registry.breaker_for(handle)._consecutive_failures == 0
            account = server.tenant("default")
            assert (account.cancelled, account.failed, account.retries) == (1, 0, 0)


class TestOverloadShedding:
    def test_tenant_over_entitlement_is_shed_in_the_shed_region(
        self, catalog, cluster
    ):
        with Server(
            cluster,
            catalog,
            max_pending=8,
            shed_threshold=0.5,
        ) as server:
            server.register_tenant("a", weight=1.0)
            server.register_tenant("b", weight=1.0)
            handle = server.deploy("q12", q12()).handle
            futures = [server.submit(handle, tenant="a") for _ in range(4)]
            # Shed region reached (4 >= ceil(0.5 * 8)) and tenant "a" holds
            # its full entitlement — the next submission is shed...
            with pytest.raises(OverloadShedError) as exc:
                server.submit(handle, tenant="a")
            assert exc.value.tenant == "a"
            assert exc.value.in_flight >= exc.value.entitlement
            # ...while tenant "b", below its entitlement, is still admitted.
            futures.append(server.submit(handle, tenant="b"))
            for future in futures:
                assert future.result(timeout=60).frame.n_rows > 0
            shed_account = server.tenant("a")
            assert shed_account.shed == 1
            assert shed_account.submitted == 5
            assert shed_account.queries == 4

    def test_invalid_shed_threshold_rejected(self, catalog, cluster):
        with pytest.raises(ValueError, match="shed_threshold"):
            Server(cluster, catalog, shed_threshold=0.0)


class TestBreakerIntegration:
    def test_poison_plan_trips_breaker_and_redeploy_resets(
        self, catalog, cluster
    ):
        with Server(
            cluster,
            catalog,
            breaker=BreakerConfig(failure_threshold=2, cooldown=2),
        ) as server:
            poisoned = server.deploy(
                "q4", q4(), defaults=RunOptions(faults=POISON)
            ).handle
            for _ in range(2):
                with pytest.raises(Exception) as exc:
                    server.submit(poisoned).result(timeout=60)
                assert not isinstance(exc.value, CircuitOpenError)
            # Two consecutive terminal failures: the handle is quarantined.
            assert server.registry.breaker_for(poisoned).state == "open"
            with pytest.raises(CircuitOpenError):
                server.submit(poisoned)
            account = server.tenant("default")
            assert account.rejected == 1
            snap = server.snapshot()
            assert snap.value(
                "serving_breaker_rejected", handle=poisoned
            ) == 1
            assert snap.value(
                "serving_breaker_state", handle=poisoned
            ) == BREAKER_STATE_CODES["open"]
            transitions = [
                e.label for e in server.lifecycle_events
                if e.label.startswith("breaker_")
            ]
            assert "breaker_open" in transitions
            # A redeploy bumps the version: the fixed plan starts with a
            # fresh closed breaker while the poisoned handle stays open.
            healthy = server.deploy("q4", q4()).handle
            assert healthy != poisoned
            assert server.submit(healthy).result(timeout=60).frame.n_rows > 0
            assert server.registry.breaker_for(poisoned).state == "open"

    def test_client_cancel_does_not_feed_the_breaker(self, catalog, cluster):
        with Server(
            cluster,
            catalog,
            breaker=BreakerConfig(failure_threshold=1, cooldown=1),
        ) as server:
            handle = server.deploy("q12", q12()).handle
            future = server.submit(handle)
            future.cancel()
            with pytest.raises(QueryCancelled):
                future.result(timeout=60)
            assert server.registry.breaker_for(handle).state == "closed"
            # The handle still admits new work.
            assert server.submit(handle).result(timeout=60).frame.n_rows > 0


class TestLedgerConservation:
    def test_every_submission_lands_in_exactly_one_bucket(
        self, catalog, cluster
    ):
        with Server(
            cluster,
            catalog,
            max_pending=8,
            shed_threshold=0.5,
        ) as server:
            # A second tenant halves "default"'s entitlement so the fifth
            # submission below actually lands in the shed bucket.
            server.register_tenant("other", weight=1.0)
            handle = server.deploy("q12", q12()).handle
            futures = [server.submit(handle) for _ in range(4)]
            futures[0].cancel()
            with pytest.raises(OverloadShedError):
                server.submit(handle)
            for future in futures:
                try:
                    future.result(timeout=60)
                except QueryCancelled:
                    pass
            account = server.tenant("default")
            assert account.submitted == 5
            assert account.submitted == (
                account.queries
                + account.cancelled
                + account.deadline_missed
                + account.failed
                + account.shed
                + account.rejected
            )
            assert account.in_flight == 0
            server.drain()  # the scheduler posts its counters after on_done
            snap = server.snapshot()
            assert snap.value("serving_in_flight", tenant="default") == 0
            assert snap.value("serving_steps", tenant="default") == (
                account.steps
            )
            # The metrics are the journals, counted: no second copy to drift.
            terminals = Counter(j.terminal for j in server.journals)
            assert terminals == {"completed": 3, "cancelled": 1, "shed": 1}
            for kind in ("cancelled", "deadline_missed", "failed", "shed", "rejected"):
                metric = snap.value(f"serving_{kind}", tenant="default")
                assert metric == terminals[kind], kind
            assert snap.value("serving_retries", tenant="default") == sum(
                e.kind == "retry_scheduled" for j in server.journals for e in j.events
            )
            # Every traced lifecycle instant is some journal's retry or
            # terminal entry, seen through another lens.
            instants = server.lifecycle_events
            assert sorted(e.label for e in instants) == ["cancelled", "shed"]
            by_trace = {j.trace_id: j for j in server.journals}
            for event in instants:
                journal = by_trace[event.trace_id]
                entry = journal.events[-1]
                assert dict(entry.detail)["terminal"] == event.label
                assert (entry.span_id, entry.sim_time) == (event.span_id, event.start)
                assert event.detail.query_id == journal.query_id

    def test_refused_instantiation_is_counted_everywhere(self, cluster):
        with Server(cluster, load_catalog(scale_factor=SF)) as server:
            handle = server.deploy("q12", q12()).handle
            server.catalog = Catalog()  # drift: every required table is gone
            with pytest.raises(SchemaContractError):
                server.submit(handle)
            account = server.tenant("default")
            snap = server.snapshot()
            assert account.rejected == 1
            assert snap.value("serving_rejected", tenant="default") == 1
            assert (account.submitted, account.in_flight) == (1, 0)
            assert snap.value("serving_in_flight", tenant="default") == 0
            (journal,) = server.journals
            assert journal.terminal == "rejected"
            assert journal.reason == "SchemaContractError"
            assert server.lifecycle_events == []  # hard rejections emit none

    def test_the_ledger_is_a_frozen_view(self, catalog, cluster):
        with Server(cluster, catalog) as server:
            account = server.tenant("default")
            with pytest.raises(dataclasses.FrozenInstanceError):
                account.queries = 7
            handle = server.deploy("q12", q12()).handle
            server.run(handle, timeout=60)
            # A view is as of its read; read again for newer numbers.
            assert (account.queries, server.tenant("default").queries) == (0, 1)
