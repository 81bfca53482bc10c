"""The serving acceptance soak: concurrency must be unobservable.

16 mixed TPC-H queries (Q4/Q12/Q14/Q19) interleaved on one shared
``SimCluster`` must produce frames bit-identical (tolerance 0.0) to
serial runs of the same prepared plans — including under transient-fault
chaos — with per-tenant accounting that reconciles exactly against the
serial totals, measured fair-share, and scheduler-level evidence that
more than one query's work actually overlapped.
"""

import threading

import pytest

from repro.faults.policy import CHAOS_PROFILES
from repro.mpi.cluster import SimCluster
from repro.serving import Server, SoakConfig, run_soak
from repro.serving.soak import breaker_scenario
from repro.tpch import load_catalog, q12

SF = 0.005


@pytest.fixture(scope="module")
def clean_report():
    return run_soak(SoakConfig(scale_factor=SF, n_queries=16))


@pytest.fixture(scope="module")
def chaos_report():
    return run_soak(SoakConfig(scale_factor=SF, n_queries=8, chaos="transient"))


@pytest.fixture(scope="module")
def flaky_report():
    return run_soak(
        SoakConfig(scale_factor=SF, n_queries=8, chaos="flaky", retries=2)
    )


class TestBitIdentity:
    def test_sixteen_concurrent_queries_match_serial(self, clean_report):
        assert len(clean_report.results) == 16
        assert clean_report.bit_identical
        assert clean_report.mismatched == ()

    def test_chaos_soak_still_bit_identical(self, chaos_report):
        assert chaos_report.config.chaos
        assert chaos_report.bit_identical

    def test_every_query_mix_member_ran(self, clean_report):
        names = {r.handle.split("@")[0] for r in clean_report.results}
        assert names == {"q4", "q12", "q14", "q19"}


class TestAccounting:
    def test_per_tenant_simulated_seconds_sum_to_serial_totals(
        self, clean_report
    ):
        # The ledger check: each tenant's settled simulated seconds must
        # equal the sum of serial runs of the queries it submitted.  The
        # clock is deterministic, so this is exact equality territory.
        for tenant, (settled, serial) in clean_report.ledgers.items():
            assert settled == pytest.approx(serial, abs=1e-12), tenant

    def test_chaos_accounting_reconciles_too(self, chaos_report):
        for tenant, (settled, serial) in chaos_report.ledgers.items():
            assert settled == pytest.approx(serial, abs=1e-12), tenant

    def test_every_tenant_settled_work(self, clean_report):
        for tenant, (settled, _) in clean_report.ledgers.items():
            assert settled > 0, tenant


class TestConcurrency:
    def test_scheduler_interleaved_queries(self, clean_report):
        # Overlapping [first_seq, last_seq] global-step spans prove two
        # queries were in flight at once on the scheduler — the serving
        # layer is not a disguised serial loop.
        assert clean_report.overlapped >= 2

    def test_most_queries_overlap_at_n16(self, clean_report):
        assert clean_report.overlapped >= len(clean_report.results) // 2

    def test_no_tenant_starved(self, clean_report):
        assert clean_report.starved_tenants == []
        for tenant, (observed, entitled) in clean_report.shares.items():
            assert observed > 0, tenant
            assert entitled > 0, tenant

    def test_render_mentions_the_verdicts(self, clean_report):
        text = clean_report.render()
        assert "bit-identical to serial: True" in text
        assert "overlapped" in text
        for tenant in clean_report.shares:
            assert tenant in text


class TestChaosProfiles:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="chaos"):
            SoakConfig(chaos="meteor-strike")

    def test_profile_names_are_closed(self):
        assert set(CHAOS_PROFILES) == {
            "none", "transient", "crash", "degrade", "straggler", "pressure",
            "flaky",
        }

    def test_flaky_profile_heals_through_server_retries(self, flaky_report):
        # Every query completes, and every one of them needed at least
        # one server-level retry to get there.
        assert flaky_report.bit_identical
        n = flaky_report.config.n_queries
        assert flaky_report.lifecycle.get("completed") == tuple(range(n))
        assert flaky_report.lifecycle.get("retried") == tuple(range(n))


class TestLifecycleAndReconciliation:
    def test_clean_soak_completes_everything(self, clean_report):
        n = clean_report.config.n_queries
        assert clean_report.lifecycle.get("completed") == tuple(range(n))

    @pytest.mark.parametrize(
        "report_fixture", ["clean_report", "chaos_report", "flaky_report"]
    )
    def test_ledger_reconciles_exactly(self, report_fixture, request):
        report = request.getfixturevalue(report_fixture)
        assert report.reconciliation_errors() == []
        assert "ledger reconciliation: exact" in report.render()

    def test_cancelled_submissions_settle_as_cancelled(self):
        report = run_soak(
            SoakConfig(scale_factor=SF, n_queries=8, cancel_every=4)
        )
        assert report.lifecycle.get("cancelled") == (3, 7)
        assert len(report.lifecycle.get("completed", ())) == 6
        assert report.bit_identical
        assert report.reconciliation_errors() == []

    def test_tiny_deadline_misses_every_query(self):
        report = run_soak(
            SoakConfig(scale_factor=SF, n_queries=8, deadline=1e-6)
        )
        assert report.lifecycle.get("deadline_missed") == tuple(range(8))
        assert report.reconciliation_errors() == []

    def test_overload_shedding_spills_over_entitlement(self):
        report = run_soak(
            SoakConfig(
                scale_factor=SF,
                n_queries=12,
                max_pending=8,
                shed_threshold=0.5,
            )
        )
        shed = report.lifecycle.get("shed", ())
        completed = report.lifecycle.get("completed", ())
        assert shed  # the burst overflows the shed region
        assert len(shed) + len(completed) == 12
        assert report.bit_identical
        assert report.reconciliation_errors() == []


class TestBreakerScenario:
    @pytest.fixture(scope="class")
    def scenario(self):
        return breaker_scenario(scale_factor=SF, poison_submissions=8)

    def test_poison_plan_trips_and_fast_fails(self, scenario):
        assert scenario.tripped
        assert scenario.breaker_state == "open"
        assert scenario.breaker_rejected > 0
        assert scenario.poison_failed + scenario.breaker_rejected == (
            scenario.poison_submissions
        )

    def test_bystanders_unharmed(self, scenario):
        assert scenario.bystander_runs == scenario.poison_submissions
        assert scenario.bystander_matched

    def test_render_names_the_verdicts(self, scenario):
        text = scenario.render()
        assert "fast-failed" in text
        assert "bit-identical" in text


class TestNoThreadStarted:
    """The serving layer starts no thread: a query advances only on the
    thread that waits for it, so every path completes with thread start
    refused."""

    @pytest.fixture(autouse=True)
    def refuse_threads(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"serving started thread {thread.name!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)

    def test_chaos_soak_completes(self):
        report = run_soak(SoakConfig(scale_factor=SF, n_queries=8, chaos="transient"))
        assert report.bit_identical
        assert report.lifecycle.get("completed") == tuple(range(8))
        assert report.reconciliation_errors() == []

    def test_breaker_scenario_completes(self):
        scenario = breaker_scenario(scale_factor=SF, poison_submissions=4)
        assert scenario.tripped and scenario.bystander_matched

    def test_server_used_from_the_test_thread(self):
        catalog = load_catalog(scale_factor=SF)
        with Server(SimCluster(2), catalog) as server:
            handle = server.deploy("q12", q12()).handle
            futures = [server.submit(handle) for _ in range(3)]
            assert server.run(handle, timeout=120).frame.n_rows > 0
            assert all(f.result(timeout=120).frame.n_rows > 0 for f in futures)
