"""Unit tests for the fault-injection substrate's policy/injector layer.

Covers the pure decision machinery (policies, per-rank RNG streams, the
crash ledger, checkpoints) plus one cluster-level satellite: non-primary
failure preservation.
"""

import numpy as np
import pytest

from repro.errors import RankCrashError, TypeCheckError
from repro.faults import (
    CheckpointStore,
    CrashFault,
    FaultInjector,
    FaultPolicy,
    RetryPolicy,
    StragglerFault,
)
from repro.mpi.cluster import SimCluster
from repro.types import INT64, RowVector, TupleType

KV = TupleType.of(key=INT64, value=INT64)


class TestPolicyValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(TypeCheckError, match="put_drop_rate"):
            FaultPolicy(put_drop_rate=1.5)
        with pytest.raises(TypeCheckError, match="collective_drop_rate"):
            FaultPolicy(collective_drop_rate=-0.1)

    def test_crash_needs_a_trigger(self):
        with pytest.raises(TypeCheckError, match="trigger"):
            CrashFault(rank=0)

    def test_retry_budget_validation(self):
        with pytest.raises(TypeCheckError, match="attempt"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(TypeCheckError, match="backoff"):
            RetryPolicy(backoff_multiplier=0.5)

    def test_duplicate_stragglers_rejected(self):
        with pytest.raises(TypeCheckError, match="duplicate"):
            FaultPolicy(stragglers=(StragglerFault(1), StragglerFault(1)))

    def test_backoff_is_exponential(self):
        retry = RetryPolicy(backoff_base=1e-4, backoff_multiplier=2.0)
        assert retry.backoff(1) == pytest.approx(1e-4)
        assert retry.backoff(3) == pytest.approx(4e-4)

    def test_injects_anything(self):
        assert not FaultPolicy().injects_anything
        assert FaultPolicy(put_drop_rate=0.1).injects_anything
        assert FaultPolicy(memory_pressure=True).injects_anything


class TestInjectorDeterminism:
    def test_same_seed_same_draws(self):
        policy = FaultPolicy(seed=7, put_drop_rate=0.3, collective_drop_rate=0.2)

        def draws():
            job = FaultInjector(policy).job(4)
            faults = job.rank_faults(2)
            return [faults.put_drops() for _ in range(64)] + [
                faults.collective_drops() for _ in range(64)
            ]

        assert draws() == draws()
        assert any(draws())

    def test_ranks_draw_from_distinct_streams(self):
        policy = FaultPolicy(seed=7, put_drop_rate=0.5)
        job = FaultInjector(policy).job(4)
        rank0, rank1 = job.rank_faults(0), job.rank_faults(1)
        a = [rank0.put_drops() for _ in range(64)]
        b = [rank1.put_drops() for _ in range(64)]
        assert a != b

    def test_retry_attempts_draw_fresh_faults(self):
        # A stage re-execution gets a new job index, hence new streams:
        # retrying is not doomed to replay the same drops forever.
        policy = FaultPolicy(seed=7, put_drop_rate=0.5)
        injector = FaultInjector(policy)
        # Job indices differ, so the 64-draw sequences differ w.h.p.
        attempt_a = injector.job(2).rank_faults(0)
        attempt_b = injector.job(2).rank_faults(0)
        assert [attempt_a.put_drops() for _ in range(64)] != [
            attempt_b.put_drops() for _ in range(64)
        ]

    def test_no_comm_faults_returns_none_handle(self):
        job = FaultInjector(FaultPolicy(stragglers=(StragglerFault(0, 2.0),))).job(2)
        assert job.rank_faults(0) is None
        assert job.slowdown(0) == 2.0
        assert job.slowdown(1) == 1.0


class TestCrashLedger:
    def test_transient_crash_fires_once(self):
        policy = FaultPolicy(crash=CrashFault(rank=1, after_comm_ops=2))
        injector = FaultInjector(policy)
        faults = injector.job(2).rank_faults(1)
        faults.check_crash(0.0)  # op 1: below trigger
        with pytest.raises(RankCrashError) as exc_info:
            faults.check_crash(1.0)  # op 2: fires
        assert exc_info.value.rank == 1
        assert exc_info.value.sim_time == 1.0
        assert not exc_info.value.permanent
        # The retry attempt reaches the trigger again but the ledger says no.
        retry = injector.job(2).rank_faults(1)
        retry.check_crash(0.0)
        retry.check_crash(0.0)
        retry.check_crash(0.0)

    def test_permanent_crash_refires(self):
        policy = FaultPolicy(crash=CrashFault(rank=0, after_comm_ops=1, permanent=True))
        injector = FaultInjector(policy)
        for _ in range(2):
            with pytest.raises(RankCrashError) as exc_info:
                injector.job(2).rank_faults(0).check_crash(0.5)
            assert exc_info.value.permanent

    def test_without_crash_view_shares_job_counter(self):
        policy = FaultPolicy(crash=CrashFault(rank=0, after_comm_ops=1, permanent=True))
        injector = FaultInjector(policy)
        first = injector.job(2)
        degraded = injector.without_crash()
        assert degraded.policy.crash is None
        assert degraded.job(1).index == first.index + 1
        assert injector.job(2).index == first.index + 2
        # The degraded view never crashes even for a permanent fault.
        assert degraded.job(1).rank_faults(0) is None

    def test_crash_at_time_trigger(self):
        policy = FaultPolicy(crash=CrashFault(rank=0, at_time=1.0))
        faults = FaultInjector(policy).job(1).rank_faults(0)
        faults.check_crash(0.5)
        with pytest.raises(RankCrashError):
            faults.check_crash(1.5)


class TestCheckpointStore:
    def _vec(self, n=3):
        return RowVector(
            KV,
            [np.arange(n, dtype=np.int64), np.arange(n, dtype=np.int64)],
        )

    def test_seal_requires_all_ranks(self):
        store = CheckpointStore(n_ranks=2, slot_id=11)
        store.deposit(1, 0, self._vec())
        assert store.seal() == 0
        assert store.lookup(1, 0) is None
        store.deposit(1, 1, self._vec())
        assert store.seal() == 1
        assert store.lookup(1, 0) is not None

    def test_deposits_never_change_verdicts_mid_attempt(self):
        store = CheckpointStore(n_ranks=1, slot_id=11)
        store.seal()
        store.deposit(1, 0, self._vec())
        # Sealed snapshot predates the deposit: still a recompute.
        assert store.lookup(1, 0) is None
        assert store.seal() == 1
        assert store.lookup(1, 0) is not None

    def test_resize_discards_full_width_checkpoints(self):
        store = CheckpointStore(n_ranks=2, slot_id=11)
        store.deposit(1, 0, self._vec())
        store.deposit(1, 1, self._vec())
        store.seal()
        store.resize(1)
        assert store.lookup(1, 0) is None
        assert store.seal() == 0


class TestSecondaryErrors:
    def test_independent_failures_are_not_masked(self):
        cluster = SimCluster(2)

        def prog(ctx):
            raise ValueError(f"boom on rank {ctx.rank}")

        with pytest.raises(ValueError, match="boom on rank") as exc_info:
            cluster.run(prog)
        exc = exc_info.value
        assert len(exc.secondary_errors) == 1
        (other,) = exc.secondary_errors
        assert isinstance(other, ValueError)
        assert str(other) != str(exc)
        assert any("secondary rank failure" in n for n in exc.__notes__)

    def test_single_failure_has_no_secondaries(self):
        cluster = SimCluster(2)

        def prog(ctx):
            if ctx.rank == 0:
                raise ValueError("only rank 0 fails")
            ctx.comm.barrier()

        with pytest.raises(ValueError, match="only rank 0") as exc_info:
            cluster.run(prog)
        assert exc_info.value.secondary_errors == ()
