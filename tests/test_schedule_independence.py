"""Nothing observable may depend on the order ranks are granted the baton.

Ranks meet only at collectives and put one-sidedly into disjoint window
regions, so any interleaving of the stretches between collectives must
give the same rows, the same simulated clocks and the same per-rank
traces.  The substrate's grant policy (``CommWorld.next_rank``) is
substituted by seeded random picks and every target of the catalogue is
compared with its run under the default round-robin order.

Every other seeded run is sanitized: MOD050-052 watch it, and the MOD053
replay continues the same random stream, so it diffs the write sets of two
*different* schedules.  That sanitizing changes none of the compared
evidence is checked by the same comparison.

A plan's MPI waves walk every rank at once, in lockstep, which has no
grant order.  So each seeded run gives its waves rank threads instead (the
scheduler of SPMD code), each rank walking its own lane of the plan: the
seeded order applies to them, and their evidence must equal the default
run's lockstep walk.
"""

import itertools
import random
from contextlib import contextmanager

import pytest

from repro import RunOptions
from repro.core import lockstep
from repro.faults import CrashFault, FaultPolicy
from repro.mpi.comm import CommWorld
from repro.workloads.targets import ALL_TARGETS, resolve

RANKS = (2, 3, 8)
MODES = ("fused", "interpreted")
#: Per (plan, ranks, mode) cell, one per entry: is that run sanitized?
#: Each seed is used once, so a plan sees 3 x 2 x 2 = 12 distinct orders
#: (18 with the replays); 8 per cell would cost tier-1 about 15 s.
SEEDED_ORDERS = (False, True)
SIZES = dict(log2_tuples=6, sf=0.0002, trace=True)


@contextmanager
def grant_order(seed):
    """Grant the baton by seeded random choice; yields the picks made."""
    rng = random.Random(seed)
    picks = []

    def next_rank(world, runnable):
        picks.append(rng.choice(runnable))
        return picks[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CommWorld, "next_rank", next_rank)
        yield picks


@contextmanager
def rank_threads():
    """Run every MPI wave with a thread per rank, each walking its lane."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lockstep, "runs_in_lockstep", lambda executor: False)
        yield


def rows(target, report):
    names, columns = target.columns(report)
    return names, [(column.dtype, column.tobytes()) for column in columns]


def evidence(target, report):
    jobs = report.cluster_results
    return {
        "rows": rows(target, report),
        "clocks": [job.clocks for job in jobs],
        "phases": [job.phase_breakdown() for job in jobs],
        "events": [
            [job.trace.events(rank) for rank in range(job.trace.n_ranks)]
            for job in jobs
        ],
    }


@pytest.mark.parametrize("name", ALL_TARGETS)
def test_grant_order_changes_nothing(name):
    seeds = itertools.count()
    for ranks in RANKS:
        target = resolve(name, ranks, **SIZES)
        for mode in MODES:
            expected = evidence(target, target.run(RunOptions(mode=mode)))
            assert all(len(clocks) == ranks for clocks in expected["clocks"])
            for sanitize, seed in zip(SEEDED_ORDERS, seeds):
                with grant_order(seed) as picks, rank_threads():
                    report = target.run(RunOptions(mode=mode, sanitize=sanitize))
                assert picks, "the substituted grant policy never ran"
                assert not sanitize or report.sanitizer.clean, (ranks, mode, seed)
                assert evidence(target, report) == expected, (ranks, mode, seed)


@pytest.mark.parametrize("name", ("join", "q12"))
@pytest.mark.parametrize(
    "policy",
    (
        FaultPolicy(put_drop_rate=0.2, collective_drop_rate=0.2),
        FaultPolicy(crash=CrashFault(1, after_comm_ops=4)),
    ),
    ids=("transient", "crash"),
)
def test_recovery_does_not_depend_on_grant_order(name, policy):
    target = resolve(name, 3, **SIZES)
    options = RunOptions(faults=policy)

    def outcome():
        with rank_threads():
            report = target.run(options)
        return rows(target, report), report.simulated_time, report.fault_summary()

    expected = outcome()
    assert expected[2], "the policy injected nothing"
    for seed in range(4):
        with grant_order(seed) as picks:
            assert outcome() == expected, seed
        assert picks, "the substituted grant policy never ran"
