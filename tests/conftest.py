"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.executor
from repro.core.context import ExecutionContext
from repro.core.lockstep import Lockstep, drained_rows, steps
from repro.core.options import RunOptions
from repro.core.operators import ParameterLookup, ParameterSlot
from repro.core.plan import prepare
from repro.mpi.cluster import ClusterResult, SimCluster
from repro.mpi.comm import CommGroup
from repro.mpi.trace import ClusterTrace
from repro.types import INT64, RowVector, TupleType, row_vector_type

# Statically verify every plan the suite executes (analyzer soak test):
# any plan reaching `execute` with error-severity diagnostics fails its
# test with a PlanVerificationError instead of running.
repro.core.executor.VERIFY_PLANS = True

KV = TupleType.of(key=INT64, value=INT64)


@pytest.fixture
def ctx() -> ExecutionContext:
    return ExecutionContext()


@pytest.fixture
def interpreted_ctx() -> ExecutionContext:
    return ExecutionContext(options=RunOptions(mode="interpreted"))


def make_kv_table(n: int, seed: int = 0, key_range: int | None = None) -> RowVector:
    """A shuffled ⟨key, value⟩ table with dense or bounded keys."""
    rng = np.random.default_rng(seed)
    if key_range is None:
        keys = rng.permutation(n).astype(np.int64)
    else:
        keys = rng.integers(0, key_range, size=n).astype(np.int64)
    values = rng.integers(0, 1000, size=n).astype(np.int64)
    return RowVector(KV, [keys, values])


def table_source(table: RowVector, ctx: ExecutionContext):
    """A ParameterLookup bound to a single-table tuple, plus its context."""
    slot = ParameterSlot(TupleType.of(t=row_vector_type(table.element_type)))
    ctx.push_parameter(slot.id, (table,))
    return ParameterLookup(slot)


def run_lanes(cluster: SimCluster, build) -> ClusterResult:
    """Walk the plan ``build(source)`` over the ranks of one job on
    ``cluster`` in lockstep, as an ``MpiExecutor`` wave does, and harvest
    each rank's rows.  ``source(table)`` is a ParameterLookup every lane
    binds to ``table``."""
    trace = ClusterTrace(cluster.n_ranks) if cluster.trace else None
    contexts = cluster.job_contexts(trace=trace)
    lanes = [ExecutionContext.for_rank(rank_ctx) for rank_ctx in contexts]

    def source(table: RowVector) -> ParameterLookup:
        slot = ParameterSlot(TupleType.of(t=row_vector_type(table.element_type)))
        for ctx in lanes:
            ctx.push_parameter(slot.id, (table,))
        return ParameterLookup(slot)

    root = prepare(build(source))
    lx = Lockstep(lanes, CommGroup([rank_ctx.comm for rank_ctx in contexts]))
    rows = drained_rows(steps(root, lx), lx)
    lx.group.check()
    return ClusterResult.of(contexts, rows, trace)


@pytest.fixture
def cluster4() -> SimCluster:
    return SimCluster(4)


@pytest.fixture
def cluster2() -> SimCluster:
    return SimCluster(2)
