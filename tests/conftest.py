"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.executor
from repro.core.context import ExecutionContext
from repro.core.options import RunOptions
from repro.core.operators import ParameterLookup, ParameterSlot
from repro.mpi.cluster import SimCluster
from repro.types import INT64, RowVector, TupleType, row_vector_type

# Statically verify every plan the suite executes (analyzer soak test):
# any plan reaching `execute` with error-severity diagnostics fails its
# test with a PlanVerificationError instead of running.
repro.core.executor.VERIFY_PLANS = True

KV = TupleType.of(key=INT64, value=INT64)


@pytest.fixture
def kv_type() -> TupleType:
    return KV


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


@pytest.fixture
def cluster4() -> SimCluster:
    return SimCluster(4)


@pytest.fixture
def cluster2() -> SimCluster:
    return SimCluster(2)
