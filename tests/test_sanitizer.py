"""The runtime sanitizer (MOD050–MOD053) over the simulated substrate.

Each detector gets a crafted failing plan that fires it *with operator
provenance in the message* — the whole point over the bare
``SimulationError`` the substrate used to throw — plus clean-run coverage:
the shipped plans soak clean under ``sanitize=True`` and produce
bit-identical results.
"""

import itertools

import pytest

from repro.core.options import RunOptions
from repro.analysis import SanitizerError
from repro.core.lockstep import Lockstep
from repro.core.executor import execute
from repro.core.functions import RadixPartition, TupleFunction
from repro.core.operator import Operator
from repro.core.operators import (
    LocalHistogram,
    Map,
    MaterializeRowVector,
    MpiExchange,
    MpiExecutor,
    MpiHistogram,
    ParameterLookup,
    ParameterSlot,
    RowScan,
)
from repro.core.plans import build_distributed_groupby, build_distributed_join
from repro.errors import MpiSemanticsError, SimulationError
from repro.mpi.cluster import SimCluster
from repro.types import INT64, TupleType, row_vector_type
from repro.types.collections import RowVector

from tests.conftest import KV, make_kv_table

T = TupleType.of(t=row_vector_type(KV))

ONE_ROW = RowVector.from_rows(KV, [(7, 7)])


def run_plan(build_inner, table, n_ranks=2, **kwargs):
    """Execute an MpiExecutor plan built by ``build_inner`` under sanitize."""
    slot = ParameterSlot(T)
    executor = MpiExecutor(ParameterLookup(slot), build_inner, SimCluster(n_ranks))
    root = MaterializeRowVector(RowScan(executor))
    kwargs.setdefault("sanitize", True)
    kwargs.setdefault("verify_plans", False)
    return execute(
        root, params={slot: (table,)}, options=RunOptions(**kwargs)
    )


def scan_of(slot):
    return RowScan(ParameterLookup(slot), field="t", shard_by_rank=True)


class _SubstratePoker(Operator):
    """Base for test operators that drive the comm substrate directly,
    through the group issuing their walk's collectives."""

    def __init__(self, upstream: Operator) -> None:
        super().__init__(upstreams=(upstream,))
        self._output_type = KV

    def lanes(self, lx: Lockstep):
        group = lx.collectives()
        self.poke(group, len(group.comms))
        yield from ()


class RacyPut(_SubstratePoker):
    """Every rank writes row 0 of rank 0's window: a write-set race."""

    def poke(self, group, n_ranks):
        windows = group.win_create(KV, [4] * n_ranks)
        for ws in windows:
            ws.put(0, 0, ONE_ROW)
        group.fence(windows)


class OverflowPut(_SubstratePoker):
    """Writes past the capacity the (imaginary) histogram promised."""

    def poke(self, group, n_ranks):
        windows = group.win_create(KV, [1] * n_ranks)
        windows[1].put(0, 3, ONE_ROW)
        group.fence(windows)


class UnfencedPut(_SubstratePoker):
    """A put after the last fence that no closing fence ever completes."""

    def poke(self, group, n_ranks):
        windows = group.win_create(KV, [4] * n_ranks)
        group.fence(windows)
        for rank, ws in enumerate(windows):
            ws.put(rank, 0, ONE_ROW)  # own window: no race, still unfenced


class ReadBeforeFence(_SubstratePoker):
    """Rank 0 reads its window while rank 1's put is still un-fenced."""

    def poke(self, group, n_ranks):
        windows = group.win_create(KV, [4] * n_ranks)
        windows[1].put(0, 0, ONE_ROW)
        group.allgather([None] * n_ranks)  # the put has happened, the fence has not
        windows[0].local.read(0, 1)
        group.fence(windows)


class WindowLeak(_SubstratePoker):
    """Publishes its WindowSet so the test can poke it post-execution."""

    leaked = None

    def poke(self, group, n_ranks):
        windows = group.win_create(KV, [4] * n_ranks)
        type(self).leaked = windows[0]
        group.fence(windows)


def tainted_exchange(map_cls):
    """A well-formed exchange ladder fed by a stateful (impure) Map."""
    counter = itertools.count()
    fn = TupleFunction(lambda row: (row[0], next(counter)), KV)

    def build_inner(slot):
        tainted = map_cls(scan_of(slot), fn)
        net = RadixPartition("key", 2)
        local = LocalHistogram(tainted, net)
        global_ = MpiHistogram(local, 2)
        return MaterializeRowVector(
            RowScan(MpiExchange(tainted, local, global_, net), field="data")
        )

    return build_inner


class TestMod050WriteSetRace:
    def test_overlapping_puts_fire_with_provenance(self):
        with pytest.raises(SanitizerError) as exc:
            run_plan(lambda slot: MaterializeRowVector(RacyPut(scan_of(slot))),
                     make_kv_table(8))
        msg = str(exc.value)
        assert "MOD050" in msg
        assert "RacyPut" in msg
        assert "RMA write-set race" in msg

    def test_unsanitized_race_is_a_bare_substrate_error(self):
        # The substrate still catches the race, but names no operator.
        with pytest.raises(SimulationError) as exc:
            run_plan(lambda slot: MaterializeRowVector(RacyPut(scan_of(slot))),
                     make_kv_table(8), sanitize=False)
        assert "RacyPut" not in str(exc.value)

    def test_suppression_only_removes_the_operator_naming(self):
        # The substrate refuses the racy put either way; suppressing MOD050
        # on the writer leaves its bare typed error, not silence.
        with pytest.raises(MpiSemanticsError) as exc:
            run_plan(
                lambda slot: MaterializeRowVector(
                    RacyPut(scan_of(slot)).suppress("MOD050")
                ),
                make_kv_table(8),
            )
        assert not isinstance(exc.value, SanitizerError)
        assert exc.value.rule_id == "MOD050" and exc.value.kind == "race"
        assert "RacyPut" not in str(exc.value)

    def test_capacity_violation_names_the_ladder_contract(self):
        with pytest.raises(SanitizerError) as exc:
            run_plan(lambda slot: MaterializeRowVector(OverflowPut(scan_of(slot))),
                     make_kv_table(8))
        msg = str(exc.value)
        assert "MOD050" in msg
        assert "OverflowPut" in msg
        assert "promised a region it does not have" in msg


class TestMod052WindowLifetime:
    def test_put_after_fence_reported_at_job_end(self):
        with pytest.raises(SanitizerError) as exc:
            run_plan(lambda slot: MaterializeRowVector(UnfencedPut(scan_of(slot))),
                     make_kv_table(8))
        msg = str(exc.value)
        assert "MOD052" in msg
        assert "UnfencedPut" in msg
        assert "put-after-fence" in msg

    def test_read_before_the_closing_fence(self):
        with pytest.raises(SanitizerError) as exc:
            run_plan(
                lambda slot: MaterializeRowVector(ReadBeforeFence(scan_of(slot))),
                make_kv_table(8),
            )
        msg = str(exc.value)
        assert "MOD052" in msg
        assert "before the epoch's closing fence" in msg

    def test_use_after_close(self):
        WindowLeak.leaked = None
        report = run_plan(
            lambda slot: MaterializeRowVector(WindowLeak(scan_of(slot))),
            make_kv_table(8),
        )
        assert report.sanitizer is not None and report.sanitizer.clean
        with pytest.raises(SanitizerError) as exc:
            WindowLeak.leaked.local.read(0, 1)
        msg = str(exc.value)
        assert "MOD052" in msg
        assert "use-after-close" in msg


class NondetMap(Map):
    """A Map that honestly declares its non-determinism."""

    deterministic = False


class TestMod053Determinism:
    def test_stateful_map_behind_exchange_is_caught_by_replay(self):
        report = run_plan(tainted_exchange(Map), make_kv_table(32))
        san = report.sanitizer
        assert san is not None and san.replayed
        # One finding per diverging window (each rank owns one).
        assert san.diagnostics
        assert {d.rule.id for d in san.diagnostics} == {"MOD053"}
        msg = san.diagnostics[0].message
        assert "MpiExchange" in msg
        assert "deterministic=True" in msg

    def test_declared_nondeterminism_is_exempt(self):
        # Same impure function, but the operator *says so*: MOD030/031
        # territory, not a determinism-contract violation.
        report = run_plan(tainted_exchange(NondetMap), make_kv_table(32))
        san = report.sanitizer
        assert san is not None and san.replayed and san.clean


class TestCleanRuns:
    def test_distributed_join_soaks_clean_and_bit_identical(self):
        cluster = SimCluster(4)
        plan = build_distributed_join(cluster, KV, TupleType.of(key=INT64, other=INT64))
        left = make_kv_table(256, seed=1)
        right = RowVector(
            TupleType.of(key=INT64, other=INT64),
            list(make_kv_table(256, seed=2).columns),
        )
        sanitized = plan.run(left, right, RunOptions(sanitize=True))
        plain = plan.run(left, right)
        san = sanitized.sanitizer
        assert san is not None and san.clean and san.replayed
        assert san.puts_checked > 0 and san.collectives_checked > 0
        assert sanitized.rows == plain.rows
        assert plain.sanitizer is None

    def test_groupby_soaks_clean(self):
        plan = build_distributed_groupby(SimCluster(2), KV)
        report = plan.run(make_kv_table(128), RunOptions(sanitize=True))
        assert report.sanitizer is not None and report.sanitizer.clean

    def test_explain_analyze_carries_the_sanitizer_appendix(self):
        plan = build_distributed_groupby(SimCluster(2), KV)
        report = plan.run(make_kv_table(64), RunOptions(profile=True, sanitize=True))
        rendered = report.profile.render()
        assert "sanitizer:" in rendered
        assert "clean" in rendered
        assert report.profile.to_dict()["sanitizer"]["clean"] is True

    def test_report_render_counts(self):
        plan = build_distributed_groupby(SimCluster(2), KV)
        report = plan.run(make_kv_table(64), RunOptions(sanitize=True))
        text = report.sanitizer.render()
        assert "puts" in text and "collectives" in text and "clean" in text
