"""The unified RunOptions API: validation and knob plumbing.

The contract under test: every public entry point accepts one immutable
:class:`~repro.core.options.RunOptions`, and the *whole* knob set
survives every context re-derivation (stage recovery, sanitize replay,
per-rank contexts) — a knob added to ``RunOptions`` cannot silently drop
on a retry path.
"""

import warnings
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from repro.core.context import ExecutionContext
from repro.core.executor import execute
from repro.core.options import RunOptions
from repro.core.plans import build_distributed_join
from repro.errors import ExecutionError
from repro.faults import CrashFault, FaultPolicy
from repro.mpi.cluster import SimCluster
from repro.mpi.costmodel import DEFAULT_COST_MODEL
from repro.workloads import make_join_relations

#: Every field the per-rank/replay contexts must inherit verbatim.
WORKER_KNOBS = tuple(
    f.name for f in fields(RunOptions) if f.metadata.get("worker_knob")
)

#: A non-default value per worker knob, for drop-detection tests.
NON_DEFAULTS = {"mode": "interpreted", "join_kernel": "radix", "morsel_rows": 7}


class TestValidation:
    def test_frozen(self):
        options = RunOptions()
        with pytest.raises(FrozenInstanceError):
            options.mode = "interpreted"

    @pytest.mark.parametrize(
        "bad",
        [{"mode": "jit"}, {"join_kernel": "bloom"}, {"morsel_rows": 0},
         {"morsel_rows": -4}],
    )
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ExecutionError):
            RunOptions(**bad)

    def test_replace_revalidates(self):
        with pytest.raises(ExecutionError):
            RunOptions().replace(mode="jit")

    def test_worker_knob_fields_marked(self):
        assert set(WORKER_KNOBS) == {"mode", "join_kernel", "morsel_rows"}
        options = RunOptions(**NON_DEFAULTS)
        assert options.worker_knobs() == NON_DEFAULTS


class TestPublicEntryPoints:
    """The options path runs warning-free on the public surface."""

    def _simple(self):
        from repro.core.functions import field_sum
        from repro.core.operators import (
            MaterializeRowVector,
            ParameterLookup,
            ParameterSlot,
            Reduce,
            RowScan,
        )
        from repro.types import INT64, TupleType, row_vector_type

        from tests.conftest import make_kv_table

        kv = TupleType.of(key=INT64, value=INT64)
        slot = ParameterSlot(TupleType.of(t=row_vector_type(kv)))
        scan = RowScan(ParameterLookup(slot), field="t")
        root = MaterializeRowVector(
            Reduce(scan, field_sum("key", "value")), field="result"
        )
        return root, slot, make_kv_table(64)

    def test_execute_options_does_not_warn(self):
        root, slot, table = self._simple()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = execute(
                root, params={slot: (table,)},
                options=RunOptions(mode="interpreted", profile=True),
            )
        assert report.profile is not None


class TestContextDerivation:
    """No knob may drop when a context is re-derived from RunOptions."""

    @pytest.mark.parametrize("knob", WORKER_KNOBS)
    def test_from_options_carries_every_worker_knob(self, knob):
        options = RunOptions(**{knob: NON_DEFAULTS[knob]})
        ctx = ExecutionContext.from_options(options)
        assert getattr(ctx, knob) == NON_DEFAULTS[knob]

    @pytest.mark.parametrize("knob", WORKER_KNOBS)
    def test_run_options_round_trips_every_worker_knob(self, knob):
        # run_options() is what stage recovery and the sanitize replay use
        # to rebuild worker contexts; a knob lost here resurfaces as a
        # retry that silently runs with different semantics.
        options = RunOptions(**{knob: NON_DEFAULTS[knob]})
        ctx = ExecutionContext.from_options(options)
        assert getattr(ctx.run_options(), knob) == NON_DEFAULTS[knob]

    @pytest.mark.parametrize("knob", WORKER_KNOBS)
    def test_run_options_reconstructs_from_bare_context(self, knob):
        # A context built without an options object (the historical ctx=
        # path) must still report its actual knob values.
        ctx = ExecutionContext(
            cost=DEFAULT_COST_MODEL, **{knob: NON_DEFAULTS[knob]}
        )
        assert getattr(ctx.run_options(), knob) == NON_DEFAULTS[knob]

    def test_for_rank_applies_options_knobs(self):
        # A stand-in for the per-rank comm context: for_rank only reads
        # its cost model and clock.
        class _Rank:
            cost = DEFAULT_COST_MODEL
            clock = ExecutionContext(cost=DEFAULT_COST_MODEL).clock

        options = RunOptions(**NON_DEFAULTS)
        worker = ExecutionContext.for_rank(_Rank(), options=options)
        for knob in WORKER_KNOBS:
            assert getattr(worker, knob) == NON_DEFAULTS[knob]

    def test_for_rank_overrides_stale_individual_knobs(self):
        # The whole-set contract: when options is given, a caller that
        # forwards stale individual knob arguments still gets the options'
        # values — forwarding some knobs and forgetting others is safe.
        class _Rank:
            cost = DEFAULT_COST_MODEL
            clock = ExecutionContext(cost=DEFAULT_COST_MODEL).clock

        options = RunOptions(**NON_DEFAULTS)
        worker = ExecutionContext.for_rank(
            _Rank(), mode="fused", join_kernel="auto", options=options
        )
        assert worker.mode == "interpreted"
        assert worker.join_kernel == "radix"


class TestKnobsSurviveStageRetry:
    """The satellite regression: a knob set on RunOptions must still be
    in force on the re-executed stage after a mid-stage rank crash."""

    def _plan(self):
        workload = make_join_relations(2048)
        plan = build_distributed_join(
            SimCluster(4, trace=True),
            workload.left.element_type,
            workload.right.element_type,
            key_bits=workload.key_bits,
        )
        return plan, workload

    def test_interpreted_mode_survives_stage_retry(self):
        plan, workload = self._plan()
        options = RunOptions(mode="interpreted", profile=True)
        baseline = plan.run(workload.left, workload.right, options)
        chaos = plan.run(
            workload.left, workload.right,
            options.replace(faults=FaultPolicy(
                crash=CrashFault(rank=2, after_comm_ops=5)
            )),
        )
        summary = chaos.fault_summary()
        assert summary.get("recovery:stage_retry") == 1
        # Every row the recovered run produced — including the re-executed
        # stage's — was processed in interpreted mode.  A dropped mode knob
        # would show up as fused-mode rows here.
        for node in chaos.profile.nodes():
            modes = set(node.stats.rows_by_mode)
            assert modes <= {"interpreted"}, (node, modes)
        base_out = baseline.rows[0][0]
        chaos_out = chaos.rows[0][0]
        for name in base_out.element_type.field_names:
            assert np.array_equal(
                np.asarray(base_out.column(name)),
                np.asarray(chaos_out.column(name)),
            )

    def test_morsel_rows_survives_sanitize_replay(self):
        # The sanitize replay rebuilds a context from run_options(); a
        # non-default morsel size must carry over (same epoch count in the
        # replay implies the same morsel boundaries, hence a clean verdict).
        plan, workload = self._plan()
        options = RunOptions(
            mode="interpreted", morsel_rows=64, sanitize=True
        )
        report = plan.run(workload.left, workload.right, options)
        assert report.sanitizer is not None
        assert report.sanitizer.clean


class TestExportSurface:
    def test_runoptions_reexported(self):
        import repro
        import repro.core

        assert repro.RunOptions is RunOptions
        assert repro.core.RunOptions is RunOptions
        assert "RunOptions" in repro.__all__
