"""The unified RunOptions API: validation and knob plumbing.

The contract under test: every public entry point accepts one immutable
:class:`~repro.core.options.RunOptions`, every context of a run carries
that object whole (stage recovery, sanitize replay, per-rank contexts) and
keeps no copy of its knobs — a knob added to ``RunOptions`` cannot
silently drop on a retry path.
"""

import inspect
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

#: A non-default value per knob the data path reads, for drop-detection
#: tests.
NON_DEFAULTS = {"mode": "interpreted", "join_kernel": "radix", "morsel_rows": 7}

#: The knobs the per-rank/replay contexts must run with verbatim.
WORKER_KNOBS = tuple(NON_DEFAULTS)


class _Rank:
    """A stand-in for the per-rank comm context: for_rank only reads its
    cost model and clock."""

    cost = DEFAULT_COST_MODEL
    clock = ExecutionContext(cost=DEFAULT_COST_MODEL).clock


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
        assert set(WORKER_KNOBS) <= {f.name for f in fields(RunOptions)}
        options = RunOptions(**NON_DEFAULTS)
        assert {k: getattr(options, k) for k in WORKER_KNOBS} == NON_DEFAULTS


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

    def test_context_is_the_one_knob_source(self):
        # No context field mirrors a RunOptions field: the context reads
        # its knobs from the options it carries.
        option_fields = {f.name for f in fields(RunOptions)}
        context_fields = {f.name for f in fields(ExecutionContext)} - {"options"}
        assert context_fields & option_fields == set()
        # A context runs under its own options; other explicit options are
        # refused, not silently overridden by the context.
        root, slot, table = self._simple()
        with pytest.raises(ExecutionError, match="carries its options"):
            execute(
                root, {slot: (table,)}, RunOptions(mode="interpreted"),
                ctx=ExecutionContext.from_options(RunOptions()),
            )


class TestContextDerivation:
    """No knob may drop when a context is re-derived from RunOptions."""

    @pytest.mark.parametrize("knob", WORKER_KNOBS)
    def test_from_options_carries_every_worker_knob(self, knob):
        options = RunOptions(**{knob: NON_DEFAULTS[knob]})
        ctx = ExecutionContext.from_options(options)
        assert getattr(ctx.options, knob) == NON_DEFAULTS[knob]

    @pytest.mark.parametrize("knob", WORKER_KNOBS)
    def test_run_options_round_trips_every_worker_knob(self, knob):
        # ctx.options is what stage recovery and the sanitize replay hand
        # to the contexts they rebuild; a knob lost here resurfaces as a
        # retry that silently runs with different semantics.
        options = RunOptions(**{knob: NON_DEFAULTS[knob]})
        ctx = ExecutionContext.from_options(options)
        worker = ExecutionContext.for_rank(_Rank(), ctx.options)
        assert getattr(worker.options, knob) == NON_DEFAULTS[knob]

    @pytest.mark.parametrize("knob", WORKER_KNOBS)
    def test_run_options_reconstructs_from_bare_context(self, knob):
        # A hand-built context (the ctx= path, not from_options) reports
        # the knob values it runs with.
        ctx = ExecutionContext(
            cost=DEFAULT_COST_MODEL, options=RunOptions(**{knob: NON_DEFAULTS[knob]})
        )
        assert getattr(ctx.options, knob) == NON_DEFAULTS[knob]

    def test_for_rank_applies_options_knobs(self):
        options = RunOptions(**NON_DEFAULTS)
        worker = ExecutionContext.for_rank(_Rank(), options)
        for knob in WORKER_KNOBS:
            assert getattr(worker.options, knob) == NON_DEFAULTS[knob]

    def test_for_rank_overrides_stale_individual_knobs(self):
        # The whole-set contract: for_rank takes the driver's options
        # object and no individual knob argument, so a caller cannot
        # forward some knobs and forget (or go stale on) others.
        options = RunOptions(**NON_DEFAULTS)
        assert ExecutionContext.for_rank(_Rank(), options).options is options
        parameters = inspect.signature(ExecutionContext.for_rank).parameters
        assert not set(parameters) & {f.name for f in fields(RunOptions)}


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
        # Every operator activation of the recovered run — including the
        # re-executed stage's — ran in interpreted mode.  A dropped mode
        # knob would show up as fused-mode spans here.
        assert chaos.profile.spans
        assert {span.mode for span in chaos.profile.spans} == {"interpreted"}
        base_out = baseline.rows[0][0]
        chaos_out = chaos.rows[0][0]
        for name in base_out.element_type.field_names:
            assert np.array_equal(
                np.asarray(base_out.column(name)),
                np.asarray(chaos_out.column(name)),
            )

    def test_morsel_rows_survives_sanitize_replay(self):
        # The sanitize replay rebuilds a context from ctx.options; a
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
