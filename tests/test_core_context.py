"""Unit tests for ExecutionContext: modes, charging, parameter scopes."""

import pytest

from repro.core.context import ExecutionContext
from repro.core.options import RunOptions
from repro.core.operator import Operator
from repro.errors import ExecutionError
from repro.mpi.costmodel import DEFAULT_COST_MODEL


class _FakeOp(Operator):
    """Minimal operator carrying phase/pipeline annotations for charging."""

    def __init__(self, phase="other", pipeline_size=1):
        super().__init__(upstreams=())
        self.assigned_phase = phase
        self.pipeline_size = pipeline_size
        self._output_type = None


class TestModes:
    def test_default_is_fused(self, ctx):
        assert ctx.options.mode == "fused"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ExecutionError, match="unknown execution mode"):
            ExecutionContext(options=RunOptions(mode="quantum"))

    def test_overhead_small_pipeline(self, ctx):
        assert ctx.overhead_for(3) == DEFAULT_COST_MODEL.small_pipeline_overhead

    def test_overhead_large_pipeline(self, ctx):
        assert ctx.overhead_for(10) == DEFAULT_COST_MODEL.fused_overhead

    def test_overhead_interpreted(self, interpreted_ctx):
        assert (
            interpreted_ctx.overhead_for(2)
            == DEFAULT_COST_MODEL.interpreted_overhead
        )


class TestCharging:
    def test_charge_cpu_advances_clock(self, ctx):
        ctx.charge_cpu(_FakeOp(), "scan", 1_000_000)
        assert ctx.clock.now > 0

    def test_charge_zero_tuples_is_free(self, ctx):
        ctx.charge_cpu(_FakeOp(), "scan", 0)
        assert ctx.clock.now == 0

    def test_charge_attributes_phase(self, ctx):
        ctx.charge_cpu(_FakeOp(phase="build_probe"), "build", 1000)
        assert ctx.clock.timings.get("build_probe") > 0

    def test_materialize_charge(self, ctx):
        ctx.charge_materialize(_FakeOp(phase="materialize"), 1 << 20)
        assert ctx.clock.timings.get("materialize") > 0

    def test_pipeline_size_changes_cost(self):
        small, large = ExecutionContext(), ExecutionContext()
        small.charge_cpu(_FakeOp(pipeline_size=2), "scan", 10_000)
        large.charge_cpu(_FakeOp(pipeline_size=10), "scan", 10_000)
        assert large.clock.now > small.clock.now


class TestDistributedFacets:
    def test_driver_context_has_no_comm(self, ctx):
        with pytest.raises(ExecutionError, match="MpiExecutor"):
            _ = ctx.comm

    def test_driver_rank_is_zero(self, ctx):
        assert ctx.rank == 0
        assert ctx.n_ranks == 1


class TestParameters:
    def test_push_lookup_pop(self, ctx):
        ctx.push_parameter(42, ("hello",))
        assert ctx.lookup_parameter(42) == ("hello",)
        ctx.pop_parameter(42)
        with pytest.raises(ExecutionError, match="outside its NestedMap"):
            ctx.lookup_parameter(42)

    def test_double_push_rejected(self, ctx):
        ctx.push_parameter(1, (1,))
        with pytest.raises(ExecutionError, match="already bound"):
            ctx.push_parameter(1, (2,))

    def test_pop_unbound_rejected(self, ctx):
        with pytest.raises(ExecutionError, match="not bound"):
            ctx.pop_parameter(99)

    def test_binding_key_reflects_bindings(self, ctx):
        empty = ctx.parameter_binding_key()
        ctx.push_parameter(5, (1, 2))
        bound = ctx.parameter_binding_key()
        assert empty == ()
        assert bound != empty

    def test_pop_invalidates_shared_cache(self, ctx):
        value = (1, 2)
        ctx.push_parameter(5, value)
        ctx.shared_cache[123] = (ctx.parameter_binding_key(), "cached")
        ctx.pop_parameter(5)
        assert 123 not in ctx.shared_cache

    def test_pop_keeps_unrelated_cache(self, ctx):
        ctx.shared_cache[7] = ((), "kept")
        ctx.push_parameter(5, (1,))
        ctx.pop_parameter(5)
        assert ctx.shared_cache[7] == ((), "kept")
