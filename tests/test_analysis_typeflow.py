"""Type-flow verification rules (MOD001–MOD006).

Operator constructors already type-check the plan *as it is built*; the
static pass re-proves those invariants over the finished DAG, where plan
rewrites (prepare, optimizers, hand-patched ``upstreams``) can have broken
them.  The bad plans below are therefore built valid and then rewired —
exactly the failure mode the analyzer exists to catch.
"""

import pytest

from repro.core.options import RunOptions
from repro.analysis import RULES, Severity, analyze, verify
from repro.core.executor import execute
from repro.core.functions import field_sum
from repro.core.operators import (
    Filter,
    LocalHistogram,
    MaterializeChunks,
    MaterializeRowVector,
    MpiExchange,
    MpiExecutor,
    MpiHistogram,
    NestedMap,
    ParameterLookup,
    ParameterSlot,
    Projection,
    Reduce,
    RowScan,
)
from repro.core.functions import RadixPartition
from repro.errors import PlanVerificationError
from repro.mpi.cluster import SimCluster
from repro.types import INT64, TupleType, row_vector_type

from tests.conftest import KV, make_kv_table

AB = TupleType.of(a=INT64, b=INT64)


def source(tuple_type):
    """A typed driver-side source with no data behind it (analysis only)."""
    return ParameterLookup(ParameterSlot(tuple_type))


def table(tuple_type, field="t"):
    """A source producing one tuple holding a RowVector collection."""
    return source(TupleType.of(**{field: row_vector_type(tuple_type)}))


def row_scan_rewired_onto_chunks():
    """A RowScan built over a RowVector, then rewired onto the chunked format."""
    scan = RowScan(MaterializeRowVector(source(KV)), field="data")
    scan.upstreams = (MaterializeChunks(source(KV), chunk_rows=4),)
    return scan


def rules_of(diagnostics):
    return {d.rule.id for d in diagnostics}


def errors_of(plan):
    return [d for d in analyze(plan) if d.is_error]


class TestTypeFlow:
    def test_known_good_plan_is_clean(self):
        plan = MaterializeRowVector(
            Projection(RowScan(table(KV), field="t"), ["key"])
        )
        assert errors_of(plan) == []

    def test_mod001_swapped_upstream_type(self):
        # A Filter built over ⟨key, value⟩, then rewired onto ⟨a, b⟩: its
        # declared (passthrough) output type no longer matches the edge.
        keep_all = Filter(source(KV), _TruePredicate())
        keep_all.upstreams = (source(AB),)
        findings = errors_of(keep_all)
        assert rules_of(findings) == {"MOD001"}
        assert "re-inferred" in findings[0].message

    def test_mod002_dangling_field_reference(self):
        projection = Projection(source(KV), ["key"])
        projection.upstreams = (source(AB),)
        findings = errors_of(projection)
        assert rules_of(findings) == {"MOD002"}
        assert "'key'" in findings[0].message

    def test_mod003_row_scan_over_chunked_collection(self):
        # RowScan reads the RowVector format only.  Its constructor refuses
        # the chunked format (tests/test_operator_declarations.py); a plan
        # rewired into that shape is caught by the analyzer running the
        # same rule.
        findings = errors_of(row_scan_rewired_onto_chunks())
        assert rules_of(findings) == {"MOD003"}
        assert "ChunkedRowVector" in findings[0].message

    def test_mod004_histogram_contract(self):
        scan = RowScan(table(KV), field="t")
        fn = RadixPartition("key", 4)
        local = LocalHistogram(scan, fn)
        exchange = MpiExchange(scan, local, MpiHistogram(local, 4), fn)
        # Rewire the global-histogram edge to a non-histogram stream.
        exchange.upstreams = (scan, local, scan)
        assert "MOD004" in rules_of(errors_of(exchange))

    def test_mod005_nested_plan_without_materialize(self):
        # Reduce can yield zero tuples on an empty partition — NestedMap
        # requires exactly one, so this plan fails at runtime.  Statically:
        nested = NestedMap(
            table(KV),
            lambda slot: Reduce(
                RowScan(ParameterLookup(slot), field="t"), field_sum("value")
            ),
        )
        findings = errors_of(nested)
        assert rules_of(findings) == {"MOD005"}

    def test_mod005_materialized_nested_plan_is_clean(self):
        nested = NestedMap(
            table(KV),
            lambda slot: MaterializeRowVector(
                RowScan(ParameterLookup(slot), field="t")
            ),
        )
        assert errors_of(nested) == []

    def test_mod006_driver_slot_read_inside_cluster(self):
        driver_param = source(KV)
        executor = MpiExecutor(
            table(KV),
            lambda slot: MaterializeRowVector(
                ParameterLookup(driver_param.slot)
            ),
            SimCluster(2),
        )
        findings = errors_of(MaterializeRowVector(executor))
        assert rules_of(findings) == {"MOD006"}
        assert "fresh context" in findings[0].message

    def test_mod006_cluster_slots_are_visible(self):
        executor = MpiExecutor(
            table(KV),
            lambda slot: MaterializeRowVector(
                RowScan(ParameterLookup(slot), field="t", shard_by_rank=True)
            ),
            SimCluster(2),
        )
        assert errors_of(MaterializeRowVector(executor)) == []


class TestVerify:
    def test_verify_raises_with_diagnostics(self):
        projection = Projection(source(KV), ["key"])
        projection.upstreams = (source(AB),)
        with pytest.raises(PlanVerificationError) as excinfo:
            verify(projection)
        assert excinfo.value.diagnostics
        assert excinfo.value.diagnostics[0].rule.id == "MOD002"
        assert "MOD002" in str(excinfo.value)

    def test_executor_hook_rejects_before_running(self):
        # A Reduce-rooted nested plan can fail mid-execution (no output on
        # an empty partition); with verification on, execute() rejects it
        # before a single tuple flows.
        driver_slot = ParameterSlot(TupleType.of(t=row_vector_type(KV)))
        nested = NestedMap(
            ParameterLookup(driver_slot),
            lambda slot: Reduce(
                RowScan(ParameterLookup(slot), field="t"), field_sum("value")
            ),
        )
        params = {driver_slot: (make_kv_table(8),)}
        with pytest.raises(PlanVerificationError):
            execute(nested, params=params, options=RunOptions(verify_plans=True))
        # Explicitly disabling verification restores the old behavior: the
        # plan runs (this table is non-empty, so it even succeeds).
        result = execute(nested, params=params, options=RunOptions(verify_plans=False))
        assert len(result.rows) == 1

    def test_suppressions(self):
        scan = row_scan_rewired_onto_chunks()
        assert rules_of(analyze(scan, suppress={"MOD003"})) == set()
        scan.suppress("MOD003")
        assert rules_of(analyze(scan)) == set()

    def test_unknown_suppression_rejected(self):
        with pytest.raises(ValueError, match="unknown rules"):
            analyze(source(KV), suppress={"MOD999"})

    def test_rule_registry_is_stable(self):
        assert set(RULES) >= {
            "MOD001", "MOD002", "MOD003", "MOD004", "MOD005", "MOD006",
            "MOD010", "MOD011", "MOD012", "MOD013",
            "MOD020", "MOD021", "MOD022", "MOD023",
        }
        assert all(r.id == key for key, r in RULES.items())
        assert RULES["MOD001"].severity is Severity.ERROR
        assert RULES["MOD020"].severity is Severity.INFO


class _TruePredicate:
    def __call__(self, row):  # pragma: no cover - never executed
        return True
