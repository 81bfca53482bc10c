"""Integration tests for join cascades (Figure 4 naive vs optimized)."""

import pytest

from repro.core.plans.join_sequence import build_join_sequence
from repro.errors import TypeCheckError
from repro.mpi.cluster import SimCluster
from repro.types import INT64, TupleType
from repro.workloads.join_data import make_cascade_relations


def run_cascade(variant, n_relations=3, n_tuples=256, machines=2, multiplier=1):
    relations, expected = make_cascade_relations(
        n_relations, n_tuples, match_multiplier=multiplier
    )
    plan = build_join_sequence(
        SimCluster(machines), [r.element_type for r in relations], variant=variant
    )
    result = plan.run(relations)
    return plan.matches(result), expected, result


class TestCorrectness:
    @pytest.mark.parametrize("variant", ["naive", "optimized"])
    @pytest.mark.parametrize("n_relations", [3, 4, 5])
    def test_cascade_output(self, variant, n_relations):
        matches, expected, _ = run_cascade(variant, n_relations=n_relations)
        assert len(matches) == expected
        key = matches.column("key")
        for i in range(n_relations):
            assert (matches.column(f"p{i}") == key + 1).all()

    def test_variants_agree(self):
        naive, _, _ = run_cascade("naive", multiplier=4)
        optimized, _, _ = run_cascade("optimized", multiplier=4)
        naive_rows = sorted(
            zip(*(naive.column(c).tolist() for c in sorted(naive.element_type.field_names)))
        )
        opt_rows = sorted(
            zip(*(optimized.column(c).tolist() for c in sorted(optimized.element_type.field_names)))
        )
        assert naive_rows == opt_rows

    def test_growing_intermediate_output(self):
        matches, expected, _ = run_cascade("optimized", multiplier=8)
        assert len(matches) == expected == 256 * 8


class TestValidation:
    def test_needs_three_relations(self):
        kv = TupleType.of(key=INT64, p0=INT64)
        kv1 = TupleType.of(key=INT64, p1=INT64)
        with pytest.raises(TypeCheckError, match="at least three"):
            build_join_sequence(SimCluster(2), [kv, kv1])

    def test_unknown_variant(self):
        types = [TupleType.of(key=INT64, **{f"p{i}": INT64}) for i in range(3)]
        with pytest.raises(TypeCheckError, match="unknown variant"):
            build_join_sequence(SimCluster(2), types, variant="clever")

    def test_duplicate_payload_names(self):
        dup = TupleType.of(key=INT64, p0=INT64)
        types = [dup, TupleType.of(key=INT64, p1=INT64), dup]
        with pytest.raises(TypeCheckError, match="two relations"):
            build_join_sequence(SimCluster(2), types)

    def test_wrong_relation_count_at_run(self):
        relations, _ = make_cascade_relations(3, 64)
        plan = build_join_sequence(
            SimCluster(2), [r.element_type for r in relations]
        )
        with pytest.raises(TypeCheckError, match="needs 3 relations"):
            plan.run(relations[:2])

    def test_zero_network_fanout_refused(self):
        types = [TupleType.of(key=INT64, **{f"p{i}": INT64}) for i in range(3)]
        with pytest.raises(TypeCheckError, match="power of two"):
            build_join_sequence(SimCluster(4), types, network_fanout=0)


class TestPaperShape:
    def test_optimized_beats_naive(self):
        _, _, naive = run_cascade("naive", n_tuples=1 << 12, machines=4)
        _, _, optimized = run_cascade("optimized", n_tuples=1 << 12, machines=4)
        assert (
            optimized.cluster_results[0].makespan
            < naive.cluster_results[0].makespan
        )

    def test_optimized_network_time_flat_under_output_growth(self):
        nets = []
        for multiplier in (1, 8):
            _, _, result = run_cascade(
                "optimized", n_tuples=1 << 12, machines=4, multiplier=multiplier
            )
            nets.append(
                result.cluster_results[0].phase_breakdown()["network_partition"]
            )
        assert nets[1] <= nets[0] * 1.05

    def test_naive_network_time_grows_with_output(self):
        nets = []
        for multiplier in (1, 16):
            # Large enough that the extra shuffled volume beats the fixed
            # window-registration costs of the three exchange stages.
            _, _, result = run_cascade(
                "naive", n_tuples=1 << 14, machines=4, multiplier=multiplier
            )
            nets.append(
                result.cluster_results[0].phase_breakdown()["network_partition"]
            )
        assert nets[1] > nets[0] * 1.1
