"""Tests for the monolithic baselines (join and GROUP BY)."""

import hashlib

import numpy as np
import pytest

from repro.baselines.monolithic_groupby import run_monolithic_groupby
from repro.baselines.monolithic_join import run_monolithic_join
from repro.core.plans.join import build_distributed_join
from repro.errors import ExecutionError, TypeCheckError
from repro.mpi.cluster import SimCluster
from repro.types import INT64, RowVector, TupleType
from repro.workloads.groupby_data import make_groupby_table
from repro.workloads.join_data import make_join_relations

L = TupleType.of(key=INT64, lpay=INT64)
R = TupleType.of(key=INT64, rpay=INT64)
KV = TupleType.of(key=INT64, value=INT64)

#: ⟨machines, compression⟩ cells; compressed cells keep the bare rank-count id.
CELLS = [
    pytest.param(m, c, id=str(m) if c else f"{m}-uncompressed")
    for c in (True, False)
    for m in (1, 2, 4, 8)
]

#: The simulated output of every cell on the 2^10-tuple workloads below:
#: ⟨makespan, phase_breakdown() digest, result-column digest⟩.  The
#: monolith column of Figs. 6-7 rests on these; a change that moves them
#: is a change to the baseline's algorithm or charges, not a refactor.
JOIN_PINS = {
    (1, True): (0.0005691333942240809, "8ebbc9a7e9e641a8", "b5f5b17288ee9aa5"),
    (2, True): (0.0005560993699422816, "ffe1991153f578ec", "828de689dced2dbc"),
    (4, True): (0.0005889008618722549, "74052c51752ea70e", "642f4eb9f3134779"),
    (8, True): (0.0006317723580558203, "7f4684ecfb4521fc", "a70edbbf48e202eb"),
    (1, False): (0.0005700952397446308, "bd83617466a6e3a2", "b5f5b17288ee9aa5"),
    (2, False): (0.0005573126929221718, "82fc983868048db7", "828de689dced2dbc"),
    (4, False): (0.0005896940971925045, "25483aac8e6e0a1f", "642f4eb9f3134779"),
    (8, False): (0.0006322199981867425, "c64670a2a37a491d", "a70edbbf48e202eb"),
}
GROUPBY_PINS = {
    (1, True): (0.0002835464257136867, "c3545dcbf05fc907", "fb94f7fdb0a91985"),
    (2, True): (0.0002805016862255178, "cd53fcdd5800d1f4", "7da244d337dbfe25"),
    (4, True): (0.0003046824470359376, "e7802f64b495735f", "76cb519281934693"),
    (8, True): (0.00033299820116164267, "0ec7c4486baa251c", "e8bae0aa85c4ec23"),
    (1, False): (0.00028370619641159716, "ab4b1f3aebd2260b", "fb94f7fdb0a91985"),
    (2, False): (0.00028094536470333996, "18ff7b42f7dbdef1", "7da244d337dbfe25"),
    (4, False): (0.00030500075575578975, "3f001822d60e8b82", "76cb519281934693"),
    (8, False): (0.00033317705930487897, "79a58939315bc120", "e8bae0aa85c4ec23"),
}


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def _simulated_output(result, rows: RowVector) -> tuple:
    return (
        result.seconds,
        _digest(result.phase_breakdown().items()),
        _digest(column.tobytes() for column in rows.columns),
    )


def _out_of_domain(element_type: TupleType) -> RowVector:
    """Keys 0-7 under ``key_bits=4`` with payloads far outside ``[0, 16)``."""
    keys = np.arange(8, dtype=np.int64)
    return RowVector(element_type, [keys, keys + 1000])


class TestMonolithicJoin:
    @pytest.mark.parametrize("machines, compression", CELLS)
    def test_correct_across_cluster_sizes(self, machines, compression):
        workload = make_join_relations(1 << 10, seed=1)
        result = run_monolithic_join(
            SimCluster(machines), workload.left, workload.right,
            key_bits=workload.key_bits, compression=compression,
        )
        assert len(result.matches) == workload.expected_matches
        key = result.matches.column("key")
        assert (result.matches.column("lpay") == key + 1).all()
        assert (result.matches.column("rpay") == key + 1).all()
        assert _simulated_output(result, result.matches) == JOIN_PINS[
            machines, compression
        ]

    def test_compression_domain_violation_is_refused(self):
        # The plan's error: packing out-of-domain payloads would corrupt
        # them on the wire.
        with pytest.raises(ExecutionError, match="compression domain violation"):
            run_monolithic_join(
                SimCluster(2), _out_of_domain(L), _out_of_domain(R), key_bits=4
            )

    @pytest.mark.parametrize("fanout", [0, 3])
    def test_network_fanout_must_be_a_power_of_two(self, fanout):
        workload = make_join_relations(1 << 6, seed=1)
        with pytest.raises(TypeCheckError, match="power of two"):
            run_monolithic_join(
                SimCluster(2), workload.left, workload.right,
                key_bits=workload.key_bits, network_fanout=fanout,
            )

    def test_agrees_with_modular_plan(self):
        workload = make_join_relations(1 << 11, seed=2)
        mono = run_monolithic_join(
            SimCluster(4), workload.left, workload.right, key_bits=workload.key_bits
        )
        plan = build_distributed_join(
            SimCluster(4),
            workload.left.element_type,
            workload.right.element_type,
            key_bits=workload.key_bits,
        )
        modular = plan.matches(plan.run(workload.left, workload.right))

        def normalize(vec):
            return sorted(
                zip(
                    vec.column("key").tolist(),
                    vec.column("lpay").tolist(),
                    vec.column("rpay").tolist(),
                )
            )

        assert normalize(mono.matches) == normalize(modular)

    def test_without_compression(self):
        workload = make_join_relations(1 << 9, seed=3)
        result = run_monolithic_join(
            SimCluster(2), workload.left, workload.right,
            key_bits=workload.key_bits, compression=False,
        )
        assert len(result.matches) == workload.expected_matches

    def test_phase_breakdown_covers_all_phases(self):
        workload = make_join_relations(1 << 10, seed=4)
        result = run_monolithic_join(
            SimCluster(2), workload.left, workload.right, key_bits=workload.key_bits
        )
        breakdown = result.phase_breakdown()
        for phase in (
            "local_histogram",
            "global_histogram",
            "network_partition",
            "local_partition",
            "build_probe",
            "materialize",
        ):
            assert breakdown.get(phase, 0.0) > 0, phase

    def test_modularis_slower_but_close(self):
        # The §5.1.2 claim at unit-test scale: within ~45 % and never faster.
        workload = make_join_relations(1 << 14, seed=5)
        mono = run_monolithic_join(
            SimCluster(4), workload.left, workload.right, key_bits=workload.key_bits
        )
        plan = build_distributed_join(
            SimCluster(4),
            workload.left.element_type,
            workload.right.element_type,
            key_bits=workload.key_bits,
        )
        modular = plan.run(workload.left, workload.right)
        ratio = modular.cluster_results[0].makespan / mono.seconds
        assert 1.0 <= ratio <= 1.45, ratio


class TestMonolithicGroupBy:
    @pytest.mark.parametrize("machines, compression", CELLS)
    def test_sums_per_key(self, machines, compression):
        workload = make_groupby_table(1 << 10, duplicates_per_key=4)
        result = run_monolithic_groupby(
            SimCluster(machines), workload.table, key_bits=workload.key_bits,
            compression=compression,
        )
        got = dict(
            zip(
                result.groups.column("key").tolist(),
                result.groups.column("value").tolist(),
            )
        )
        assert got == workload.expected_sums()
        assert _simulated_output(result, result.groups) == GROUPBY_PINS[
            machines, compression
        ]

    def test_compression_domain_violation_is_refused(self):
        with pytest.raises(ExecutionError, match="compression domain violation"):
            run_monolithic_groupby(SimCluster(2), _out_of_domain(KV), key_bits=4)

    @pytest.mark.parametrize("fanout", [0, 3])
    def test_network_fanout_must_be_a_power_of_two(self, fanout):
        workload = make_groupby_table(1 << 6, duplicates_per_key=4)
        with pytest.raises(TypeCheckError, match="power of two"):
            run_monolithic_groupby(
                SimCluster(2), workload.table, key_bits=workload.key_bits,
                network_fanout=fanout,
            )

    def test_without_compression(self):
        workload = make_groupby_table(1 << 9, duplicates_per_key=2)
        result = run_monolithic_groupby(
            SimCluster(2), workload.table, key_bits=workload.key_bits,
            compression=False,
        )
        got = dict(
            zip(
                result.groups.column("key").tolist(),
                result.groups.column("value").tolist(),
            )
        )
        assert got == workload.expected_sums()

    def test_keys_disjoint_across_ranks(self):
        workload = make_groupby_table(1 << 10, duplicates_per_key=2)
        cluster = SimCluster(4)
        cluster_result = cluster.run(
            lambda ctx: None
        )  # warm-up: API sanity for reuse
        result = run_monolithic_groupby(
            cluster, workload.table, key_bits=workload.key_bits
        )
        keys = result.groups.column("key")
        assert len(np.unique(keys)) == len(keys)
