"""The four workloads: what one round runs, its reference, and its oracle.

A *round* is one pass over a workload's fixed operation mix; every round of
a workload does the same work, so a percentile over rounds is never taken
over a mixture of differently-sized operations.  Every workload is a closed
loop: a caller issues its next operation when the previous one returned.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.bench.experiments.fig9 import frames_match
from repro.core.executor import execution_steps
from repro.core.plans import (
    build_broadcast_join,
    build_distributed_groupby,
    build_distributed_join,
)
from repro.mpi import SimCluster
from repro.relational.interpreter import run_logical_plan
from repro.serving import Server
from repro.serving.registry import PlanRegistry
from repro.tpch import ALL_QUERIES, load_catalog
from repro.types.atoms import INT64
from repro.types.collections import RowVector
from repro.types.tuples import TupleType
from repro.workloads import make_groupby_table, make_join_relations

WARMUP_ROUNDS = 3
FRAME_TOLERANCE = 1e-6
RESULT_TIMEOUT_S = 120.0


@dataclass
class Op:
    """One operation the engine ran (or failed to run)."""

    name: str
    wall: float = 0.0  # seconds, request issued -> result materialised
    sim: float = 0.0  # ExecutionReport.simulated_time
    ok: bool = False
    steps: int = 0  # driver morsel steps, when the caller counted them
    #: The ExecutionReport, kept only on a profiled pass: it holds the
    #: result rows, and a timed run must not grow by them every round.
    report: object | None = None
    error: str = ""


@dataclass
class Round:
    ops: list[Op] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)

    @property
    def wall(self) -> float:
        return sum(op.wall for op in self.ops)

    @property
    def sim(self) -> float:
        return sum(op.sim for op in self.ops)


def _drive(steps) -> tuple[object, int]:
    """Run an execution-steps generator dry; return (report, step count)."""
    count = 0
    while True:
        try:
            next(steps)
        except StopIteration as done:
            return done.value, count
        count += 1


class Workload:
    """Common shape; see the module docstring of ``run.py`` for the loop."""

    name: str
    n_ranks: int
    op_names: tuple[str, ...]
    #: Engine rounds (per client) and reference rounds in one block of the
    #: timed loop.  Direct workloads alternate 1:1; the served one runs its
    #: references between blocks, while the server is idle.
    block_rounds = 1
    block_refs = 1
    clients = 1
    #: name -> relational Query, for a workload that goes through the
    #: relational frontend; empty otherwise.
    queries: dict = {}

    def setup(self, seed: int, rec=None) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def engine_block(
        self, n_rounds: int, rec=None, options=None, check=None, count_steps=False
    ) -> tuple[list[Round], float]:
        """Run ``n_rounds`` rounds per client; return them and the block's
        engine wall seconds."""
        rounds = [
            self.direct_round(rec, options, check, count_steps)
            for _ in range(n_rounds)
        ]
        return rounds, sum(r.wall for r in rounds)

    def direct_round(self, rec=None, options=None, check=None, count_steps=False) -> Round:
        raise NotImplementedError

    def reference_round(self) -> float:
        """Single-threaded numpy pass over the same inputs; wall seconds."""
        raise NotImplementedError

    def warm_up(self) -> list[Round]:
        """Full-result checks against the oracle (timed rounds only compare
        row counts)."""
        rounds = []
        for _ in range(WARMUP_ROUNDS):
            block, _ = self.engine_block(1, check=self.full_check)
            rounds.extend(block)
        return rounds

    def full_check(self, name: str, result) -> bool:
        raise NotImplementedError

    def tiny(self) -> "Workload":
        """The same operations at the same rank count on near-empty inputs:
        what is left is per-query glue and substrate (``core.fixed_cost_ms``)."""
        raise NotImplementedError

    def kernel_inputs(self):
        """(build RowVector, probe RowVector, key) of one rank's share of the
        workload's largest join, for the standalone kernel probe."""
        raise NotImplementedError


# -- TPC-H ---------------------------------------------------------------------


class TpchDirect(Workload):
    """Q4/Q12/Q14/Q19 through ``instantiate`` -> ``run`` -> ``result_frame``."""

    op_names = tuple(f"q{n}" for n in ALL_QUERIES)

    def __init__(self, name: str, n_ranks: int, scale_factor: float = 0.05) -> None:
        self.name = name
        self.n_ranks = n_ranks
        self.scale_factor = scale_factor

    def setup(self, seed: int, rec=None) -> None:
        t0 = perf_counter()
        self.catalog = load_catalog(self.scale_factor, seed=seed)
        t1 = perf_counter()
        self.cluster = SimCluster(self.n_ranks)
        self.queries = {f"q{n}": build() for n, build in ALL_QUERIES.items()}
        self.plans = self._deploy()
        t2 = perf_counter()
        self.oracle = {
            name: run_logical_plan(q.plan, self.catalog)
            for name, q in self.queries.items()
        }
        t3 = perf_counter()
        if rec is not None:
            rec.add("tpch.load_catalog", t0, t1)
            rec.add("relational.deploy", t1, t2)
            rec.add("relational.reference", t2, t3)

    def _deploy(self) -> dict:
        registry = PlanRegistry()
        return {
            name: registry.deploy(name, query, self.catalog, self.cluster)
            for name, query in self.queries.items()
        }

    def teardown(self) -> None:
        del self.catalog, self.cluster, self.plans, self.oracle

    def direct_round(self, rec=None, options=None, check=None, count_steps=False) -> Round:
        return Round([
            self._direct_op(name, rec, options, check, count_steps)
            for name in self.op_names
        ])

    def _direct_op(self, name, rec, options, check, count_steps) -> Op:
        prepared = self.plans[name]
        steps = 0
        t0 = perf_counter()
        try:
            lowered = prepared.instantiate(self.catalog, self.cluster, options)
            t1 = perf_counter()
            if count_steps:
                report, steps = _drive(lowered.execution(self.catalog, options))
            else:
                report = lowered.run(self.catalog, options)
            t2 = perf_counter()
            frame = lowered.result_frame(report)
            t3 = perf_counter()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            return Op(name, error=f"{type(exc).__name__}: {exc}")
        if rec is not None:
            query = rec.new_query()
            root = rec.add(f"query.{name}", t0, t3, query=query)
            rec.add("relational.instantiate", t0, t1, root, query)
            rec.add("core.execute", t1, t2, root, query)
            rec.add("core.result_frame", t2, t3, root, query)
        ok = (check or self.count_check)(name, frame)
        return Op(name, t3 - t0, report.simulated_time, ok, steps, report if options else None)

    def count_check(self, name: str, frame) -> bool:
        return frame.n_rows == self.oracle[name].n_rows

    def full_check(self, name: str, frame) -> bool:
        return frames_match(self.oracle[name], frame, FRAME_TOLERANCE)

    def reference_round(self) -> float:
        t0 = perf_counter()
        for query in self.queries.values():
            run_logical_plan(query.plan, self.catalog)
        return perf_counter() - t0

    def tiny(self) -> Workload:
        return TpchDirect(self.name, self.n_ranks, scale_factor=0.001)

    def kernel_inputs(self):
        orders = self.catalog.get("orders").data
        lineitem = self.catalog.get("lineitem").data
        build = _project(orders, {"key": "o_orderkey", "lpay": "o_custkey"})
        probe = _project(lineitem, {"key": "l_orderkey", "rpay": "l_partkey"})
        return _rank_share(build, self.n_ranks), _rank_share(probe, self.n_ranks), "key"


class TpchServed(TpchDirect):
    """The same four queries through ``Server.submit`` -> ``future.result()``
    from two closed-loop clients; the only workload with serving on the
    blocking path."""

    block_rounds = 2
    block_refs = 3
    clients = 2

    def _deploy(self) -> dict:
        self.server = Server(self.cluster, self.catalog, n_workers=2)
        self.tenants = [f"client{i}" for i in range(self.clients)]
        for tenant in self.tenants:
            self.server.register_tenant(tenant)
        return {
            name: self.server.deploy(name, query)
            for name, query in self.queries.items()
        }

    def teardown(self) -> None:
        self.server.close()
        del self.server
        super().teardown()

    def engine_block(self, n_rounds, rec=None, options=None, check=None, count_steps=False):
        return self.served_block(n_rounds, self.clients, rec, options, check)

    def served_block(self, n_rounds, n_clients, rec=None, options=None, check=None):
        per_client: list[list[Round]] = [[] for _ in range(n_clients)]

        def client(index: int) -> None:
            # Clients start half a rotation apart, so they do not run the
            # same query at the same moment.
            shift = index * len(self.op_names) // n_clients
            order = self.op_names[shift:] + self.op_names[:shift]
            for _ in range(n_rounds):
                per_client[index].append(Round([
                    self._served_op(name, self.tenants[index], rec, options, check)
                    for name in order
                ]))

        threads = [
            threading.Thread(target=client, args=(i,), name=f"bench-client-{i}")
            for i in range(n_clients)
        ]
        t0 = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = perf_counter() - t0
        return [r for rounds in per_client for r in rounds], wall

    def _served_op(self, name, tenant, rec, options, check) -> Op:
        t0 = perf_counter()
        try:
            future = self.server.submit(
                self.plans[name].handle, tenant=tenant, options=options
            )
            t1 = perf_counter()
            outcome = future.result(RESULT_TIMEOUT_S)
            t2 = perf_counter()
        except Exception as exc:  # noqa: BLE001 - refused or failed: counted
            return Op(name, error=f"{type(exc).__name__}: {exc}")
        if rec is not None:
            journal = outcome.journal
            started = min(t2, max(t1, t0 + journal.queue_wall_seconds))
            settled = min(t2, max(started, t0 + journal.wall_seconds))
            query = rec.new_query()
            root = rec.add(f"query.{name}", t0, t2, query=query)
            rec.add("serving.submit", t0, t1, root, query)
            rec.add("serving.queue_wait", t1, started, root, query)
            rec.add("serving.run", started, settled, root, query)
        ok = (check or self.count_check)(name, outcome.frame)
        report = outcome.report
        return Op(name, t2 - t0, report.simulated_time, ok, outcome.steps, report if options else None)


# -- bulk data plane -----------------------------------------------------------


def reference_join(left_keys, left_pay, right_keys, right_pay):
    """Sort/searchsorted equi-join for a unique-key build side: the numpy
    floor the data-plane plans are compared with, and their oracle."""
    order = np.argsort(left_keys, kind="stable")
    sorted_keys = left_keys[order]
    pos = np.searchsorted(sorted_keys, right_keys)
    pos[pos == len(sorted_keys)] = 0
    hit = sorted_keys[pos] == right_keys
    return right_keys[hit], left_pay[order[pos[hit]]], right_pay[hit]


def reference_groupby(keys, values):
    sums = np.bincount(keys, weights=values)
    present = np.flatnonzero(np.bincount(keys))
    return present, sums[present].astype(np.int64)


def _sorted_columns(columns) -> list[np.ndarray]:
    order = np.lexsort(tuple(reversed(columns)))
    return [np.asarray(c)[order] for c in columns]


class BulkDataplane(Workload):
    """Fig. 3 exchange join, broadcast join and Fig. 5 group-by, with no
    relational frontend and no serving."""

    op_names = ("join", "bcast_join", "groupby")

    def __init__(self, name: str, n_ranks: int, log2_tuples: int = 18) -> None:
        self.name = name
        self.n_ranks = n_ranks
        self.n_tuples = 1 << log2_tuples
        self.n_small = max(1, self.n_tuples >> 6)  # 2^12 at 2^18

    def setup(self, seed: int, rec=None) -> None:
        t0 = perf_counter()
        self.cluster = SimCluster(self.n_ranks)
        self.join = make_join_relations(self.n_tuples, seed=seed)
        self.group = make_groupby_table(self.n_tuples, duplicates_per_key=16, seed=seed)
        self.small = self.join.left.slice(0, self.n_small)
        left_type, right_type = self.join.left.element_type, self.join.right.element_type
        t1 = perf_counter()
        self.plans = {
            "join": build_distributed_join(
                self.cluster, left_type, right_type, key_bits=self.join.key_bits
            ),
            "bcast_join": build_broadcast_join(self.cluster, left_type, right_type),
            "groupby": build_distributed_groupby(
                self.cluster, self.group.table.element_type, key_bits=self.group.key_bits
            ),
        }
        t2 = perf_counter()
        self.inputs = {
            "join": (self.join.left, self.join.right),
            "bcast_join": (self.small, self.join.right),
            "groupby": (self.group.table,),
        }
        self.oracle = self._reference_results()
        t3 = perf_counter()
        if rec is not None:
            rec.add("workloads.generate", t0, t1)
            rec.add("core.build_plans", t1, t2)
            rec.add("bench.oracle", t2, t3)

    def teardown(self) -> None:
        del self.cluster, self.join, self.group, self.small, self.plans
        del self.inputs, self.oracle

    def _reference_results(self) -> dict:
        right = self.join.right
        results = {}
        for name, left in (("join", self.join.left), ("bcast_join", self.small)):
            results[name] = reference_join(
                left.column("key"), left.column("lpay"),
                right.column("key"), right.column("rpay"),
            )
        table = self.group.table
        results["groupby"] = reference_groupby(table.column("key"), table.column("value"))
        return results

    def direct_round(self, rec=None, options=None, check=None, count_steps=False) -> Round:
        return Round([
            self._op(name, rec, options, check, count_steps) for name in self.op_names
        ])

    def _op(self, name, rec, options, check, count_steps) -> Op:
        plan = self.plans[name]
        steps = 0
        t0 = perf_counter()
        try:
            if count_steps:
                report, steps = _drive(execution_steps(
                    plan.root, {plan.slot: self.inputs[name]}, options
                ))
            else:
                report = plan.run(*self.inputs[name], options)
            t1 = perf_counter()
            (row,) = report.rows
            result = row[0]
            t2 = perf_counter()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            return Op(name, error=f"{type(exc).__name__}: {exc}")
        if rec is not None:
            query = rec.new_query()
            root = rec.add(f"query.{name}", t0, t2, query=query)
            rec.add("core.execute", t0, t1, root, query)
            rec.add("core.result_frame", t1, t2, root, query)
        ok = (check or self.count_check)(name, result)
        return Op(name, t2 - t0, report.simulated_time, ok, steps, report if options else None)

    def count_check(self, name: str, result) -> bool:
        expected = len(self.oracle[name][0])
        if name == "join" and expected != self.join.expected_matches:
            return False
        return len(result) == expected

    def full_check(self, name: str, result) -> bool:
        if not self.count_check(name, result):
            return False
        got = _sorted_columns(result.columns)
        want = _sorted_columns(self.oracle[name])
        return all(np.array_equal(g, w) for g, w in zip(got, want))

    def reference_round(self) -> float:
        t0 = perf_counter()
        self._reference_results()
        return perf_counter() - t0

    def tiny(self) -> Workload:
        return BulkDataplane(self.name, self.n_ranks, log2_tuples=8)

    def kernel_inputs(self):
        return (
            _rank_share(self.join.left, self.n_ranks),
            _rank_share(self.join.right, self.n_ranks),
            "key",
        )


def _project(data, renames: dict[str, str]):
    """A ⟨key, payload⟩ RowVector view of two columns of a table."""
    schema = TupleType.of(**{new: INT64 for new in renames})
    return RowVector(schema, [data.column(old) for old in renames.values()])


def _rank_share(vector, n_ranks: int):
    return vector.slice(0, max(1, len(vector) // n_ranks))


WORKLOADS = {
    "tpch_direct_r1": lambda: TpchDirect("tpch_direct_r1", 1),
    "tpch_direct_r8": lambda: TpchDirect("tpch_direct_r8", 8),
    "tpch_served_r4": lambda: TpchServed("tpch_served_r4", 4),
    "bulk_dataplane_r4": lambda: BulkDataplane("bulk_dataplane_r4", 4),
}
