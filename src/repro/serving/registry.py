"""Prepared plans: the session → deploy → run lifecycle.

A serving deployment does not re-plan every request.  Queries are
*deployed* once — optimized, lowered, statically verified, and frozen
together with a :class:`SchemaContract` describing the table shapes they
were verified against — and then *run* many times against fresh catalog
contents.  ``deploy`` is the expensive, checked step; ``run`` is the hot
path and does only the contract check before data flows.

A :class:`PreparedPlan` keeps the last
:class:`~repro.relational.optimizer.planner.ModularisQuery` it lowered,
keyed on exactly what lowering reads besides the query: the cluster, the
memory-pressure flag of the run's fault policy (which degrades a
broadcast join to an exchange at planning time) and the ``Table`` object
of every table in the schema contract (whose statistics size the local
fan-out and whose dictionaries make the string codes).  Tables are
immutable once constructed, so the same objects mean the same contents;
replacing a table in the catalog is a miss.  Sharing one lowered plan
between runs, concurrent ones included, is safe because plan nodes hold
no run state: every execution's evidence lives in its own
:class:`~repro.observability.record.ExecutionRecord`.  ``deploy`` seeds
the memo with the lowering it verified, so structural errors and lint
findings surface at deploy time, not at 3 a.m., and the plan that was
verified is the plan that runs.
"""

from __future__ import annotations

import itertools
import operator
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.options import RunOptions
from repro.errors import AdmissionError, SchemaContractError
from repro.relational.logical import LogicalPlan, ScanNode
from repro.relational.optimizer.planner import ModularisQuery, lower_to_modularis
from repro.storage.catalog import Catalog
from repro.types.tuples import TupleType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.cluster import SimCluster
    from repro.serving.lifecycle import CircuitBreaker

__all__ = [
    "SchemaContract",
    "PreparedPlan",
    "PlanRegistry",
]


def _scan_nodes(plan: LogicalPlan):
    yield from (n for n in _walk(plan) if isinstance(n, ScanNode))


def _walk(plan: LogicalPlan):
    yield plan
    for child in plan.children:
        yield from _walk(child)


@dataclass(frozen=True)
class SchemaContract:
    """The table shapes a deployed plan is allowed to run against.

    One entry per base table the plan scans: the column→type schema of
    the columns it reads, captured from the deploy-time catalog.  Extra
    columns added to a table later are fine (the plan prunes to what it
    needs); missing columns or changed types are a contract violation.
    """

    #: ``table name -> pruned TupleType`` of the referenced columns.
    tables: tuple[tuple[str, TupleType], ...]

    @classmethod
    def capture(cls, plan: LogicalPlan, catalog: Catalog) -> "SchemaContract":
        """Freeze the referenced column types from the deploy catalog."""
        entries: dict[str, TupleType] = {}
        for scan in _scan_nodes(plan):
            schema = catalog.get(scan.table).schema
            columns = scan.columns or schema.field_names
            pruned = TupleType.of(**{c: schema[c] for c in columns})
            previous = entries.get(scan.table)
            if previous is not None:
                merged = {f.name: f.item_type for f in previous}
                merged.update({f.name: f.item_type for f in pruned})
                pruned = TupleType.of(**merged)
            entries[scan.table] = pruned
        return cls(tables=tuple(sorted(entries.items())))

    def validate(self, catalog: Catalog) -> None:
        """Refuse to run against tables violating the deployed shapes."""
        for table, required in self.tables:
            if table not in catalog:
                raise SchemaContractError(
                    f"deployed plan needs table {table!r}, which the catalog "
                    f"does not have"
                )
            schema = catalog.get(table).schema
            for field_ in required:
                if field_.name not in schema:
                    raise SchemaContractError(
                        f"table {table!r} lost column {field_.name!r} required "
                        f"by the deployed plan's schema contract"
                    )
                if schema[field_.name] != field_.item_type:
                    raise SchemaContractError(
                        f"table {table!r} column {field_.name!r} changed type: "
                        f"contract has {field_.item_type!r}, catalog has "
                        f"{schema[field_.name]!r}"
                    )


@dataclass(frozen=True)
class PreparedPlan:
    """An immutable deployed query: verified once, runnable many times."""

    #: Registry handle, ``<name>@v<version>``.
    handle: str
    name: str
    version: int
    plan: LogicalPlan
    contract: SchemaContract
    join_strategy: str = "exchange"
    #: Execution defaults for runs of this plan; per-run options override.
    defaults: RunOptions = field(default_factory=RunOptions)
    #: The last lowering, as ``(key, lowered)`` (see :meth:`instantiate`).
    _lowered: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def instantiate(
        self,
        catalog: Catalog,
        cluster: "SimCluster",
        options: RunOptions | None = None,
    ) -> ModularisQuery:
        """The physical plan for one run (see the module docstring).

        Validates the schema contract first, so a drifted catalog is
        rejected before any lowering or data movement.  Then returns the
        stored lowering if the cluster, the fault policy's
        ``memory_pressure`` flag and every contract table are the same
        objects it was lowered for; otherwise lowers and stores that.
        """
        self.contract.validate(catalog)
        options = options if options is not None else self.defaults
        key = self._key(catalog, cluster, options)
        if self._lowered is not None:
            stored, lowered = self._lowered
            if all(map(operator.is_, stored, key)):
                return lowered
        lowered = lower_to_modularis(
            self.plan,
            catalog,
            cluster,
            join_strategy=self.join_strategy,
            options=options,
        )
        self._remember(key, lowered)
        return lowered

    def _key(self, catalog: Catalog, cluster: "SimCluster", options: RunOptions) -> tuple:
        """Every input of a lowering of this plan, compared by identity."""
        pressure = bool(getattr(options.faults, "memory_pressure", False))
        return (cluster, pressure, *(catalog.get(name) for name, _ in self.contract.tables))

    def _remember(self, key: tuple, lowered: ModularisQuery) -> None:
        object.__setattr__(self, "_lowered", (key, lowered))


class PlanRegistry:
    """Thread-safe store of deployed plans, versioned by name.

    Re-deploying a name creates a new version (a new handle); existing
    handles stay valid and keep resolving to the exact plan they named —
    in-flight queries never observe a redeploy.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._plans: dict[str, PreparedPlan] = {}
        self._versions = itertools.count(1)
        self._latest: dict[str, str] = {}
        self._breakers: dict[str, "CircuitBreaker"] = {}

    def deploy(
        self,
        name: str,
        query,
        catalog: Catalog,
        cluster: "SimCluster",
        join_strategy: str = "exchange",
        defaults: RunOptions | None = None,
    ) -> PreparedPlan:
        """Verify and freeze a query; returns the immutable prepared plan.

        ``query`` is a DSL :class:`~repro.relational.builder.Query` or a
        raw :class:`LogicalPlan`.  Deploy-time checks: the plan lowers
        against the deploy catalog (structural/pattern errors surface
        here) and the lowered plan passes the static analyzer — the same
        lint gate ``repro lint`` applies, run once here instead of on
        every request.  The lowering sizes its local partitioning level
        from the live catalog, so :meth:`PreparedPlan.instantiate` may
        later emit the other shape (collapsed or partitioned); both are
        verified here.  The default-shape lowering seeds the prepared
        plan's memo, keyed on ``cluster``, the ``memory_pressure`` flag of
        ``defaults`` and the deploy catalog's contract tables.
        """
        plan = getattr(query, "plan", query)
        if not isinstance(plan, LogicalPlan):
            raise AdmissionError(
                f"deploy() needs a Query or LogicalPlan, got {type(query).__name__}"
            )
        defaults = defaults if defaults is not None else RunOptions()
        contract = SchemaContract.capture(plan, catalog)
        from repro.analysis import verify

        def lower(local_fanout: int | None) -> ModularisQuery:
            return lower_to_modularis(
                plan, catalog, cluster, local_fanout=local_fanout,
                join_strategy=join_strategy, options=defaults,
            )

        lowered = lower(None)
        verify(lowered.root, name=f"deploy({name})")
        other = lower(2 if lowered.local_fanout == 1 else 1)
        verify(other.root, name=f"deploy({name}, local_fanout={other.local_fanout})")
        with self._lock:
            version = next(self._versions)
            handle = f"{name}@v{version}"
            prepared = PreparedPlan(
                handle=handle,
                name=name,
                version=version,
                plan=plan,
                contract=contract,
                join_strategy=join_strategy,
                defaults=defaults,
            )
            prepared._remember(prepared._key(catalog, cluster, defaults), lowered)
            self._plans[handle] = prepared
            self._latest[name] = handle
        return prepared

    def get(self, handle: str) -> PreparedPlan:
        """Resolve a handle (``name@vN``) or a bare name (latest version)."""
        with self._lock:
            resolved = self._plans.get(handle)
            if resolved is None and handle in self._latest:
                resolved = self._plans[self._latest[handle]]
        if resolved is None:
            known = sorted(self._plans)
            raise AdmissionError(f"unknown plan handle {handle!r}; have {known}")
        return resolved

    def breaker_for(
        self,
        handle: str,
        config=None,
        on_transition=None,
    ) -> "CircuitBreaker":
        """The circuit breaker guarding one deployed handle.

        Breakers are keyed by the resolved ``name@vN`` handle, and the
        registry owns them so every submission path shares one breaker
        per prepared plan.  Redeploying a name creates a new handle —
        and hence a fresh, closed breaker — which is exactly the recovery
        story for a quarantined (poisoned) plan: fix it, redeploy, and
        the old version stays quarantined while the new one serves.

        ``config``/``on_transition`` only apply on first creation; later
        calls return the existing breaker unchanged.
        """
        from repro.serving.lifecycle import CircuitBreaker

        resolved = self.get(handle).handle
        with self._lock:
            breaker = self._breakers.get(resolved)
            if breaker is None:
                breaker = CircuitBreaker(
                    resolved, config=config, on_transition=on_transition
                )
                self._breakers[resolved] = breaker
        return breaker

    def handles(self) -> list[str]:
        with self._lock:
            return sorted(self._plans)
