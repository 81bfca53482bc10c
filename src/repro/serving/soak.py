"""Concurrency soak: many mixed TPC-H queries on one shared cluster.

The soak is the serving layer's end-to-end correctness and fairness
probe, runnable as ``repro serve`` and asserted by the tier-1 tests:

* **Bit-identity** — N interleaved runs of TPC-H Q4/Q12/Q14/Q19 on one
  shared :class:`~repro.mpi.cluster.SimCluster` must produce frames
  bit-identical (``tolerance=0.0``) to serial runs of the same prepared
  plans, including under every chaos profile.  Every query owns a
  private context/clock and every ``SimCluster.run`` call builds a fresh
  ``CommWorld``, so scheduling must not be observable.
* **Accounting** — the query journals are the one record the tenant
  ledger and the ``serving_*`` metrics are folded from, so those cannot
  disagree; what the soak checks is the journals against *independent*
  observers: every submission settles exactly once, the fate each client
  saw is its journal's terminal state, the scheduler's own step counter
  equals the journals' steps, and settled simulated seconds match the
  serial baseline (for profiles without server-level retries).
* **Overlap** — the scheduler's global step sequence must show queries
  actually interleaving (overlapping ``[first_seq, last_seq]`` spans),
  i.e. the server runs concurrent queries, not a disguised serial loop.
* **Fairness** — no registered tenant's share of morsel steps may fall
  below a configured fraction of its weight-proportional entitlement.
* **Replayability** — all lifecycle decisions are count- and
  simulated-clock-driven, so two runs of the same config produce the
  same :attr:`SoakReport.lifecycle` id sets (the hypothesis sweep in
  ``tests/test_serving_replay.py``).

A soak runs under one chaos profile
(:func:`repro.faults.policy.fault_profile`).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.options import RunOptions
from repro.errors import (
    AdmissionError,
    CircuitOpenError,
    DeadlineExceeded,
    OverloadShedError,
    QueryCancelled,
)
from repro.faults.policy import FaultPolicy, RetryPolicy, fault_profile
from repro.mpi.cluster import SimCluster
from repro.observability.slo import SLOConfig, SLOReport
from repro.observability.tracing import QueryJournal
from repro.relational.interpreter import frames_match
from repro.serving.lifecycle import BreakerConfig
from repro.serving.server import QueryOutcome, Server
from repro.tpch import ALL_QUERIES, load_catalog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executor import ExecutionReport
    from repro.mpi.trace import TraceEvent
    from repro.serving.scheduler import SchedulerEvent

__all__ = [
    "SoakConfig",
    "SoakQueryResult",
    "SoakReport",
    "BreakerScenarioReport",
    "run_soak",
    "chaos_matrix",
    "breaker_scenario",
    "export_soak_artifacts",
]

#: The mixed workload: the four TPC-H queries the reproduction serves.
SOAK_QUERY_IDS = (4, 12, 14, 19)

#: Tenant name → fair-share weight for the default soak population.
DEFAULT_TENANTS = (("analytics", 2.0), ("reporting", 1.0), ("adhoc", 1.0))

#: Outcome buckets tracked per submission (submission-index sets): the
#: journal's terminal states plus ``retried``, which overlaps them.
LIFECYCLE_KINDS = (*QueryJournal.TERMINAL_STATES, "retried")


@dataclass(frozen=True)
class SoakConfig:
    scale_factor: float = 0.01
    machines: int = 2
    #: Total concurrent submissions (cycled over the query mix).
    n_queries: int = 16
    n_workers: int = 4
    #: Chaos profile name (:data:`repro.faults.policy.CHAOS_PROFILES`).
    chaos: str = "none"
    seed: int = 2021
    tenants: tuple[tuple[str, float], ...] = DEFAULT_TENANTS
    #: A tenant is "starved" if its steps-per-weight share drops below
    #: this fraction of the even split (soft bound; scheduling is lumpy
    #: at small N).
    fairness_floor: float = 0.25
    #: Simulated-seconds deadline applied to every submission (``None``
    #: disables; misses settle as ``deadline_missed``).
    deadline: float | None = None
    #: Cancel every k-th submission (0 disables).  Cancels are issued
    #: before the scheduler starts, so the cancelled id set is exact.
    cancel_every: int = 0
    #: Server-level retry attempts beyond the first (0 disables server
    #: retries; the ``flaky`` profile needs >= 1 to heal).
    retries: int = 0
    #: Hard admission cap; ``None`` sizes it to ``n_queries``.
    max_pending: int | None = None
    #: Load-shedding floor as a fraction of ``max_pending`` (1.0 = off).
    shed_threshold: float = 1.0
    #: Run the serial baseline and compare frames.  The replay sweep
    #: turns this off: it only asserts lifecycle determinism.
    verify_frames: bool = True
    #: Arm full tracing: substrate event traces (``SimCluster(trace=)``)
    #: plus per-query operator profiles, so the soak report carries the
    #: inputs of :func:`export_soak_artifacts` (merged Chrome trace and
    #: journal JSON).  Journals themselves are always kept.
    trace: bool = False
    #: Per-query latency SLO target in simulated seconds (``None``
    #: disables SLO burn accounting; the latency histograms record
    #: either way).
    slo_target: float | None = None
    #: SLO objective (fraction of queries that must meet the target).
    slo_objective: float = 0.99

    def __post_init__(self) -> None:
        # Refuses an unknown profile, or one this cluster cannot heal.
        fault_profile(self.chaos, self.seed, self.machines)


@dataclass(frozen=True)
class SoakQueryResult:
    query_id: int
    handle: str
    tenant: str
    matched: bool
    steps: int
    first_seq: int
    last_seq: int
    simulated_seconds: float
    attempts: int = 1

    def overlaps(self, other: "SoakQueryResult") -> bool:
        return self.first_seq <= other.last_seq and other.first_seq <= self.last_seq


@dataclass(frozen=True)
class SoakReport:
    config: SoakConfig
    results: tuple[SoakQueryResult, ...]
    #: Wall-clock seconds for the serial baseline / the concurrent batch.
    serial_wall: float
    concurrent_wall: float
    #: Queries whose scheduler span overlapped at least one other query.
    overlapped: int
    #: tenant → (observed step fraction, entitled weight fraction).
    shares: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: tenant → (settled simulated seconds, serial sum) — must agree for
    #: profiles without server-level retries or lifecycle outcomes.
    ledgers: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: Outcome kind → sorted submission indices (0-based submission
    #: order), as the submitting *client* saw them (the exception
    #: ``submit()``/``result()`` raised).  Deterministic per config+seed
    #: — the replay contract.
    lifecycle: dict[str, tuple[int, ...]] = field(default_factory=dict)
    #: tenant → the scheduler's own ``serving_steps`` count.
    scheduler_steps: dict[str, float] = field(default_factory=dict)
    #: One journal per submission, in submission order.
    journals: tuple["QueryJournal", ...] = ()
    #: The scheduler's trace, one event per pick (with its trace ids).
    scheduler_events: tuple["SchedulerEvent", ...] = ()
    #: The server's lifecycle transitions.
    lifecycle_events: tuple["TraceEvent", ...] = ()
    #: trace id → completed query's execution report (only populated
    #: when the soak ran with ``trace=True``).
    reports_by_trace: dict[str, "ExecutionReport"] = field(default_factory=dict)
    #: SLO accounting (only when ``slo_target`` was set).
    slo: SLOReport | None = None

    @property
    def bit_identical(self) -> bool:
        return all(r.matched for r in self.results)

    @property
    def queries_per_second(self) -> float:
        if self.concurrent_wall <= 0:
            return float("inf")
        return len(self.results) / self.concurrent_wall

    @property
    def starved_tenants(self) -> list[str]:
        # Starvation is a *scheduling* verdict, so only tenants that ran
        # work to completion count: a tenant whose submissions were all
        # cancelled, deadline-missed, or shed got few steps by lifecycle
        # policy, not because the scheduler withheld its share.
        floor = self.config.fairness_floor
        completed = {result.tenant for result in self.results}
        return [
            tenant
            for tenant, (observed, entitled) in self.shares.items()
            if tenant in completed and observed < floor * entitled
        ]

    def reconciliation_errors(self) -> list[str]:
        """Journals against their independent observers; empty = sound.

        (1) The fate the client saw for each submission is its journal's
        terminal state; per tenant, (2) every submission settled —
        nothing is left in flight — and (3) the scheduler's own
        ``serving_steps`` count equals the steps the journals settled.
        """
        errors: list[str] = []
        seen = {
            index: kind
            for kind, indices in self.lifecycle.items()
            if kind != "retried"  # retried overlaps its terminal bucket
            for index in indices
        }
        for index, journal in enumerate(self.journals):
            if journal.terminal and journal.terminal != seen.get(index):
                errors.append(
                    f"submission {index}: client saw {seen.get(index)!r}, "
                    f"journal {journal.trace_id} settled {journal.terminal!r}"
                )
        tenants = {j.tenant for j in self.journals} | set(self.scheduler_steps)
        for tenant in sorted(tenants):
            mine = [j for j in self.journals if j.tenant == tenant]
            in_flight = sum(1 for j in mine if not j.settled)
            if in_flight:
                errors.append(
                    f"{tenant}: submitted {len(mine)} != settled "
                    f"{len(mine) - in_flight} ({in_flight} still in flight)"
                )
            steps = sum(j.steps for j in mine)
            observed = self.scheduler_steps.get(tenant, 0)
            if steps != observed:
                errors.append(
                    f"{tenant}: journal steps={steps} != scheduler "
                    f"serving_steps={observed}"
                )
        return errors

    def journal_errors(self) -> list[str]:
        """Journal-set soundness; empty = every submission has exactly
        one journal with a unique trace id, and every journal settled."""
        errors: list[str] = []
        trace_ids = [j.trace_id for j in self.journals]
        if len(set(trace_ids)) != len(trace_ids):
            errors.append("duplicate trace ids across journals")
        if len(self.journals) != self.config.n_queries:
            errors.append(
                f"{len(self.journals)} journals != {self.config.n_queries} "
                f"submissions"
            )
        errors.extend(
            f"journal {journal.trace_id} never settled"
            for journal in self.journals
            if not journal.settled
        )
        return errors

    def render(self) -> str:
        lines = [
            f"serving soak: {self.config.n_queries} queries "
            f"(chaos={self.config.chaos}), "
            f"{self.config.n_workers} workers",
            f"  bit-identical to serial: {self.bit_identical} "
            f"({len(self.results)} completed)",
            f"  wall: serial {self.serial_wall:.3f}s, "
            f"concurrent {self.concurrent_wall:.3f}s "
            f"({self.queries_per_second:.1f} q/s)",
            f"  overlapped queries: {self.overlapped}/{len(self.results)}",
        ]
        lifecycle = {
            kind: len(ids) for kind, ids in self.lifecycle.items() if ids
        }
        if lifecycle:
            lines.append(
                "  lifecycle: "
                + ", ".join(f"{k}={v}" for k, v in sorted(lifecycle.items()))
            )
        reconciliation = self.reconciliation_errors()
        lines.append(
            "  ledger reconciliation: "
            + ("exact" if not reconciliation else f"BROKEN {reconciliation}")
        )
        journal_issues = self.journal_errors()
        lines.append(
            f"  journals: {len(self.journals)} "
            + ("reconciled" if not journal_issues else f"BROKEN {journal_issues}")
        )
        for tenant in sorted(self.shares):
            observed, entitled = self.shares[tenant]
            settled, serial = self.ledgers[tenant]
            starved = " STARVED" if tenant in self.starved_tenants else ""
            lines.append(
                f"  tenant {tenant}: share {observed:.0%} "
                f"(entitled {entitled:.0%}){starved}; "
                f"simulated {settled:.6f}s vs serial {serial:.6f}s"
            )
        if self.slo is not None:
            lines.append("  " + self.slo.render().replace("\n", "\n  "))
        return "\n".join(lines)


def _assignments(config: SoakConfig) -> list[tuple[str, str]]:
    """The submission list: (query name, tenant), cycled over both mixes."""
    names = [f"q{qid}" for qid in SOAK_QUERY_IDS]
    tenants = [name for name, _ in config.tenants]
    return [
        (names[i % len(names)], tenants[i % len(tenants)])
        for i in range(config.n_queries)
    ]


def run_soak(config: SoakConfig = SoakConfig()) -> SoakReport:
    """Deploy the mix, run it serially, then concurrently, and compare.

    Submissions (and any ``cancel_every`` cancellations) happen *before*
    the scheduler pool starts, so every admission-time decision — shed,
    reject, breaker — depends only on the submission sequence, never on
    execution timing; that is what makes :attr:`SoakReport.lifecycle`
    exactly replayable.
    """
    profile = str(config.chaos)
    catalog = load_catalog(config.scale_factor, seed=config.seed)
    cluster = SimCluster(config.machines, seed=config.seed, trace=config.trace)
    faults = fault_profile(profile, config.seed, config.machines)
    options = RunOptions(metrics=True, faults=faults, profile=config.trace)
    # The serial reference must complete on its own: the flaky profile
    # has no substrate budget left, so its reference runs fault-free
    # (frames are fault-independent; only simulated time differs).  It
    # also skips profiling — artifacts record the concurrent run only.
    reference_options = RunOptions(
        metrics=True, faults=None if profile == "flaky" else faults
    )
    plan = _assignments(config)
    retry = (
        RetryPolicy(max_attempts=config.retries + 1) if config.retries else None
    )
    slo = (
        SLOConfig(
            target_seconds=config.slo_target, objective=config.slo_objective
        )
        if config.slo_target is not None
        else None
    )

    with Server(
        cluster,
        catalog,
        n_workers=config.n_workers,
        max_pending=(
            config.max_pending
            if config.max_pending is not None
            else max(config.n_queries, 1)
        ),
        retry=retry,
        shed_threshold=config.shed_threshold,
        start=False,
        slo=slo,
    ) as server:
        for tenant, weight in config.tenants:
            server.register_tenant(tenant, weight)
        handles = {
            f"q{qid}": server.deploy(f"q{qid}", ALL_QUERIES[qid]()).handle
            for qid in SOAK_QUERY_IDS
        }

        # Serial baseline: the same prepared plans, one at a time, off the
        # scheduler.  Gives the reference frames and the wall/simulated
        # time baselines the concurrent batch is judged against.
        serial_frames: dict[str, object] = {}
        serial_seconds: dict[str, float] = {}
        serial_wall = 0.0
        if config.verify_frames:
            serial_start = time.perf_counter()
            for name in handles:
                lowered = server.registry.get(handles[name]).instantiate(
                    catalog, cluster, reference_options
                )
                report = lowered.run(catalog, reference_options)
                serial_frames[name] = lowered.result_frame(report)
                serial_seconds[name] = report.simulated_time
            serial_wall_per = time.perf_counter() - serial_start
            # Scale the measured per-mix wall to the full submission count.
            serial_wall = serial_wall_per * (len(plan) / max(len(handles), 1))

        lifecycle: dict[str, list[int]] = {k: [] for k in LIFECYCLE_KINDS}
        concurrent_start = time.perf_counter()
        #: (submission index, query name, tenant, future or None).
        submissions = []
        for index, (name, tenant) in enumerate(plan):
            try:
                future = server.submit(
                    handles[name],
                    tenant=tenant,
                    options=options,
                    deadline=config.deadline,
                )
            except AdmissionError as exc:
                # OverloadShedError subclasses AdmissionError; an open
                # breaker cannot happen here (soak plans are healthy).
                kind = "shed" if isinstance(exc, OverloadShedError) else "rejected"
                lifecycle[kind].append(index)
                submissions.append((index, name, tenant, None))
                continue
            if config.cancel_every and (index + 1) % config.cancel_every == 0:
                future.cancel()
            submissions.append((index, name, tenant, future))
        server.start()

        outcomes: list[tuple[str, QueryOutcome]] = []
        for index, name, tenant, future in submissions:
            if future is None:
                continue
            try:
                outcome = future.result(timeout=600)
            except QueryCancelled:
                lifecycle["cancelled"].append(index)
                continue
            except DeadlineExceeded:
                lifecycle["deadline_missed"].append(index)
                continue
            except BaseException:  # noqa: BLE001 - classified, not hidden
                lifecycle["failed"].append(index)
                continue
            lifecycle["completed"].append(index)
            if outcome.attempts > 1:
                lifecycle["retried"].append(index)
            outcomes.append((name, outcome))
        concurrent_wall = time.perf_counter() - concurrent_start

        results = tuple(
            SoakQueryResult(
                query_id=outcome.query_id,
                handle=outcome.handle,
                tenant=outcome.tenant,
                matched=(
                    frames_match(
                        serial_frames[name], outcome.frame, tolerance=0.0
                    )
                    if config.verify_frames
                    else True
                ),
                steps=outcome.steps,
                first_seq=outcome.first_seq,
                last_seq=outcome.last_seq,
                simulated_seconds=outcome.report.simulated_time,
                attempts=outcome.attempts,
            )
            for name, outcome in outcomes
        )

        overlapped = sum(
            1
            for r in results
            if any(other is not r and r.overlaps(other) for other in results)
        )

        total_steps = sum(r.steps for r in results) or 1
        total_weight = sum(weight for _, weight in config.tenants) or 1.0
        shares = {
            tenant: (
                sum(r.steps for r in results if r.tenant == tenant) / total_steps,
                weight / total_weight,
            )
            for tenant, weight in config.tenants
        }
        settled = {a.name: a.simulated_seconds for a in server.tenants()}
        ledgers = {
            tenant: (
                settled[tenant],
                (
                    sum(
                        serial_seconds[name]
                        for name, assigned in plan
                        if assigned == tenant
                    )
                    if config.verify_frames
                    else settled[tenant]
                ),
            )
            for tenant, _ in config.tenants
        }
        # The worker that resolved the last future may still be posting
        # its pick to the scheduler's counters.
        server.drain()
        scheduler_steps = server.snapshot().by_label("serving_steps", "tenant")
        journals = tuple(server.journals)
        scheduler_events = tuple(server.scheduler.trace)
        lifecycle_events = tuple(server.lifecycle_events)
        reports_by_trace = (
            {outcome.journal.trace_id: outcome.report for _, outcome in outcomes}
            if config.trace
            else {}
        )
        slo_report = server.slo_report() if slo is not None else None

    return SoakReport(
        config=config,
        results=results,
        serial_wall=serial_wall,
        concurrent_wall=concurrent_wall,
        overlapped=overlapped,
        shares=shares,
        ledgers=ledgers,
        lifecycle={k: tuple(sorted(v)) for k, v in lifecycle.items()},
        scheduler_steps=scheduler_steps,
        journals=journals,
        scheduler_events=scheduler_events,
        lifecycle_events=lifecycle_events,
        reports_by_trace=reports_by_trace,
        slo=slo_report,
    )


def chaos_matrix(
    scale_factor: float = 0.01,
    machines: int = 2,
    n_queries: int = 8,
    seed: int = 2021,
    profiles: tuple[str, ...] = ("transient", "crash", "straggler", "flaky"),
    trace: bool = False,
) -> dict[str, SoakReport]:
    """One soak per chaos profile: the serving robustness gauntlet.

    ``repro serve --matrix`` and ``make serve-chaos`` run this; every
    profile's surviving queries must stay bit-identical to serial and
    every ledger must reconcile exactly.  The flaky profile runs with
    two server-level retries (that is the failure mode it exercises).
    Pass ``trace=True`` to arm full tracing on every profile, so the
    matrix can export one merged Chrome trace via
    :func:`export_soak_artifacts`.
    """
    reports: dict[str, SoakReport] = {}
    for profile in profiles:
        config = SoakConfig(
            scale_factor=scale_factor,
            machines=machines,
            n_queries=n_queries,
            chaos=profile,
            seed=seed,
            retries=2 if profile == "flaky" else 0,
            trace=trace,
        )
        reports[profile] = run_soak(config)
    return reports


#: Pid stride between matrix profiles in a merged Chrome trace; one
#: profile uses pids [base+1, base+10+n_queries], so 1000 never collides.
_MATRIX_PID_STRIDE = 1000


def export_soak_artifacts(
    reports: "SoakReport | dict[str, SoakReport]",
    chrome_out: str | None = None,
    journal_out: str | None = None,
) -> dict[str, int]:
    """Write a soak's (or a whole matrix's) observability artifacts.

    ``chrome_out`` gets one merged Chrome trace — per-tenant and
    per-worker lanes plus one process per query (see
    :func:`~repro.observability.chrome_trace.serving_trace_events`) —
    with each matrix profile offset to its own pid range and labelled.
    ``journal_out`` gets the journal JSON (non-canonical form, i.e.
    including the informational wall-clock fields), keyed by profile
    for a matrix.  Returns ``{"chrome_events": N, "journals": M}``.
    """
    from repro.observability import chrome_trace

    named = reports if isinstance(reports, dict) else {"": reports}
    chrome_events: list[dict] = []
    journal_payload: dict[str, list[dict]] = {}
    journal_count = 0
    for index, (label, report) in enumerate(named.items()):
        queries = [
            (journal, report.reports_by_trace.get(journal.trace_id))
            for journal in report.journals
        ]
        chrome_events.extend(
            chrome_trace.serving_trace_events(
                queries,
                scheduler_events=report.scheduler_events,
                lifecycle_events=report.lifecycle_events,
                pid_base=index * _MATRIX_PID_STRIDE,
                label_prefix=label,
            )
        )
        journal_payload[label] = [
            journal.as_dict(canonical=False) for journal in report.journals
        ]
        journal_count += len(report.journals)
    if chrome_out is not None:
        chrome_trace.write_trace_events(chrome_out, chrome_events)
    if journal_out is not None:
        payload = (
            journal_payload[""] if tuple(journal_payload) == ("",)
            else journal_payload
        )
        with open(journal_out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    return {"chrome_events": len(chrome_events), "journals": journal_count}


@dataclass(frozen=True)
class BreakerScenarioReport:
    """Outcome of the poison-plan circuit-breaker scenario."""

    #: Submissions attempted against the poison handle.
    poison_submissions: int
    #: Poison queries that ran and failed terminally.
    poison_failed: int
    #: Submissions fast-failed by the open breaker (never scheduled).
    breaker_rejected: int
    #: Final breaker state of the poison handle.
    breaker_state: str
    #: Breaker state transitions observed, in order (``open``,
    #: ``half-open``, …).
    transitions: tuple[str, ...]
    #: Healthy-bystander queries run while the poison plan misbehaved.
    bystander_runs: int
    #: All bystander frames bit-identical to the serial reference.
    bystander_matched: bool

    @property
    def tripped(self) -> bool:
        return self.breaker_state != "closed" or bool(self.breaker_rejected)

    def render(self) -> str:
        return (
            f"breaker scenario: poison {self.poison_submissions} submissions "
            f"→ {self.poison_failed} failed, {self.breaker_rejected} "
            f"fast-failed; state={self.breaker_state}; transitions="
            f"{list(self.transitions)}; bystander {self.bystander_runs} runs, "
            f"bit-identical={self.bystander_matched}"
        )


def breaker_scenario(
    scale_factor: float = 0.01,
    machines: int = 2,
    seed: int = 2021,
    poison_submissions: int = 8,
) -> BreakerScenarioReport:
    """Poison-plan quarantine: breaker trips, bystanders stay unharmed.

    Deploys a healthy Q12 and a *poison* Q12 whose defaults carry a
    fault policy with a ~0.95 put drop rate and zero substrate/stage
    retry budget — every run fails, every server retry fails again, so
    each submission is a terminal failure.  After
    ``failure_threshold`` of those the breaker opens and later
    submissions fast-fail without touching the scheduler.  A bystander
    query on the healthy handle runs after every poison submission and
    must stay bit-identical to its serial reference — quarantine is per
    handle, not per server.
    """
    catalog = load_catalog(scale_factor, seed=seed)
    cluster = SimCluster(machines, seed=seed)
    poison_faults = FaultPolicy(
        seed=seed,
        put_drop_rate=0.95,
        retry=RetryPolicy(max_attempts=1),
        max_stage_retries=0,
    )
    transitions: list[str] = []
    with Server(
        cluster,
        catalog,
        n_workers=2,
        retry=RetryPolicy(max_attempts=2),
        breaker=BreakerConfig(failure_threshold=2, cooldown=2),
    ) as server:
        healthy = server.deploy("q12", ALL_QUERIES[12]()).handle
        poison = server.deploy(
            "q12-poison",
            ALL_QUERIES[12](),
            defaults=RunOptions(faults=poison_faults),
        ).handle
        breaker = server.registry.breaker_for(poison)

        reference = server.registry.get(healthy).instantiate(catalog, cluster)
        reference_frame = reference.result_frame(reference.run(catalog))

        poison_failed = 0
        breaker_rejected = 0
        bystander_runs = 0
        bystander_matched = True
        for _ in range(poison_submissions):
            before = breaker.state
            try:
                future = server.submit(poison)
            except CircuitOpenError:
                breaker_rejected += 1
            else:
                try:
                    future.result(timeout=600)
                except BaseException:  # noqa: BLE001 - expected poison
                    poison_failed += 1
            after = breaker.state
            if after != before:
                transitions.append(after)
            # The bystander keeps serving regardless of the quarantine.
            outcome = server.run(healthy, timeout=600)
            bystander_runs += 1
            bystander_matched = bystander_matched and frames_match(
                reference_frame, outcome.frame, tolerance=0.0
            )
        final_state = breaker.state
    return BreakerScenarioReport(
        poison_submissions=poison_submissions,
        poison_failed=poison_failed,
        breaker_rejected=breaker_rejected,
        breaker_state=final_state,
        transitions=tuple(transitions),
        bystander_runs=bystander_runs,
        bystander_matched=bystander_matched,
    )

