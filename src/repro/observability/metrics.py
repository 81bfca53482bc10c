"""Typed query-level metrics: how much work an execution actually did.

PR 3's profiler answers *where time goes* inside one run; this module
answers *how much work* the run did — rows per operator, bytes shuffled
per exchange, memory high-water, retries — the per-operator cardinality
and volume observations cost-based cross-platform optimizers are built
on (RHEEMix et al.).

Three instrument kinds, Prometheus-flavoured:

* :class:`Counter` — monotone totals (rows, bytes, puts, retries);
* :class:`Gauge` — high-water levels (``RowVector`` peak bytes, window
  registration high-water) with *max* merge semantics;
* :class:`Histogram` — fixed exponential buckets over simulated seconds
  or sizes (per-put transfer times, rows per partition send).

Instruments are identified by ``(name, labels)``; the registry
get-or-creates them (:meth:`MetricsRegistry.counter` & co.), so emitting
a sample is one dict lookup plus one float add.  Like the profiler,
metrics are **off by default**: operators read ``ctx.registry`` once per
activation and do nothing when it is ``None``.

Operators write only the facts nothing else records (``scan_*``,
``shuffle_*``, ``join_*``, ``materialized_bytes``, ``morsels_drained``).
What the execution's record already holds — substrate events, operator
activations, recovery actions — is folded into ``comm_*``,
``fault_retries``, ``checkpoint_hits``, ``recovery_actions`` and
``operator_*`` when the report is built
(:func:`repro.observability.record.record_metrics`).

Distribution mirrors the profiler: each simulated rank gets a
:meth:`~MetricsRegistry.child` registry bound to its rank, and only the
*successful* attempt of a recovered stage is
:meth:`~MetricsRegistry.absorb`\\ ed into the driver's registry (counters
and histogram buckets add, gauges take the max), keeping a per-rank
breakdown on the side.

:meth:`MetricsRegistry.snapshot` freezes everything into a
:class:`MetricsSnapshot` — the JSON-clean, queryable form surfaced as
``ExecutionReport.metrics``, rendered into EXPLAIN ANALYZE and the
``repro metrics`` Prometheus-style text exposition.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "METRIC_HELP",
    "MetricsRegistry",
    "MetricSample",
    "MetricsSnapshot",
    "bucket_quantile",
    "exponential_bounds",
]

#: ``# HELP`` text per metric family in the Prometheus exposition.
#: Unlisted names fall back to a generic line (exposition stays valid).
METRIC_HELP: dict[str, str] = {
    "broadcast_bytes": "Bytes replicated to every rank by broadcast joins",
    "broadcast_rows": "Rows replicated to every rank by broadcast joins",
    "checkpoint_hits": "Stage re-executions answered from sealed checkpoints",
    "comm_collectives": "Collective operations executed on the substrate",
    "comm_put_bytes": "Bytes moved by one-sided puts",
    "comm_put_rows": "Rows moved by one-sided puts",
    "comm_put_seconds": "Simulated seconds per one-sided put",
    "comm_puts": "One-sided put operations issued",
    "comm_window_bytes_hwm": "High-water bytes registered in RMA windows",
    "comm_windows": "RMA window registrations",
    "fault_retries": "Substrate-level retries of dropped operations",
    "join_build_rows": "Rows ingested by join build sides",
    "join_dispatch": "Join kernel dispatch decisions by kernel",
    "materialized_bytes": "Bytes materialized into RowVectors",
    "morsels_drained": "Driver-level morsel steps drained",
    "operator_batches_out": "Batches emitted per operator and mode",
    "operator_calls": "Data-path activations per operator",
    "operator_rows_out": "Rows emitted per operator and mode",
    "plan_input_bytes": "Bytes bound as plan parameters",
    "recovery_actions": "Driver-level stage recovery actions",
    "rowvector_peak_bytes": "Largest single RowVector materialization",
    "scan_bytes": "Bytes read by table scans",
    "scan_rows": "Rows read by table scans",
    "serving_breaker_rejected": "Submissions fast-failed by an open circuit breaker",
    "serving_breaker_state": "Circuit breaker state per handle (0 closed, 1 half-open, 2 open)",
    "serving_cancelled": "Queries settled by cooperative cancellation",
    "serving_completed": "Queries completed successfully",
    "serving_deadline_missed": "Queries settled by simulated-clock deadline misses",
    "serving_failed": "Queries settled by terminal failures",
    "serving_handle_latency_seconds": "End-to-end simulated latency of completed queries per handle",
    "serving_handle_settled": "Settled queries considered for SLO burn per handle",
    "serving_in_flight": "Queries admitted and not yet settled",
    "serving_latency_seconds": "End-to-end simulated latency of completed queries per tenant",
    "serving_quanta": "Scheduler picks (one driver step each)",
    "serving_rejected": "Submissions refused by hard admission control",
    "serving_retries": "Server-level retry attempts after retryable faults",
    "serving_shed": "Submissions refused by load-aware shedding",
    "serving_simulated_millis": "Simulated milliseconds consumed by completed queries",
    "serving_slo_miss": "Settled queries that burned SLO error budget",
    "serving_steps": "Morsel steps executed per tenant",
    "serving_submitted": "Query submissions admitted to the scheduler",
    "shuffle_bytes": "Bytes exchanged by hash-partitioned shuffles",
    "shuffle_rows": "Rows exchanged by hash-partitioned shuffles",
}


def exponential_bounds(
    start: float = 1e-6, factor: float = 4.0, count: int = 12
) -> tuple[float, ...]:
    """Fixed exponential bucket boundaries ``start * factor**i``.

    The default covers 1µs to ~4.2s in twelve powers of four — wide
    enough for every simulated duration the substrate produces, coarse
    enough that bucket counts stay meaningful across run sizes.
    """
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError(
            f"exponential bounds need start > 0, factor > 1, count >= 1; "
            f"got start={start}, factor={factor}, count={count}"
        )
    return tuple(start * factor**i for i in range(count))


def bucket_quantile(
    bounds: tuple[float, ...],
    buckets: tuple[int, ...] | list[int],
    count: int,
    q: float,
) -> float:
    """Quantile estimate from cumulative-style bucket counts.

    ``buckets[i]`` counts samples ``<= bounds[i]`` (one trailing overflow
    bucket), exactly the :class:`Histogram` layout.  The estimate
    interpolates linearly inside the containing bucket — the Prometheus
    ``histogram_quantile`` convention — so it is exact to within one
    bucket width (the property test sweeps this against
    ``numpy.percentile``).  Samples landing in the overflow bucket clamp
    to the highest finite bound; an empty distribution returns NaN.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if count <= 0:
        return float("nan")
    rank = q * count
    cumulative = 0
    for i in range(len(bounds)):
        in_bucket = buckets[i]
        if in_bucket and cumulative + in_bucket >= rank:
            lower = bounds[i - 1] if i else 0.0
            upper = bounds[i]
            fraction = max(0.0, rank - cumulative) / in_bucket
            return lower + (upper - lower) * fraction
        cumulative += in_bucket
    # Everything at/after the target rank overflowed the finite bounds.
    return bounds[-1] if bounds else float("nan")


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    add = inc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.value})"


class Gauge:
    """A high-water level; merging across ranks takes the maximum."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def set_max(self, value) -> None:
        if value > self.value:
            self.value = value

    def add(self, delta) -> None:
        """Up-down adjustment (e.g. in-flight query counts); may go negative
        transiently, which a final snapshot should never show."""
        self.value += delta

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.value})"


class Histogram:
    """Sample distribution over fixed exponential buckets.

    ``buckets[i]`` counts samples ``<= bounds[i]``; one implicit overflow
    bucket (``+Inf``) catches the rest.  Bounds are shared between the
    driver registry and its rank children so buckets merge by addition.
    """

    __slots__ = ("bounds", "buckets", "count", "sum")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n
        self.count += other.count
        self.sum += other.sum

    def quantile(self, q: float) -> float:
        """Bucketed quantile estimate (see :func:`bucket_quantile`)."""
        return bucket_quantile(self.bounds, self.buckets, self.count, q)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram(count={self.count}, sum={self.sum:.6g})"


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Mutable instrument store for one execution context (one rank).

    The driver's registry observes driver-side operators;
    :mod:`repro.faults.stage_recovery` creates one :meth:`child` per rank
    of each MPI job and absorbs the successful attempt's children, so a
    single registry ends up holding the whole plan's work accounting.
    """

    __slots__ = ("rank", "_counters", "_gauges", "_histograms", "rank_totals")

    #: Rank id of the driver registry (mirrors events.DRIVER_RANK).
    DRIVER = -1

    def __init__(self, rank: int = DRIVER) -> None:
        self.rank = rank
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}
        #: Per-rank totals retained by :meth:`absorb`:
        #: ``rank -> metric name -> summed value``.
        self.rank_totals: dict[int, dict[str, float]] = {}

    # -- instrument access (get-or-create) ---------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(
        self, name: str, bounds: tuple[float, ...] | None = None, **labels
    ) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(
                bounds if bounds is not None else exponential_bounds()
            )
        return instrument

    # -- storage-layer accounting ------------------------------------------

    def account_memory(self, payload_bytes: int) -> None:
        """One materialized ``RowVector`` of ``payload_bytes`` exists.

        Feeds the memory-accounting hook of ``ExecutionContext``: the
        counter totals every byte materialized, the gauge keeps the
        largest single materialization — the resident high-water a real
        deployment would size worker memory by.
        """
        self.counter("materialized_bytes").add(payload_bytes)
        self.gauge("rowvector_peak_bytes").set_max(payload_bytes)

    # -- distribution ------------------------------------------------------

    def child(self, rank: int) -> "MetricsRegistry":
        """A fresh registry for one rank (lane) of an MPI job."""
        return MetricsRegistry(rank=rank)

    def absorb(self, other: "MetricsRegistry") -> None:
        """Merge a rank registry in; counters/buckets add, gauges max."""
        for key, counter in other._counters.items():
            self.counter(key[0], **dict(key[1])).add(counter.value)
        for key, gauge in other._gauges.items():
            self.gauge(key[0], **dict(key[1])).set_max(gauge.value)
        for key, histogram in other._histograms.items():
            self.histogram(key[0], bounds=histogram.bounds, **dict(key[1])).merge(
                histogram
            )
        totals = self.rank_totals.setdefault(other.rank, {})
        for (name, _labels), counter in other._counters.items():
            totals[name] = totals.get(name, 0) + counter.value
        for (name, _labels), gauge in other._gauges.items():
            totals[name] = max(totals.get(name, 0), gauge.value)
        for rank, child_totals in other.rank_totals.items():
            merged = self.rank_totals.setdefault(rank, {})
            for name, value in child_totals.items():
                merged[name] = merged.get(name, 0) + value

    # -- freezing ----------------------------------------------------------

    def snapshot(self) -> "MetricsSnapshot":
        samples = []
        for (name, labels), counter in sorted(self._counters.items()):
            samples.append(
                MetricSample(name, "counter", dict(labels), counter.value)
            )
        for (name, labels), gauge in sorted(self._gauges.items()):
            samples.append(MetricSample(name, "gauge", dict(labels), gauge.value))
        for (name, labels), histogram in sorted(self._histograms.items()):
            samples.append(
                MetricSample(
                    name,
                    "histogram",
                    dict(labels),
                    histogram.sum,
                    count=histogram.count,
                    bounds=tuple(histogram.bounds),
                    buckets=tuple(histogram.buckets),
                )
            )
        return MetricsSnapshot(
            samples=samples,
            per_rank={
                rank: dict(totals)
                for rank, totals in sorted(self.rank_totals.items())
            },
        )


@dataclass(frozen=True)
class MetricSample:
    """One frozen instrument: name, labels, kind, and its final value."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    labels: dict
    value: float
    #: Histogram-only: number of observations and the bucket layout.
    count: int = 0
    bounds: tuple[float, ...] = ()
    buckets: tuple[int, ...] = ()

    def quantile(self, q: float) -> float:
        """Bucketed quantile estimate for histogram samples (else NaN)."""
        if self.kind != "histogram":
            return float("nan")
        return bucket_quantile(self.bounds, self.buckets, self.count, q)

    def as_dict(self) -> dict:
        entry: dict = {
            "name": self.name,
            "kind": self.kind,
            "labels": dict(self.labels),
            "value": self.value,
        }
        if self.kind == "histogram":
            entry["count"] = self.count
            entry["bounds"] = list(self.bounds)
            entry["buckets"] = list(self.buckets)
        return entry


@dataclass
class MetricsSnapshot:
    """Queryable, JSON-clean view of everything one execution recorded."""

    samples: list[MetricSample] = field(default_factory=list)
    #: ``rank -> metric name -> total`` retained from rank children.
    per_rank: dict[int, dict[str, float]] = field(default_factory=dict)

    def find(self, name: str, **labels) -> list[MetricSample]:
        """Samples of one metric whose labels include all of ``labels``."""
        return [
            s
            for s in self.samples
            if s.name == name
            and all(s.labels.get(k) == v for k, v in labels.items())
        ]

    def value(self, name: str, **labels) -> float:
        """Exact-label lookup; 0 when the instrument never fired."""
        for sample in self.samples:
            if sample.name == name and sample.labels == labels:
                return sample.value
        return 0

    def total(self, name: str, **labels) -> float:
        """Sum over every label set of ``name`` matching the filter."""
        return sum(s.value for s in self.find(name, **labels))

    def by_label(self, name: str, label: str) -> dict[str, float]:
        """``label value -> summed total`` breakdown of one metric."""
        out: dict[str, float] = {}
        for sample in self.find(name):
            key = sample.labels.get(label)
            if key is not None:
                out[key] = out.get(key, 0) + sample.value
        return out

    def merged(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """One snapshot of two registries' (disjoint) instruments, in the
        order a single registry would have frozen them."""
        kinds = ("counter", "gauge", "histogram")
        return MetricsSnapshot(
            samples=sorted(
                self.samples + other.samples,
                key=lambda s: (kinds.index(s.kind), s.name, _label_key(s.labels)),
            ),
            per_rank={
                rank: {**self.per_rank.get(rank, {}), **other.per_rank.get(rank, {})}
                for rank in sorted({*self.per_rank, *other.per_rank})
            },
        )

    def names(self) -> list[str]:
        seen: dict[str, None] = {}
        for sample in self.samples:
            seen.setdefault(sample.name)
        return list(seen)

    # -- export ------------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-clean export; per-rank totals in name order, so the bytes
        do not depend on which facts were written and which folded."""
        return {
            "samples": [s.as_dict() for s in self.samples],
            "per_rank": {
                str(rank): dict(sorted(totals.items()))
                for rank, totals in self.per_rank.items()
            },
        }

    def render_prometheus(self, prefix: str = "repro_") -> str:
        """Prometheus-style text exposition (the ``repro metrics`` body).

        Conforms to the text exposition format: one ``# HELP`` and one
        ``# TYPE`` line per metric family, label values escaped
        (backslash, double quote, newline), counters suffixed ``_total``,
        histograms expanded to cumulative ``_bucket{le=...}`` series plus
        ``_sum``/``_count``.
        """

        def escape(value) -> str:
            return (
                str(value)
                .replace("\\", "\\\\")
                .replace('"', '\\"')
                .replace("\n", "\\n")
            )

        def fmt_labels(labels: dict, extra: dict | None = None) -> str:
            merged = {**labels, **(extra or {})}
            if not merged:
                return ""
            inner = ",".join(
                f'{k}="{escape(v)}"' for k, v in sorted(merged.items())
            )
            return "{" + inner + "}"

        lines: list[str] = []
        typed: set[str] = set()
        for sample in self.samples:
            base = prefix + sample.name
            if sample.name not in typed:
                typed.add(sample.name)
                help_text = METRIC_HELP.get(
                    sample.name, f"{sample.name} recorded by the repro runtime"
                )
                # HELP text escapes backslash and newline only (the
                # exposition spec; quotes stay literal outside labels).
                escaped_help = help_text.replace("\\", "\\\\").replace("\n", "\\n")
                lines.append(f"# HELP {base} {escaped_help}")
                lines.append(f"# TYPE {base} {sample.kind}")
            if sample.kind == "counter":
                lines.append(
                    f"{base}_total{fmt_labels(sample.labels)} {sample.value}"
                )
            elif sample.kind == "gauge":
                lines.append(f"{base}{fmt_labels(sample.labels)} {sample.value}")
            else:
                cumulative = 0
                for bound, count in zip(sample.bounds, sample.buckets):
                    cumulative += count
                    lines.append(
                        f"{base}_bucket"
                        f"{fmt_labels(sample.labels, {'le': f'{bound:g}'})}"
                        f" {cumulative}"
                    )
                cumulative += sample.buckets[len(sample.bounds)]
                lines.append(
                    f"{base}_bucket"
                    f"{fmt_labels(sample.labels, {'le': '+Inf'})} {cumulative}"
                )
                lines.append(f"{base}_sum{fmt_labels(sample.labels)} {sample.value}")
                lines.append(
                    f"{base}_count{fmt_labels(sample.labels)} {sample.count}"
                )
        return "\n".join(lines)

    def render_summary(self) -> str:
        """Compact human-readable block for EXPLAIN ANALYZE / text CLIs."""
        lines = ["metrics:"]
        rows_by_op = self.by_label("operator_rows_out", "op")
        for op, rows in sorted(rows_by_op.items()):
            lines.append(f"  rows_out[{op}] = {int(rows)}")
        for name in (
            "scan_bytes",
            "shuffle_bytes",
            "broadcast_bytes",
            "comm_put_bytes",
            "materialized_bytes",
            "rowvector_peak_bytes",
            "fault_retries",
            "checkpoint_hits",
            "recovery_actions",
        ):
            total = self.total(name)
            if total:
                lines.append(f"  {name} = {int(total)}")
        if self.per_rank:
            ranks = ", ".join(str(r) for r in self.per_rank)
            lines.append(f"  ranks observed: {ranks}")
        return "\n".join(lines)
