"""Per-operator profiling, typed trace events, and trace export.

The paper's evaluation (§6) reasons in per-phase breakdowns — histogram,
partition, build-probe, network vs. compute.  This package closes the gap
between that style of analysis and the repository's execution layer by
giving every :class:`~repro.core.operator.Operator` a measured identity:

* :mod:`repro.observability.events` — one shared event base
  (:class:`SimEvent`) for substrate trace events and operator spans, plus
  typed per-kind detail payloads;
* :mod:`repro.observability.profile` — the :class:`Profiler` runtime
  recorder (off by default, free when disabled), the
  :class:`PlanProfile` tree attached under ``RunOptions(profile=True)``,
  and its EXPLAIN-ANALYZE-style rendering;
* :mod:`repro.observability.chrome_trace` — a ``chrome://tracing`` /
  Perfetto JSON exporter that merges operator spans with
  :class:`~repro.mpi.trace.ClusterTrace` collective/put events on one
  simulated-time axis;
* :mod:`repro.observability.metrics` — the typed work-accounting
  registry (Counter / Gauge / Histogram) behind
  ``RunOptions(metrics=True)`` / ``ExecutionReport.metrics`` and the
  ``repro metrics`` Prometheus-style exposition;
* :mod:`repro.observability.record` — the one append-only
  :class:`ExecutionRecord` per execution and :func:`record_metrics`, the
  fold deriving ``comm_*``/``operator_*``/recovery metrics from it;
* :mod:`repro.observability.tracing` — causal trace contexts
  (:class:`TraceContext`) minted per serving submission and the per-query
  :class:`QueryJournal`, the one record every serving view is folded from;
* :mod:`repro.observability.slo` — per-tenant / per-handle latency
  objectives (:class:`SLOConfig`) and the burn-rate report behind
  ``repro slo``.

Profiling is enabled per execution (``RunOptions(profile=True)``,
``Query.explain(analyze=True)``, ``repro profile``/``repro explain
--analyze`` on the command line).  Every operator's walk is observed in
one place, :func:`repro.core.lockstep.steps`; when profiling is off that
costs one attribute check per operator activation and allocates nothing.
"""

from repro.observability.chrome_trace import (
    chrome_trace_events,
    serving_trace_events,
    write_chrome_trace,
    write_serving_chrome_trace,
)
from repro.observability.metrics import (
    METRIC_HELP,
    Counter,
    Gauge,
    Histogram,
    MetricSample,
    MetricsRegistry,
    MetricsSnapshot,
    bucket_quantile,
    exponential_bounds,
)
from repro.observability.slo import (
    SERVING_LATENCY_BOUNDS,
    SLOConfig,
    SLOEntry,
    SLOReport,
    build_slo_report,
)
from repro.observability.tracing import (
    JournalEvent,
    QueryJournal,
    TraceContext,
)
from repro.observability.events import (
    CollectiveDetail,
    EventDetail,
    OperatorSpan,
    PutDetail,
    SimEvent,
    WindowDetail,
)
from repro.observability.profile import (
    OperatorStats,
    PlanProfile,
    ProfileNode,
    Profiler,
)

__all__ = [
    "SimEvent",
    "EventDetail",
    "PutDetail",
    "CollectiveDetail",
    "WindowDetail",
    "OperatorSpan",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSample",
    "MetricsRegistry",
    "MetricsSnapshot",
    "exponential_bounds",
    "Profiler",
    "OperatorStats",
    "PlanProfile",
    "ProfileNode",
    "chrome_trace_events",
    "serving_trace_events",
    "write_chrome_trace",
    "write_serving_chrome_trace",
    "METRIC_HELP",
    "bucket_quantile",
    "SERVING_LATENCY_BOUNDS",
    "SLOConfig",
    "SLOEntry",
    "SLOReport",
    "build_slo_report",
    "JournalEvent",
    "QueryJournal",
    "TraceContext",
]
