"""The metrics registry: instruments, distribution, and reconciliation.

The load-bearing contracts: metrics change nothing when off (bit-identical
results and simulated times), and when on they reconcile ±0 with the other
observers — profiler row counts and the comm substrate's byte traces.
"""

import json

import pytest

from repro.core.options import RunOptions
from repro.analysis.runtime import analyze_runtime
from repro.faults import CrashFault, FaultPolicy
from repro.mpi.cluster import SimCluster
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_bounds,
)
from repro.relational import lower_to_modularis, run_logical_plan
from repro.tpch import ALL_QUERIES, load_catalog


@pytest.fixture(scope="module")
def catalog():
    return load_catalog(scale_factor=0.005)


class TestInstruments:
    def test_counter_adds(self):
        c = Counter()
        c.inc()
        c.add(41)
        assert c.value == 42

    def test_gauge_set_max_keeps_high_water(self):
        g = Gauge()
        g.set_max(10)
        g.set_max(3)
        assert g.value == 10
        g.set(5)
        assert g.value == 5

    def test_histogram_buckets_and_overflow(self):
        h = Histogram(bounds=(1.0, 4.0, 16.0))
        for v in (0.5, 1.0, 2.0, 100.0):
            h.observe(v)
        # 0.5 and 1.0 land <= 1.0; 2.0 lands <= 4.0; 100.0 overflows.
        assert h.buckets == [2, 1, 0, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(103.5)

    def test_histogram_merge_requires_identical_bounds(self):
        a, b = Histogram(bounds=(1.0,)), Histogram(bounds=(2.0,))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_exponential_bounds_shape(self):
        bounds = exponential_bounds(start=1e-6, factor=4.0, count=3)
        assert bounds == (1e-6, 4e-6, 16e-6)
        with pytest.raises(ValueError):
            exponential_bounds(start=0.0)


class TestRegistry:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("x", op="A") is reg.counter("x", op="A")
        assert reg.counter("x", op="A") is not reg.counter("x", op="B")
        # Label order does not split instruments.
        assert reg.counter("y", a="1", b="2") is reg.counter("y", b="2", a="1")

    def test_absorb_merges_by_kind(self):
        driver = MetricsRegistry()
        driver.counter("rows").add(10)
        driver.gauge("peak").set_max(5)
        for rank, (rows, peak) in enumerate([(7, 20), (3, 8)]):
            child = driver.child(rank)
            child.counter("rows").add(rows)
            child.gauge("peak").set_max(peak)
            child.histogram("lat", bounds=(1.0, 2.0)).observe(1.5)
            driver.absorb(child)
        snap = driver.snapshot()
        assert snap.value("rows") == 20
        assert snap.value("peak") == 20  # gauges max-merge
        (lat,) = snap.find("lat")
        assert lat.count == 2 and lat.buckets == (0, 2, 0)
        # Per-rank totals survive the merge.
        assert snap.per_rank == {0: {"rows": 7, "peak": 20}, 1: {"rows": 3, "peak": 8}}

    def test_account_memory_tracks_total_and_peak(self):
        reg = MetricsRegistry()
        reg.account_memory(100)
        reg.account_memory(300)
        reg.account_memory(200)
        snap = reg.snapshot()
        assert snap.value("materialized_bytes") == 600
        assert snap.value("rowvector_peak_bytes") == 300


class TestSnapshotExport:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.counter("operator_rows_out", op="RowScan", mode="fused").add(10)
        reg.counter("operator_rows_out", op="Reduce", mode="fused").add(1)
        reg.gauge("rowvector_peak_bytes").set_max(64)
        reg.histogram("comm_put_seconds", bounds=(1.0, 2.0)).observe(0.5)
        return reg.snapshot()

    def test_as_dict_is_json_clean(self):
        payload = self._snapshot().as_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_prometheus_exposition_format(self):
        text = self._snapshot().render_prometheus()
        assert "# TYPE repro_operator_rows_out counter" in text
        assert 'repro_operator_rows_out_total{mode="fused",op="RowScan"} 10' in text
        assert "# TYPE repro_rowvector_peak_bytes gauge" in text
        assert "repro_rowvector_peak_bytes 64" in text
        # Histograms expose cumulative buckets, +Inf, _sum and _count.
        assert 'repro_comm_put_seconds_bucket{le="1"} 1' in text
        assert 'repro_comm_put_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_comm_put_seconds_sum 0.5" in text
        assert "repro_comm_put_seconds_count 1" in text

    def test_summary_lists_rows_per_operator(self):
        text = self._snapshot().render_summary()
        assert "rows_out[RowScan] = 10" in text
        assert "rows_out[Reduce] = 1" in text

    def test_queries(self):
        snap = self._snapshot()
        assert snap.total("operator_rows_out") == 11
        assert snap.by_label("operator_rows_out", "op") == {
            "RowScan": 10, "Reduce": 1,
        }
        assert snap.value("operator_rows_out", op="RowScan", mode="fused") == 10
        assert snap.value("never_recorded") == 0
        assert "operator_rows_out" in snap.names()


class TestPrometheusConformance:
    """Text exposition format details prometheus scrapers depend on."""

    def test_every_family_has_help_before_type(self):
        text = self._full_snapshot().render_prometheus()
        lines = text.splitlines()
        seen_families = set()
        for i, line in enumerate(lines):
            if line.startswith("# TYPE "):
                family = line.split()[2]
                assert family not in seen_families, "duplicate TYPE line"
                seen_families.add(family)
                assert lines[i - 1].startswith(f"# HELP {family} "), (
                    f"TYPE for {family} not directly preceded by its HELP"
                )
        assert seen_families

    def test_known_metrics_get_curated_help(self):
        from repro.observability.metrics import METRIC_HELP

        reg = MetricsRegistry()
        reg.counter("serving_submitted", tenant="t").inc()
        text = reg.snapshot().render_prometheus()
        assert (
            f"# HELP repro_serving_submitted "
            f"{METRIC_HELP['serving_submitted']}" in text
        )

    def test_unknown_metrics_get_fallback_help(self):
        reg = MetricsRegistry()
        reg.counter("bespoke_metric").inc()
        text = reg.snapshot().render_prometheus()
        assert "# HELP repro_bespoke_metric bespoke_metric recorded" in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("x", path='a\\b"c\nd').inc()
        text = reg.snapshot().render_prometheus()
        assert 'path="a\\\\b\\"c\\nd"' in text
        # The raw (unescaped) forms never leak into the exposition.
        assert 'path="a\\b"' not in text

    def test_help_text_escapes_backslash_and_newline_only(self):
        from unittest import mock

        from repro.observability import metrics as metrics_mod

        reg = MetricsRegistry()
        reg.counter("weird").inc()
        with mock.patch.dict(
            metrics_mod.METRIC_HELP, {"weird": 'a\\b "quoted"\nrest'}
        ):
            text = reg.snapshot().render_prometheus()
        assert '# HELP repro_weird a\\\\b "quoted"\\nrest' in text

    def _full_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("serving_submitted", tenant="t").inc(3)
        reg.counter("serving_completed", tenant="t").inc(2)
        reg.gauge("rowvector_peak_bytes").set_max(64)
        reg.histogram("comm_put_seconds", bounds=(1.0, 2.0)).observe(0.5)
        reg.histogram(
            "serving_latency_seconds", bounds=(0.1, 1.0), tenant="t"
        ).observe(0.05)
        return reg.snapshot()


class TestBucketQuantile:
    def test_empty_distribution_is_nan(self):
        import math

        h = Histogram(bounds=(1.0, 2.0))
        assert math.isnan(h.quantile(0.5))

    def test_overflow_clamps_to_highest_bound(self):
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(100.0)
        assert h.quantile(0.99) == 2.0

    def test_quantile_bounds_validated(self):
        h = Histogram(bounds=(1.0,))
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_interpolates_within_bucket(self):
        h = Histogram(bounds=(0.0, 10.0))
        for _ in range(10):
            h.observe(5.0)
        # All mass in (0, 10]; the median interpolates to mid-bucket.
        assert h.quantile(0.5) == pytest.approx(5.0)


@pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
def test_quantile_matches_numpy_within_one_bucket(q):
    """Property: bucketed quantiles land within one bucket of numpy's.

    Driven by hypothesis over sample sets spanning the full bucket
    range including overflow.  ``bucket_quantile`` picks the bucket
    containing the inverted-CDF sample (the Prometheus rank convention,
    numpy's ``method="inverted_cdf"``) and interpolates linearly inside
    it, so the estimate may be off by at most the width of that bucket —
    never more.  Overflow samples clamp to the highest finite bound.
    """
    import bisect

    import numpy as np
    from hypothesis import given, settings
    from hypothesis import strategies as st

    bounds = exponential_bounds(start=1e-3, factor=2.0, count=12)

    @given(
        samples=st.lists(
            st.floats(min_value=1e-4, max_value=10.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def check(samples):
        h = Histogram(bounds)
        for s in samples:
            h.observe(s)
        estimate = h.quantile(q)
        exact = float(
            np.percentile(samples, q * 100, method="inverted_cdf")
        )
        # The estimate interpolates inside the bucket holding the exact
        # quantile sample (clamped into the finite range — overflow
        # samples clamp to the last bound).
        clamped = min(exact, bounds[-1])
        idx = min(bisect.bisect_left(bounds, clamped), len(bounds) - 1)
        lower = bounds[idx - 1] if idx else 0.0
        width = bounds[idx] - lower
        assert abs(estimate - clamped) <= width + 1e-12

    check()


def _run_q(catalog, qnum, machines=4, mode="fused", **kwargs):
    cluster = SimCluster(machines, trace=True)
    lowered = lower_to_modularis(ALL_QUERIES[qnum]().plan, catalog, cluster)
    report = lowered.run(catalog, RunOptions(mode=mode, **kwargs))
    return lowered, report


class TestReconciliation:
    @pytest.mark.parametrize("mode", ["fused", "interpreted"])
    def test_q12_metrics_agree_with_profiler_rows(self, catalog, mode):
        _, report = _run_q(catalog, 12, mode=mode, metrics=True, profile=True)
        snap = report.metrics
        prof_rows: dict[str, int] = {}
        for node in report.profile.root.walk():
            prof_rows[node.op_type] = (
                prof_rows.get(node.op_type, 0) + node.stats.rows_out
            )
        metric_rows = snap.by_label("operator_rows_out", "op")
        # Exact agreement, operator type by operator type — both observers
        # count the same generator activations.
        assert {k: v for k, v in metric_rows.items()} == {
            k: v for k, v in prof_rows.items() if v or k in metric_rows
        }

    @pytest.mark.parametrize("mode", ["fused", "interpreted"])
    def test_q12_network_bytes_match_comm_trace(self, catalog, mode):
        _, report = _run_q(catalog, 12, mode=mode, metrics=True)
        snap = report.metrics
        traced = sum(
            r.trace.network_bytes()
            for r in report.cluster_results
            if r.trace is not None
        )
        assert snap.total("comm_put_bytes", scope="network") == traced
        assert traced > 0

    def test_materialized_rows_match_output(self, catalog):
        lowered, report = _run_q(catalog, 12, metrics=True)
        frame = lowered.result_frame(report)
        snap = report.metrics
        # The driver-side materialize sees exactly the final output rows.
        driver_rows = snap.value(
            "operator_rows_out", op="MaterializeRowVector", mode="fused"
        )
        assert driver_rows >= frame.n_rows

    def test_per_rank_breakdown_sums_to_totals(self, catalog):
        _, report = _run_q(catalog, 12, metrics=True)
        snap = report.metrics
        assert sorted(snap.per_rank) == [0, 1, 2, 3]
        # Shuffles happen only inside ranks, so the per-rank retained
        # totals must add up to the absorbed driver total.
        assert sum(
            totals.get("shuffle_bytes", 0) for totals in snap.per_rank.values()
        ) == snap.total("shuffle_bytes")

    @pytest.mark.parametrize(
        "faults",
        [
            None,
            FaultPolicy(seed=7, put_drop_rate=0.05, collective_drop_rate=0.05),
            FaultPolicy(crash=CrashFault(1, after_comm_ops=4)),
        ],
        ids=["clean", "transient", "crash"],
    )
    def test_folded_metrics_equal_the_record(self, catalog, faults):
        """comm_*, fault_retries, recovery_actions and checkpoint_hits have
        no write site of their own: they are folds over the surviving
        attempts' events, so they equal what the report's traces hold."""
        _, report = _run_q(catalog, 12, metrics=True, faults=faults)
        snap = report.metrics
        events = [e for trace in report.traces for e in trace.events()]

        def count(kind):
            return sum(1 for e in events if e.kind == kind)

        assert snap.total("comm_put_bytes", scope="network") == sum(
            trace.network_bytes() for trace in report.traces
        )
        assert snap.total("comm_puts") == count("put")
        assert snap.total("comm_collectives") == count("collective") > 0
        assert snap.total("comm_windows") == count("win_create")
        assert snap.total("fault_retries") == count("retry")
        recoveries: dict[str, int] = {}
        for event in report.fault_events():
            if event.kind == "recovery":
                recoveries[event.label] = recoveries.get(event.label, 0) + 1
        hits = recoveries.pop("checkpoint_hit", 0)
        assert snap.total("checkpoint_hits") == hits
        assert snap.by_label("recovery_actions", "action") == recoveries
        if faults is not None and faults.crash is not None:
            assert recoveries == {"stage_retry": 1}
        if faults is not None and faults.put_drop_rate:
            assert count("retry") > 0
        # Only ranks communicate, so each folded total is the sum of its
        # per-rank breakdown.
        for name in ("comm_puts", "comm_put_bytes", "comm_collectives",
                     "comm_windows", "fault_retries", "checkpoint_hits"):
            assert sum(
                totals.get(name, 0) for totals in snap.per_rank.values()
            ) == snap.total(name)

    def test_join_dispatch_paths(self, catalog):
        """Both modes run the one join kernel dispatch: there is no scalar
        join to fall back to."""
        for mode in ("fused", "interpreted"):
            _, report = _run_q(catalog, 12, mode=mode, metrics=True)
            paths = report.metrics.by_label("join_dispatch", "path")
            assert sum(paths.values()) > 0 and set(paths) <= {"kernel", "radix"}

    def test_explain_analyze_includes_metrics_block(self, catalog):
        _, report = _run_q(catalog, 12, metrics=True, profile=True)
        rendered = report.profile.render()
        assert "metrics:" in rendered
        assert "rows_out[" in rendered


class TestDisabledMode:
    @pytest.mark.parametrize("qnum", [4, 12, 14, 19])
    def test_results_bit_identical_with_metrics_on(self, catalog, qnum):
        lowered_off, off = _run_q(catalog, qnum)
        lowered_on, on = _run_q(catalog, qnum, metrics=True)
        frame_off = lowered_off.result_frame(off)
        frame_on = lowered_on.result_frame(on)
        assert set(frame_off.columns) == set(frame_on.columns)
        for name in frame_off.columns:
            assert list(frame_off.columns[name]) == list(frame_on.columns[name])
        # The simulated clock never sees the registry: identical timings.
        assert off.simulated_time == on.simulated_time

    def test_report_metrics_none_when_disabled(self, catalog):
        _, report = _run_q(catalog, 12)
        assert report.metrics is None

    @pytest.mark.parametrize("mode", ["fused", "interpreted"])
    def test_counts_only_run_never_reads_the_wall_clock(self, monkeypatch, mode):
        """metrics without profile keeps the one observer counts-only:
        no frame stack, so no perf_counter() per pull (interpreted mode
        pulls once per row), and no profile on the report."""
        from repro.observability import profile
        from repro.workloads.targets import resolve

        def boom():  # pragma: no cover - must not run
            raise AssertionError("counts-only observer read the wall clock")

        target = resolve("join", 2, log2_tuples=10)
        profiled = target.run(RunOptions(mode=mode, metrics=True, profile=True))
        monkeypatch.setattr(profile, "perf_counter", boom)
        counted = target.run(RunOptions(mode=mode, metrics=True))
        assert counted.profile is None
        # Same counts, sample for sample, as the timed observer's.
        assert counted.metrics.find("operator_calls")
        for name in ("operator_rows_out", "operator_batches_out", "operator_calls"):
            assert counted.metrics.find(name) == profiled.metrics.find(name)


class TestRuntimeAdvisories:
    def _snapshot(self, input_bytes, shuffle_bytes):
        reg = MetricsRegistry()
        reg.counter("plan_input_bytes").add(input_bytes)
        reg.counter("shuffle_bytes", op="MpiExchange").add(shuffle_bytes)
        return reg.snapshot()

    def test_mod040_fires_on_amplified_shuffle(self):
        findings = analyze_runtime(self._snapshot(1000, 3000))
        assert [d.rule.id for d in findings] == ["MOD040"]
        assert "3.0x" in findings[0].message
        assert findings[0].severity.name == "INFO"

    def test_mod040_quiet_on_plain_repartition(self):
        assert analyze_runtime(self._snapshot(1000, 1000)) == []
        assert analyze_runtime(None) == []

    def test_mod040_threshold_is_configurable(self):
        snap = self._snapshot(1000, 1500)
        assert analyze_runtime(snap) == []
        assert len(analyze_runtime(snap, shuffle_amplification_factor=1.2)) == 1

    def test_q12_stays_under_the_default_threshold(self, catalog):
        _, report = _run_q(catalog, 12, metrics=True)
        assert analyze_runtime(report.metrics) == []
