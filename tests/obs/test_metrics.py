"""Tests for the observability metrics registry."""

import math
import threading

import numpy as np
import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    FRACTION_BUCKETS,
    PAGES_BUCKETS,
    RATE_BUCKETS,
    SECONDS_BUCKETS,
    MetricHistogram,
    MetricsRegistry,
    _fmt,
    parse_prometheus_text,
    validate_metric_name,
)


def merge_snapshots(snapshots):
    """One registry folded from ``snapshots`` in order, as the run merge does."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
    return registry


class TestNamingConvention:
    def test_valid_names_pass(self):
        for name in (
            "repro_engine_epochs_total",
            "repro_tiers_fast_allocated_bytes",
            "repro_x_y",
        ):
            assert validate_metric_name(name) == name

    @pytest.mark.parametrize(
        "bad",
        [
            "engine_epochs_total",  # missing repro_ prefix
            "repro_epochs",  # missing subsystem segment
            "repro_Engine_epochs",  # uppercase
            "repro_engine-epochs",  # dash
            "repro__epochs",  # empty subsystem
            "",
        ],
    )
    def test_bad_names_raise(self, bad):
        with pytest.raises(ObservabilityError):
            validate_metric_name(bad)

    def test_registry_enforces_names(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.counter("bad_name")
        with pytest.raises(ObservabilityError):
            registry.gauge("also bad")
        with pytest.raises(ObservabilityError):
            registry.histogram("nope", SECONDS_BUCKETS)


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_events_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        # Same name returns the same counter.
        assert registry.counter("repro_test_events_total") is counter

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("repro_test_events_total")
        with pytest.raises(ObservabilityError):
            counter.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("repro_test_level")
        gauge.set(5.0)
        gauge.set(2.0)
        assert gauge.value == 2.0


class TestHistogramBucketEdges:
    def test_edge_values_are_inclusive_le(self):
        """An observation exactly on an edge lands in that edge's cell."""
        hist = MetricHistogram("repro_test_hist", (1.0, 10.0, 100.0))
        hist.observe(1.0)
        hist.observe(10.0)
        hist.observe(100.0)
        assert hist.counts == [1, 1, 1, 0]

    def test_overflow_cell(self):
        hist = MetricHistogram("repro_test_hist", (1.0, 10.0))
        hist.observe(10.0001)
        hist.observe(1e9)
        assert hist.counts == [0, 0, 2]

    def test_below_first_edge(self):
        hist = MetricHistogram("repro_test_hist", (1.0, 10.0))
        hist.observe(0.0)
        hist.observe(0.5)
        assert hist.counts == [2, 0, 0]

    def test_extend_matches_observe(self):
        """Vectorized extend and scalar observe agree cell-for-cell."""
        values = [0.0, 0.001, 0.003, 0.0031, 0.5, 0.99, 1.0, 1.5]
        a = MetricHistogram("repro_test_hist", FRACTION_BUCKETS)
        b = MetricHistogram("repro_test_hist", FRACTION_BUCKETS)
        for v in values:
            a.observe(v)
        b.extend(np.array(values))
        assert a.counts == b.counts
        assert a.sum == pytest.approx(b.sum)

    def test_counts_has_one_overflow_cell(self):
        for layout in (SECONDS_BUCKETS, PAGES_BUCKETS, RATE_BUCKETS):
            hist = MetricHistogram("repro_test_hist", layout)
            assert len(hist.counts) == len(layout) + 1

    def test_non_increasing_buckets_raise(self):
        with pytest.raises(ObservabilityError):
            MetricHistogram("repro_test_hist", (1.0, 1.0))
        with pytest.raises(ObservabilityError):
            MetricHistogram("repro_test_hist", (2.0, 1.0))
        with pytest.raises(ObservabilityError):
            MetricHistogram("repro_test_hist", ())

    def test_reregistration_with_other_buckets_raises(self):
        registry = MetricsRegistry()
        registry.histogram("repro_test_hist", (1.0, 2.0))
        registry.histogram("repro_test_hist", (1.0, 2.0))  # same layout: fine
        with pytest.raises(ObservabilityError):
            registry.histogram("repro_test_hist", (1.0, 3.0))


class TestSnapshotAndMerge:
    def _sample_registry(self, scale=1.0):
        registry = MetricsRegistry()
        registry.counter("repro_test_events_total").inc(3 * scale)
        registry.gauge("repro_test_level").set(7 * scale)
        hist = registry.histogram("repro_test_hist", (1.0, 10.0))
        hist.observe(0.5 * scale)
        hist.observe(5.0)
        return registry

    def test_snapshot_is_deterministic_and_jsonable(self):
        import json

        snap = self._sample_registry().snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert list(snap) == ["counters", "gauges", "histograms"]
        assert list(snap["counters"]) == sorted(snap["counters"])

    def test_merge_adds_counters_and_cells(self):
        a = self._sample_registry().snapshot()
        b = self._sample_registry().snapshot()
        merged = merge_snapshots([a, b]).snapshot()
        assert merged["counters"]["repro_test_events_total"] == 6.0
        assert merged["histograms"]["repro_test_hist"]["counts"] == [2, 2, 0]
        assert merged["histograms"]["repro_test_hist"]["sum"] == pytest.approx(11.0)

    def test_merge_order_insensitive_for_counters_and_histograms(self):
        a = self._sample_registry(1.0).snapshot()
        b = self._sample_registry(2.0).snapshot()
        ab = merge_snapshots([a, b]).snapshot()
        ba = merge_snapshots([b, a]).snapshot()
        assert ab["counters"] == ba["counters"]
        assert ab["histograms"] == ba["histograms"]

    def test_merge_rejects_mismatched_layouts(self):
        registry = MetricsRegistry()
        registry.histogram("repro_test_hist", (1.0, 2.0))
        bad = {"histograms": {"repro_test_hist": {"buckets": [5.0], "counts": [0, 0], "sum": 0.0}}}
        with pytest.raises(ObservabilityError):
            registry.merge_snapshot(bad)


class TestPrometheusText:
    def test_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_events_total").inc(2)
        registry.gauge("repro_test_level").set(0.5)
        hist = registry.histogram("repro_test_hist", (1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(50.0)
        text = registry.to_prometheus_text()
        lines = text.splitlines()
        assert "# TYPE repro_test_events_total counter" in lines
        assert "repro_test_events_total 2" in lines
        assert "repro_test_level 0.5" in lines
        # le buckets are cumulative and end with +Inf == _count.
        assert 'repro_test_hist_bucket{le="1"} 1' in lines
        assert 'repro_test_hist_bucket{le="10"} 2' in lines
        assert 'repro_test_hist_bucket{le="+Inf"} 3' in lines
        assert "repro_test_hist_count 3" in lines
        assert "repro_test_hist_sum 55.5" in lines
        assert text.endswith("\n")

    def test_non_finite_values_use_prometheus_spellings(self):
        """``int(inf)`` raises; _fmt must special-case non-finite floats."""
        assert _fmt(float("inf")) == "+Inf"
        assert _fmt(float("-inf")) == "-Inf"
        assert _fmt(float("nan")) == "NaN"
        registry = MetricsRegistry()
        registry.gauge("repro_test_level").set(float("inf"))
        text = registry.to_prometheus_text()
        assert "repro_test_level +Inf" in text.splitlines()

    def test_large_integral_floats_stay_floats(self):
        # Past 2**53 int(value) == value can hold while int rendering
        # would change the scrape's parsed value; _fmt keeps float form.
        assert _fmt(1e18) == "1e+18"
        assert _fmt(3.0) == "3"
        assert _fmt(0.5) == "0.5"


class TestParsePrometheusText:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_events_total").inc(2)
        registry.counter("repro_test_other_total").inc(0.5)
        registry.gauge("repro_test_level").set(-1.25)
        hist = registry.histogram("repro_test_hist", (1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(50.0)
        registry.histogram("repro_test_empty", SECONDS_BUCKETS)
        return registry

    def test_golden_round_trip(self):
        registry = self._registry()
        parsed = parse_prometheus_text(registry.to_prometheus_text())
        assert parsed == registry.snapshot()

    def test_round_trip_with_non_finite_gauge(self):
        registry = MetricsRegistry()
        registry.gauge("repro_test_level").set(float("inf"))
        parsed = parse_prometheus_text(registry.to_prometheus_text())
        assert math.isinf(parsed["gauges"]["repro_test_level"])

    @pytest.mark.parametrize(
        ("page", "match"),
        [
            ("repro_x_y 1\n", "no TYPE"),
            ("# TYPE repro_x_y counter\nrepro_x_y 1", "one newline"),
            ("# TYPE repro_x_y counter\nrepro_x_y 1\n\n", "one newline"),
            ("# TYPE repro_x_y counter\n\nrepro_x_y 1\n", "blank line"),
            ("# TYPE repro_x_y widget\nrepro_x_y 1\n", "unknown metric type"),
            ("# HELP repro_x_y text\n", "malformed comment"),
            (
                "# TYPE repro_x_y counter\nrepro_x_y 1\nrepro_x_y 2\n",
                "duplicate sample",
            ),
            (
                "# TYPE repro_x_y counter\n# TYPE repro_x_y counter\n",
                "duplicate TYPE",
            ),
            (
                '# TYPE repro_x_y counter\nrepro_x_y{le="1"} 1\n',
                "outside a histogram",
            ),
            ("# TYPE repro_x_y counter\nrepro_x_y nope\n", "bad sample value"),
            ("# TYPE repro_x_y histogram\nrepro_x_y 1\n", "bare sample"),
        ],
    )
    def test_malformed_pages_raise(self, page, match):
        with pytest.raises(ObservabilityError, match=match):
            parse_prometheus_text(page)

    def _hist_page(self, bucket_lines, tail):
        lines = ["# TYPE repro_x_h histogram", *bucket_lines, *tail]
        return "\n".join(lines) + "\n"

    def test_missing_inf_bucket_raises(self):
        page = self._hist_page(
            ['repro_x_h_bucket{le="1"} 1'],
            ["repro_x_h_sum 1", "repro_x_h_count 1"],
        )
        with pytest.raises(ObservabilityError, match=r"missing the \+Inf"):
            parse_prometheus_text(page)

    def test_inf_bucket_disagreeing_with_count_raises(self):
        page = self._hist_page(
            ['repro_x_h_bucket{le="1"} 1', 'repro_x_h_bucket{le="+Inf"} 2'],
            ["repro_x_h_sum 1", "repro_x_h_count 3"],
        )
        with pytest.raises(ObservabilityError, match="!= _count"):
            parse_prometheus_text(page)

    def test_non_cumulative_buckets_raise(self):
        page = self._hist_page(
            [
                'repro_x_h_bucket{le="1"} 2',
                'repro_x_h_bucket{le="10"} 1',
                'repro_x_h_bucket{le="+Inf"} 2',
            ],
            ["repro_x_h_sum 1", "repro_x_h_count 2"],
        )
        with pytest.raises(ObservabilityError, match="cumulative"):
            parse_prometheus_text(page)

    def test_non_increasing_edges_raise(self):
        page = self._hist_page(
            [
                'repro_x_h_bucket{le="10"} 1',
                'repro_x_h_bucket{le="1"} 1',
                'repro_x_h_bucket{le="+Inf"} 1',
            ],
            ["repro_x_h_sum 1", "repro_x_h_count 1"],
        )
        with pytest.raises(ObservabilityError, match="strictly increase"):
            parse_prometheus_text(page)

    def test_finite_bucket_after_inf_raises(self):
        page = self._hist_page(
            [
                'repro_x_h_bucket{le="+Inf"} 1',
                'repro_x_h_bucket{le="1"} 1',
            ],
            ["repro_x_h_sum 1", "repro_x_h_count 1"],
        )
        with pytest.raises(ObservabilityError, match=r"after \+Inf"):
            parse_prometheus_text(page)

    def test_missing_sum_or_count_raises(self):
        page = self._hist_page(
            ['repro_x_h_bucket{le="+Inf"} 0'], ["repro_x_h_sum 0"]
        )
        with pytest.raises(ObservabilityError, match="_sum or _count"):
            parse_prometheus_text(page)


class TestConcurrentIngestMerge:
    """Satellite: merge_snapshot equals serial totals under threaded ingest.

    The registries themselves are filled from worker threads (the service
    scrapes /metrics from an asyncio thread while the driver ingests on
    an executor thread); merged snapshots must equal a serially built
    registry regardless of thread interleaving or merge order.
    """

    WORKERS = 4
    PER_WORKER = 500

    def _fill(self, registry, worker):
        for i in range(self.PER_WORKER):
            registry.counter("repro_test_events_total").inc()
            registry.histogram("repro_test_hist", (1.0, 10.0)).observe(
                float(worker * self.PER_WORKER + i) % 20.0
            )

    def test_threaded_ingest_merges_to_serial_totals(self):
        registries = [MetricsRegistry() for _ in range(self.WORKERS)]
        threads = [
            threading.Thread(target=self._fill, args=(registry, worker))
            for worker, registry in enumerate(registries)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        serial = MetricsRegistry()
        for worker in range(self.WORKERS):
            self._fill(serial, worker)

        merged = merge_snapshots([r.snapshot() for r in registries]).snapshot()
        assert merged["counters"] == serial.snapshot()["counters"]
        assert merged["histograms"] == serial.snapshot()["histograms"]
        assert (
            merged["counters"]["repro_test_events_total"]
            == self.WORKERS * self.PER_WORKER
        )

    def test_histogram_merge_is_order_independent(self):
        registries = [MetricsRegistry() for _ in range(self.WORKERS)]
        for worker, registry in enumerate(registries):
            self._fill(registry, worker)
        snaps = [r.snapshot() for r in registries]
        forward = merge_snapshots(snaps).snapshot()
        backward = merge_snapshots(list(reversed(snaps))).snapshot()
        assert forward["histograms"] == backward["histograms"]
        assert forward["counters"] == backward["counters"]

    def test_concurrent_scrape_of_shared_registry_is_coherent(self):
        """A scrape racing ingest parses cleanly (GIL-atomic snapshots)."""
        registry = MetricsRegistry()
        stop = threading.Event()
        errors: list[Exception] = []

        def ingest():
            i = 0
            while not stop.is_set():
                registry.counter("repro_test_events_total").inc()
                registry.histogram(
                    "repro_test_hist", (1.0, 10.0)
                ).observe(float(i % 20))
                i += 1

        def scrape():
            try:
                for _ in range(50):
                    parse_prometheus_text(registry.to_prometheus_text())
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        registry.counter("repro_test_events_total").inc()
        registry.histogram("repro_test_hist", (1.0, 10.0)).observe(0.5)
        writer = threading.Thread(target=ingest)
        reader = threading.Thread(target=scrape)
        writer.start()
        reader.start()
        reader.join()
        stop.set()
        writer.join()
        assert errors == []
