"""Metrics registry: instruments, bucket semantics, and exports."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    escape_help,
    escape_label_value,
    get_metrics,
    set_metrics,
)


class TestCounter:
    def test_increments(self):
        counter = MetricsRegistry().counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_decrease(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValidationError, match="cannot decrease"):
            counter.inc(-1)

    def test_same_name_same_instrument(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.counter("x").inc()
        assert registry.counter("x").value == 2.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10.0)
        gauge.inc(5.0)
        gauge.dec(2.0)
        assert gauge.value == 13.0


class TestHistogram:
    def test_bucket_edges_are_inclusive(self):
        h = Histogram("h", buckets=(1.0, 2.0, 5.0))
        h.observe(1.0)  # == first bound -> first bucket (le semantics)
        h.observe(1.0001)  # just above -> second bucket
        h.observe(5.0)  # == last bound -> last finite bucket
        h.observe(7.0)  # above all bounds -> +Inf bucket
        assert h.counts == [1, 1, 1, 1]
        assert h.cumulative_counts() == [1, 2, 3, 4]
        assert h.count == 4
        assert h.sum == pytest.approx(14.0001)

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValidationError, match="at least one"):
            Histogram("h", buckets=())

    def test_snapshot_shape(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        h.observe(0.5)
        snap = h.snapshot()
        assert snap["type"] == "histogram"
        assert snap["buckets"] == [1.0, 2.0]
        assert snap["counts"] == [1, 0, 0]
        assert snap["count"] == 1


class TestHistogramBulkObserve:
    BUCKETS = (0.01, 0.1, 1.0, 10.0)

    def _pair(self):
        """One registry fed bulk calls, one fed single calls."""
        return [
            (registry, registry.histogram("h", buckets=self.BUCKETS))
            for registry in (MetricsRegistry(), MetricsRegistry())
        ]

    # Values on a dyadic grid (multiples of 1/64, far below 2**53) keep
    # every product and partial sum exact, so the one rounding of
    # ``value * count`` and the ``count`` roundings of repeated calls
    # must agree to the bit — and so must every export.
    @given(
        st.lists(
            st.tuples(st.integers(0, 64 * 20), st.integers(1, 40)),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_one_call_equals_n_single_calls(self, observations):
        (bulk_registry, bulk), (single_registry, single) = self._pair()
        for numerator, count in observations:
            value = numerator / 64
            bulk.observe(value, count=count)
            for _ in range(count):
                single.observe(value)
        assert bulk.counts == single.counts
        assert bulk.count == single.count
        assert bulk.sum == single.sum
        assert bulk_registry.to_json() == single_registry.to_json()
        assert bulk_registry.to_prometheus() == single_registry.to_prometheus()

    @given(st.floats(0.0, 100.0), st.integers(1, 500))
    @settings(max_examples=60, deadline=None)
    def test_buckets_and_count_match_for_any_value(self, value, count):
        (_, bulk), (_, single) = self._pair()
        bulk.observe(value, count=count)
        for _ in range(count):
            single.observe(value)
        assert bulk.counts == single.counts
        assert bulk.count == single.count == count
        assert bulk.summary() == single.summary()
        assert bulk.sum == pytest.approx(single.sum, rel=1e-12)

    def test_rejects_non_positive_count(self):
        h = Histogram("h", buckets=(1.0,))
        with pytest.raises(ValidationError, match=">= 1"):
            h.observe(0.5, count=0)
        assert h.count == 0


class TestHistogramQuantiles:
    def test_interpolates_within_bucket(self):
        h = Histogram("h", buckets=(10.0,))
        for _ in range(4):
            h.observe(5.0)
        # All mass in [0, 10]: rank interpolates linearly across it.
        assert h.quantile(0.5) == pytest.approx(5.0)
        assert h.quantile(1.0) == pytest.approx(10.0)

    def test_uses_previous_bound_as_lower_edge(self):
        h = Histogram("h", buckets=(10.0, 20.0))
        h.observe(5.0)
        h.observe(15.0)
        h.observe(15.0)
        h.observe(15.0)
        # rank(0.5) = 2 -> one observation into the (10, 20] bucket.
        assert h.quantile(0.5) == pytest.approx(10.0 + 10.0 / 3.0)

    def test_saturates_at_last_finite_bound(self):
        h = Histogram("h", buckets=(10.0,))
        h.observe(500.0)  # lands in +Inf; estimate can't exceed 10
        assert h.quantile(0.99) == 10.0

    def test_empty_histogram_has_no_quantiles(self):
        h = Histogram("h", buckets=(1.0,))
        assert h.quantile(0.5) is None
        assert h.summary() == {"p50": None, "p90": None, "p99": None}

    def test_rejects_out_of_range_q(self):
        h = Histogram("h", buckets=(1.0,))
        with pytest.raises(ValidationError):
            h.quantile(1.5)
        with pytest.raises(ValidationError):
            h.quantile(-0.1)

    def test_summary_is_monotone_and_in_snapshot(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 2.0, 3.0, 20.0, 50.0, 90.0):
            h.observe(value)
        snap = h.snapshot()
        assert snap["p50"] <= snap["p90"] <= snap["p99"]
        assert snap["p50"] == h.quantile(0.5)


class TestRegistry:
    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("metric.x")
        with pytest.raises(ValidationError, match="is a counter"):
            registry.gauge("metric.x")

    def test_snapshot_and_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("a.total").inc(3)
        registry.gauge("b.level").set(0.5)
        registry.histogram("c.seconds", buckets=(1.0,)).observe(0.2)
        decoded = json.loads(registry.to_json())
        assert decoded["a.total"] == {"type": "counter", "value": 3.0}
        assert decoded["b.level"]["value"] == 0.5
        assert decoded["c.seconds"]["counts"] == [1, 0]
        assert registry.names() == ["a.total", "b.level", "c.seconds"]

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.reset()
        assert "a" not in registry
        assert registry.snapshot() == {}

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("engine.steady_states_total").inc(2)
        registry.gauge("engine.bufferpool.hit_rate").set(0.75)
        h = registry.histogram("predict.latency_ms", buckets=(10.0, 100.0))
        h.observe(5.0)
        h.observe(250.0)
        text = registry.to_prometheus()
        assert "# TYPE engine_steady_states_total counter" in text
        assert "engine_steady_states_total 2" in text
        assert "engine_bufferpool_hit_rate 0.75" in text
        assert 'predict_latency_ms_bucket{le="10"} 1' in text
        assert 'predict_latency_ms_bucket{le="+Inf"} 2' in text
        assert "predict_latency_ms_sum 255" in text
        assert "predict_latency_ms_count 2" in text
        assert text.endswith("\n")


class TestPrometheusHardening:
    def test_escape_help_backslash_and_newline(self):
        assert escape_help("a\\b\nc") == "a\\\\b\\nc"
        # Quotes are legal in help text and stay verbatim.
        assert escape_help('say "hi"') == 'say "hi"'

    def test_escape_label_value_quotes_too(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_help_line_is_escaped_and_precedes_type(self):
        registry = MetricsRegistry()
        registry.counter(
            "tricky.total", help='count of "tricky"\nthings \\ stuff'
        ).inc()
        text = registry.to_prometheus()
        lines = text.splitlines()
        assert lines[0] == (
            '# HELP tricky_total count of "tricky"\\nthings \\\\ stuff'
        )
        assert lines[1] == "# TYPE tricky_total counter"
        assert lines[2] == "tricky_total 1"
        # The escaped newline must not split the exposition line.
        assert len(lines) == 3

    def test_help_omitted_when_empty(self):
        registry = MetricsRegistry()
        registry.gauge("plain.level").set(1.0)
        assert "# HELP" not in registry.to_prometheus()

    def test_dotted_and_odd_names_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("engine.fit-cache.hits total").inc()
        text = registry.to_prometheus()
        assert "# TYPE engine_fit_cache_hits_total counter" in text
        assert "engine_fit_cache_hits_total 1" in text

    def test_histogram_help_type_then_series(self):
        registry = MetricsRegistry()
        h = registry.histogram(
            "lat.ms", buckets=(1.0,), help="request latency"
        )
        h.observe(0.5)
        lines = registry.to_prometheus().splitlines()
        assert lines[0] == "# HELP lat_ms request latency"
        assert lines[1] == "# TYPE lat_ms histogram"
        assert lines[2] == 'lat_ms_bucket{le="1"} 1'
        assert lines[3] == 'lat_ms_bucket{le="+Inf"} 1'
        assert lines[4].startswith("lat_ms_sum ")
        assert lines[5] == "lat_ms_count 1"

    def test_histogram_quantiles_follow_count(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat.ms", buckets=(10.0,))
        for _ in range(4):
            h.observe(5.0)
        lines = registry.to_prometheus().splitlines()
        count_at = lines.index("lat_ms_count 4")
        assert lines[count_at + 1] == 'lat_ms{quantile="0.5"} 5'
        assert lines[count_at + 2] == 'lat_ms{quantile="0.9"} 9'
        assert lines[count_at + 3] == 'lat_ms{quantile="0.99"} 9.9'

    def test_empty_histogram_emits_no_quantiles(self):
        registry = MetricsRegistry()
        registry.histogram("lat.ms", buckets=(10.0,))
        assert "quantile" not in registry.to_prometheus()


class TestGlobalRegistry:
    def test_set_and_restore(self):
        fresh = MetricsRegistry()
        previous = set_metrics(fresh)
        try:
            get_metrics().counter("only.here").inc()
            assert "only.here" in fresh
            assert "only.here" not in previous
        finally:
            set_metrics(previous)
        assert get_metrics() is previous
