"""The metrics registry: counters, gauges, exact-quantile recorders.

The exact-quantile contract is checked by property: whatever samples
a :class:`~repro.obs.metrics.LatencyRecorder` sees, its quantiles are
``numpy.quantile`` of the raw samples — no sketch error.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    Counter,
    Gauge,
    LatencyRecorder,
    MetricsRegistry,
    activate,
    current_metrics,
    metrics_active,
)

samples_lists = st.lists(
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    min_size=1,
    max_size=200,
)

quantiles = st.floats(min_value=0.0, max_value=1.0)


class TestExactQuantiles:
    @given(samples=samples_lists, q=quantiles)
    @settings(max_examples=100, deadline=None)
    def test_matches_numpy_quantile_exactly(self, samples, q):
        """Exact mode is numpy.quantile of the raw samples, bit for
        bit — the recorder stores samples, it does not sketch them."""
        recorder = LatencyRecorder("t")
        for value in samples:
            recorder.observe(value)
        assert recorder.quantile(q) == float(
            np.quantile(np.asarray(samples), q)
        )

    @given(samples=samples_lists)
    @settings(max_examples=50, deadline=None)
    def test_summary_carries_the_standard_percentiles(self, samples):
        recorder = LatencyRecorder("t")
        recorder.observe_many(samples)
        summary = recorder.summary()
        assert set(summary) == {
            "count", "mean", "max", "p50", "p90", "p99", "p99.9",
        }
        assert summary["count"] == len(samples)
        assert summary["max"] == max(samples)
        assert summary["p50"] == float(np.quantile(samples, 0.5))
        assert summary["p99.9"] == float(np.quantile(samples, 0.999))

    def test_empty_recorder_refuses_statistics(self):
        recorder = LatencyRecorder("t")
        for access in (
            lambda: recorder.mean,
            lambda: recorder.max,
            lambda: recorder.quantile(0.5),
        ):
            with pytest.raises(ValueError):
                access()


class TestCountersAndGauges:
    def test_counter_accumulates_and_never_decreases(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_is_last_write_wins(self):
        gauge = Gauge("g")
        assert gauge.value is None
        gauge.set(3)
        gauge.set(7.5)
        assert gauge.value == 7.5


class TestRegistry:
    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.latency("b") is registry.latency("b")

    def test_kind_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")

    def test_as_dict_and_json_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("runs").inc(2)
        registry.gauge("load").set(0.5)
        registry.latency("lat").observe_many([1.0, 2.0, 3.0])
        path = tmp_path / "metrics.json"
        registry.write_json(path)
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 1
        metrics = payload["metrics"]
        assert metrics["runs"] == {"type": "counter", "value": 2}
        assert metrics["load"] == {"type": "gauge", "value": 0.5}
        assert metrics["lat"]["p50"] == 2.0

    def test_empty_latency_serializes_without_stats(self):
        registry = MetricsRegistry()
        registry.latency("lat")
        assert registry.as_dict()["lat"]["count"] == 0


class TestAmbientHook:
    def test_inactive_by_default_and_scoped_by_activate(self):
        assert current_metrics() is None
        assert not metrics_active()
        registry = MetricsRegistry()
        with activate(registry):
            assert current_metrics() is registry
            assert metrics_active()
        assert current_metrics() is None
