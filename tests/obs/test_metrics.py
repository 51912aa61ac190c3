"""The exact-quantile latency recorder.

The exact-quantile contract is checked by property: whatever samples
a :class:`~repro.obs.metrics.LatencyRecorder` sees, its quantiles are
``numpy.quantile`` of the raw samples — no sketch error.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import LatencyRecorder

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
        for value in samples:
            recorder.observe(value)
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

