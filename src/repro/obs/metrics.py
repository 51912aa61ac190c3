"""Exact-quantile latency recorders.

A :class:`LatencyRecorder` keeps the **raw samples** and computes
exact quantiles (p50/p90/p99/p99.9) with ``numpy.quantile``'s linear
interpolation, so percentile rows in reports are not sketch
approximations. Keeping every sample is right for this repository's
scale (thousands of utterances per fleet run).

:meth:`~repro.stream.fleet.FleetReport.latency_stats` (the S1 latency
rows) and :mod:`repro.obs.report` (the trace's utterance latencies)
use it. It is a calculator, not a collector: the run's telemetry
lives in the trace alone.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SUMMARY_QUANTILES", "LatencyRecorder"]

#: Quantiles every latency summary reports, in order.
SUMMARY_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.99, 0.999)


class LatencyRecorder:
    """Raw-sample latency distribution with exact quantiles: every
    observation is kept, and :meth:`quantile` is ``numpy.quantile`` of
    them."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self._samples: list[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self._samples.append(value)

    @property
    def samples(self) -> list[float]:
        """Every observed sample, in observation order."""
        return list(self._samples)

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError(f"recorder {self.name!r} has no samples")
        return self.total / self.count

    @property
    def max(self) -> float:
        if not self._samples:
            raise ValueError(f"recorder {self.name!r} has no samples")
        return max(self._samples)

    def quantile(self, q: float) -> float:
        """The q-quantile (linear interpolation, ``numpy.quantile``)."""
        if not self._samples:
            raise ValueError(f"recorder {self.name!r} has no samples")
        return float(np.quantile(np.asarray(self._samples), q))

    def summary(self) -> dict[str, float]:
        """count/mean/max plus the standard p50/p90/p99/p99.9 set."""
        out: dict[str, float] = {
            "count": self.count,
            "mean": self.mean,
            "max": self.max,
        }
        for q in SUMMARY_QUANTILES:
            label = f"p{q * 100:g}"
            out[label] = self.quantile(q)
        return out
