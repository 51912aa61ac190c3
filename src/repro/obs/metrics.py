"""Counters, gauges and exact-quantile latency recorders.

A :class:`MetricsRegistry` is a flat name → instrument map:

* :class:`Counter` — a monotonically increasing integer total;
* :class:`Gauge` — a last-write-wins scalar;
* :class:`LatencyRecorder` — keeps the **raw samples** and computes
  exact quantiles (p50/p90/p99/p99.9) with ``numpy.quantile``'s
  linear interpolation, so percentile rows in reports are not
  sketch approximations.

Keeping every sample is right for this repository's scale (thousands
of utterances per fleet run). The registry draws no randomness, so
enabling metrics never perturbs experiment RNG streams — it obeys the
same bitwise-inertness contract as the tracer.

Like tracing, metrics are ambient: instrumented code consults
:func:`current_metrics` (usually ``None``) and :func:`activate`
installs a registry for a ``with`` block.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "LatencyRecorder",
    "MetricsRegistry",
    "activate",
    "current_metrics",
    "metrics_active",
]

#: Quantiles every latency summary reports, in order.
SUMMARY_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.99, 0.999)


class Counter:
    """A monotonically increasing integer total."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def as_dict(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-write-wins scalar."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def as_dict(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}


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

    def observe_many(self, values: Sequence[float]) -> None:
        for value in np.asarray(values, dtype=float).ravel():
            self.observe(float(value))

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

    def as_dict(self) -> dict[str, Any]:
        row: dict[str, Any] = {"type": "latency"}
        if self.count:
            row.update(self.summary())
        else:
            row["count"] = 0
        return row


class MetricsRegistry:
    """Flat name → instrument map with get-or-create accessors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | LatencyRecorder] = {}

    def _get(self, name: str, kind: type) -> Any:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = kind(name)
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def latency(self, name: str) -> LatencyRecorder:
        return self._get(name, LatencyRecorder)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def as_dict(self) -> dict[str, dict[str, Any]]:
        with self._lock:
            items = list(self._instruments.items())
        return {name: inst.as_dict() for name, inst in sorted(items)}

    def write_json(self, path: str | Path) -> None:
        payload = {"schema_version": 1, "metrics": self.as_dict()}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")


# -- the ambient hook ---------------------------------------------

_ACTIVE: MetricsRegistry | None = None


def current_metrics() -> MetricsRegistry | None:
    """The installed registry, or ``None`` (the zero-cost case)."""
    return _ACTIVE


def metrics_active() -> bool:
    return _ACTIVE is not None


@contextmanager
def activate(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as ambient for a ``with`` block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    try:
        yield registry
    finally:
        _ACTIVE = previous
