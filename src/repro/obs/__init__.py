"""Unified observability: spans and the run reporter.

Every execution layer of this repository — the declarative trial
pipeline, the experiment engine's process fan-out, the streaming
fleet kernel and the process-sharded fleet driver — carries dormant
instrumentation hooks that wake up only when an observer is
installed:

* :mod:`repro.obs.trace` — structured span tracing. A
  :class:`~repro.obs.trace.Tracer` collects nested spans (monotonic
  timestamps, per-trial/per-stream/per-shard attributes) and writes
  them as JSONL; :func:`~repro.obs.trace.current_tracer` is the
  ambient hook the instrumented layers consult.
* :mod:`repro.obs.report` — the reporter behind
  ``python -m repro.obs report <trace.jsonl>``: a text
  flamegraph-style stage tree, latency percentiles and histogram,
  per-shard and per-stream breakdowns. ``--json PATH`` writes the
  run's one machine-readable summary.
* :mod:`repro.obs.metrics` — :class:`~repro.obs.metrics.LatencyRecorder`,
  the exact-quantile calculator (p50/p90/p99/p99.9 from the raw
  samples) behind the report's and the S1 table's latency rows.

The trace is the one telemetry channel: every count, duration and
defense decision a run reports is a span or a span attribute in it.

The contract every hook obeys, enforced by test and by CI:

* **zero-cost when disabled** — with no tracer installed the hot
  paths take no timestamps and allocate nothing (a single ambient
  ``None`` check per run);
* **bitwise-inert when enabled** — instrumentation only ever *reads*
  the computation (wall timestamps, deterministic attributes). It
  never draws from a random generator, never reorders work and never
  touches a sample, so every golden table, digest property and bench
  gate holds with tracing on.
"""

from repro.obs.metrics import LatencyRecorder
from repro.obs.trace import (
    Span,
    Tracer,
    current_tracer,
    maybe_span,
    read_trace,
    tracing_active,
)

__all__ = [
    "LatencyRecorder",
    "Span",
    "Tracer",
    "current_tracer",
    "maybe_span",
    "read_trace",
    "tracing_active",
]
