"""S1 — streaming guard: online/offline parity, latency, fleet.

The paper's defense runs *online*, vetoing commands as audio arrives;
this experiment measures the streaming deployment
(:mod:`repro.stream`) against the offline reference:

* **Parity probes** — one attack and one genuine recording,
  synthesised through the trial pipeline in the chosen environment,
  streamed through a chunked :class:`~repro.stream.guard.StreamingGuard`
  at several chunk sizes. The ``bitwise`` column states whether the
  online verdict, score, features and recognition distance equal the
  offline :class:`~repro.defense.guard.GuardedVoiceAssistant` exactly
  — the subsystem's core guarantee, for every registered scenario.
* **Fleet rows** — a :class:`~repro.stream.fleet.FleetSimulator` run:
  concurrent device streams with online VAD segmentation, reporting
  utterance dispositions and the *stream-time* detection latency
  (audio time between an utterance's end and the verdict). Stream
  time, unlike wall clock, is deterministic, which keeps this table
  golden-stable; wall-clock throughput lives in
  ``benchmarks/bench_stream.py`` and ``BENCH_stream.json``.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from repro.defense.dataset import DatasetConfig, build_dataset
from repro.defense.detector import InaudibleVoiceDetector
from repro.defense.guard import GuardedOutcome, GuardedVoiceAssistant
from repro.sim.engine import ExperimentEngine
from repro.sim.results import ResultTable
from repro.sim.spec import get_scenario
from repro.stream.fleet import (
    FleetConfig,
    FleetSimulator,
    synthesize_utterances,
)
from repro.stream.guard import StreamingGuard


def train_detector(
    scenario: str, seed: int, n_trials: int
) -> InaudibleVoiceDetector:
    """A detector fitted on a small scenario-matched dataset.

    Shared with ``benchmarks/bench_stream.py`` so the benchmark's
    guard is the experiment's guard.
    """
    config = DatasetConfig(
        commands=("ok_google", "alexa"),
        distances_m=(1.0, 2.0),
        n_trials=n_trials,
        attacker_kind="single_full",
        scenario=scenario,
        seed=seed,
    )
    return InaudibleVoiceDetector().fit(build_dataset(config))


def _outcomes_bitwise(
    online: GuardedOutcome, offline: GuardedOutcome
) -> bool:
    """Exact equality of everything a verdict carries."""
    if online.executed_command != offline.executed_command:
        return False
    if online.vetoed != offline.vetoed:
        return False
    if (
        online.recognition.accepted != offline.recognition.accepted
        or online.recognition.command != offline.recognition.command
        or online.recognition.distance != offline.recognition.distance
    ):
        return False
    if (online.detection is None) != (offline.detection is None):
        return False
    if online.detection is not None:
        if online.detection.score != offline.detection.score:
            return False
        if online.detection.is_attack != offline.detection.is_attack:
            return False
        if not np.array_equal(
            online.detection.features, offline.detection.features
        ):
            return False
    return True


def chunked_parity_probes(
    scenario: str,
    seed: int,
    chunk_ms: tuple[int, ...],
    detector: InaudibleVoiceDetector,
) -> list[tuple[str, int, GuardedOutcome, bool]]:
    """Stream both probes at each chunk size against the offline guard.

    Builds one attack and one genuine probe through the trial
    pipeline synthesis the fleet uses, then returns
    ``(kind, chunk_ms, online_outcome, bitwise)`` per case. This is
    the *single* statement of the parity probe — the S1 table and the
    ``bench_stream.py`` CI gate both walk it, so they can never
    desynchronise.
    """
    probe_rngs = [
        np.random.default_rng(child)
        for child in np.random.SeedSequence(seed + 1).spawn(2)
    ]
    recordings, recognizer = synthesize_utterances(
        scenario,
        "ok_google",
        None,
        probe_rngs,
        np.array([True, False]),
        voice_seed=seed,
    )
    offline = GuardedVoiceAssistant(recognizer, detector)
    cases = []
    for kind, recording in zip(("attack", "genuine"), recordings):
        reference = offline.process(recording)
        for ms in chunk_ms:
            chunk = max(
                1, int(round(ms / 1000.0 * recording.sample_rate))
            )
            guard = StreamingGuard(
                recognizer,
                detector,
                recording.sample_rate,
                unit=recording.unit,
                gated=False,
            )
            online = guard.process_recording(recording, chunk)
            cases.append(
                (kind, ms, online, _outcomes_bitwise(online, reference))
            )
    return cases


def _describe(outcome: GuardedOutcome) -> tuple[str, object]:
    """(disposition, score) cells for one verdict."""
    if outcome.executed_command is not None:
        label = f"execute {outcome.executed_command}"
    elif outcome.vetoed:
        label = "veto"
    else:
        label = "reject"
    score = (
        "" if outcome.detection is None else outcome.detection.score
    )
    return label, score


def run(
    quick: bool = True,
    seed: int = 0,
    jobs: int = 1,
    engine: ExperimentEngine | None = None,
    scenario: str = "free_field",
    shards: int = 1,
    streams: int | None = None,
) -> ResultTable:
    """Parity, dispositions and stream-time latency of the online guard.

    ``shards`` splits the fleet into that many shards, which run on
    ``engine`` (else on a ``jobs``-process engine), so ``jobs=1`` runs
    every shard inline; the fleet runs
    :class:`~repro.stream.fleet.FleetConfig`'s default kernel.
    ``streams`` overrides the fleet size. The rendered table —
    dispositions, latencies and the fleet digest row — is
    byte-identical for every shard count at any fleet size (the CI
    shard-determinism job diffs ``--shards 1/2/4`` stdout); wall-clock
    figures (streams/core/second, per-shard balance) go to stderr,
    like the CLI's timing lines.
    """
    spec = get_scenario(scenario)
    chunk_ms = (10, 50, 250) if quick else (5, 10, 50, 250)
    n_streams = (8 if quick else 32) if streams is None else streams
    table = ResultTable(
        title=(
            "S1: streaming guard — chunked online vs offline"
            + spec.title_suffix()
        ),
        columns=[
            "probe",
            "chunk ms",
            "outcome",
            "score",
            "bitwise",
            "latency ms",
        ],
    )
    detector = train_detector(scenario, seed, n_trials=2 if quick else 4)
    for kind, ms, online, bitwise in chunked_parity_probes(
        scenario, seed, chunk_ms, detector
    ):
        label, score = _describe(online)
        table.add_row(
            kind,
            ms,
            label,
            score,
            "yes" if bitwise else "no",
            "",
        )
    # The fleet: online segmentation end to end. The shard count
    # never changes results (pinned by the determinism suites), so
    # the table is byte-stable for every --shards value.
    fleet_config = FleetConfig(
        scenario=scenario,
        n_streams=n_streams,
        utterances_per_stream=1,
        attack_fraction=0.5,
        seed=seed + 2,
        shards=shards,
    )
    with ExperimentEngine.scoped(engine, jobs) as eng:
        report = FleetSimulator(detector, fleet_config).run(eng)
        cores = min(shards, eng.jobs, os.cpu_count() or 1)
    walls = report.shard_wall_seconds
    balance = min(walls) / max(walls) if max(walls) > 0 else 1.0
    print(
        f"[S1] fleet shards={shards}: "
        f"{report.realtime_factor:.0f} sustained streams, "
        f"{report.realtime_factor / cores:.0f} streams/core/"
        f"second, shard balance {balance:.2f}",
        file=sys.stderr,
    )
    # Exact-quantile latency stats from the raw per-utterance
    # samples (repro.obs.metrics) — percentiles, not a sketch.
    stats = report.latency_stats()
    mean_latency_ms = 1000.0 * stats.mean if stats.count else 0.0
    p50_latency_ms = (
        1000.0 * stats.quantile(0.5) if stats.count else 0.0
    )
    p99_latency_ms = (
        1000.0 * stats.quantile(0.99) if stats.count else 0.0
    )
    max_latency_ms = 1000.0 * stats.max if stats.count else 0.0
    table.add_row(
        f"fleet ({report.config.n_streams} streams)",
        int(round(report.config.chunk_s * 1000)),
        (
            f"{report.n_vetoed} veto / {report.n_executed} execute"
            f" / {report.n_rejected} reject"
        ),
        "",
        "",
        mean_latency_ms,
    )
    table.add_row(
        "fleet p50 latency",
        int(round(report.config.chunk_s * 1000)),
        f"{stats.count} utterance samples",
        "",
        "",
        p50_latency_ms,
    )
    table.add_row(
        "fleet p99 latency",
        int(round(report.config.chunk_s * 1000)),
        f"{stats.count} utterance samples",
        "",
        "",
        p99_latency_ms,
    )
    table.add_row(
        "fleet worst-case latency",
        int(round(report.config.chunk_s * 1000)),
        f"{report.n_utterances} utterances segmented",
        "",
        "",
        max_latency_ms,
    )
    # The whole fleet's deterministic fingerprint: identical for
    # every --shards/--jobs value, which is exactly what the CI
    # shard-determinism job diffs byte-for-byte.
    table.add_row(
        "shard digest",
        "",
        report.digest_hex()[:16],
        "",
        "",
        "",
    )
    return table
