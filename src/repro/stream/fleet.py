"""Concurrent device-fleet simulation over the streaming guard.

The ROADMAP's north star is a service in front of *millions* of
devices; the per-request fast path must therefore be independent and
conflict-free (the Harmonia lesson: near-linear scaling comes from
state that multiplexes without coordination). The streaming guard has
exactly that shape — all per-stream state lives in the stream's own
rows of its group's ring, segmenter and accumulators; the recogniser
and detector are immutable after enrollment/fit and shared read-only.

:class:`FleetSimulator` exercises it: ``n_streams`` simulated devices,
each an independent audio timeline (ambient lead-in, utterances,
ambient gaps) drawn block by block (:class:`TimelineSource`) and
pushed through lockstep stream groups
(:func:`~repro.stream.kernel.drive_stream_group`). The utterance
recordings are synthesised through the shared
:class:`~repro.sim.pipeline.TrialPipeline` — one transmission per
class, every stream's per-utterance variation riding the per-trial
stages — with per-stream generators spawned from one
:class:`numpy.random.SeedSequence`, so the whole fleet is a pure
function of its config.

The fleet's one parallelism is ``shards``, borrowing the NSO
concurrency-model playbook (SNIPPETS.md §1) the way Harmonia
partitions replicated reads:

* **Independent shards.** :func:`plan_shards` partitions the streams
  into :class:`ShardTask` recipes; :func:`run_shard` walks its
  partition one block of ``batch_streams`` streams at a time,
  synthesising the block's recordings (:func:`synthesize_utterances`,
  with the emissions, the enrolled device and the trial contexts
  cached per process through :mod:`repro.sim.engine`), driving the
  block (:func:`drive_streams`) and dropping its recordings. The
  shard's working set is one block's, whatever the fleet's size: a
  device never holds its whole audio history, and neither does the
  fleet. The shards cross the
  repository's one process boundary,
  :meth:`~repro.sim.engine.ExperimentEngine.map`: one shard runs
  inline, more run one per process, and under a tracer their spans
  come home through the same map. Nothing coordinates on the hot
  path.
* **Merging.** :class:`ShardAccumulator` folds shard results in,
  in any order, rejecting a duplicate or missing stream.
* **Determinism.** All randomness is laid out by
  :func:`fleet_seed_plan` before any scheduling, and each stream is a
  pure function of its own seed sequence and utterance slots, so
  verdicts, boundaries and stream-time latencies are bitwise
  identical for every ``batch_streams`` and ``shards`` value and for
  any partition (a hypothesis property and the CI shard-determinism
  job pin this).

Wall-clock throughput is reported separately:
:attr:`FleetReport.wall_seconds` is the slowest shard's streaming
wall clock (the sum of its blocks' streaming windows), and
:attr:`FleetReport.shard_wall_seconds` keeps every shard's, so load
imbalance is visible. ``benchmarks/bench_stream.py``
records it in ``BENCH_stream.json``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.attack.attacker import SingleSpeakerAttacker
from repro.attack.baselines import AudiblePlaybackAttacker
from repro.defense.dataset import GENUINE_REFERENCE_SPL
from repro.defense.detector import InaudibleVoiceDetector
from repro.dsp.signals import Signal
from repro.errors import StreamError
from repro.hardware.devices import horn_tweeter
from repro.obs.metrics import LatencyRecorder
from repro.obs.trace import maybe_span
from repro.sim.cache import stable_key
from repro.sim.engine import (
    EmissionSpec,
    ExperimentEngine,
    cached_voice,
    partition_evenly,
    process_cache,
)
from repro.sim.pipeline import build_pipeline, level_stage
from repro.sim.spec import RIG_POSITION, get_scenario
from repro.speech.recognizer import KeywordRecognizer
from repro.stream.segmenter import SegmenterConfig

if TYPE_CHECKING:  # the kernel imports this module
    from repro.stream.kernel import UtteranceOutcome


@dataclass(frozen=True)
class FleetConfig:
    """Recipe for one fleet run (a pure function of this config).

    Attributes
    ----------
    scenario:
        Registered environment the devices record in.
    n_streams:
        Concurrent simulated devices.
    utterances_per_stream:
        Utterances on each device's timeline.
    attack_fraction:
        Probability that an utterance is an inaudible-command attack
        (drawn deterministically from the master seed).
    command:
        Corpus command every utterance carries.
    distance_m:
        Source-to-device distance; ``None`` takes the scenario's
        default.
    chunk_s:
        Push granularity — the simulated driver's buffer size.
    lead_in_s, gap_s:
        Ambient-only audio before the first utterance and after each
        one. The lead-in seeds the segmenter's noise floor; the gap
        must exceed its close horizon or utterances merge.
    background_ratio:
        Inter-utterance background RMS as a fraction of the stream's
        mean utterance RMS. The default approximates the recordings'
        own ambient/self-noise floor (roughly 20 dB below
        conversational speech), which matters beyond realism: the
        recogniser's cepstral mean normalisation is computed over the
        segmented utterance, so background much *quieter* than the
        in-recording floor skews the cepstral mean and degrades DTW
        distances.
    seed:
        Master seed for the whole fleet.
    workers:
        Always 1; any other value is rejected. The fleet's parallelism
        is ``shards``. Kept only because ``perfbench/`` constructs
        configs with ``workers=1``; it goes together with
        ``vectorized`` when that benchmark is next revised.
    shards:
        The fleet's parallelism: the streams split into this many
        shards, run inline when there is one and otherwise on a
        process pool of up to one process per core. Results are bitwise
        identical for every value (the shard determinism suite and CI
        job pin it).
    vectorized:
        ``False`` drives every stream in a group of its own instead of
        ``batch_streams``-wide groups. Results are bitwise identical
        either way. Kept only because ``perfbench/`` constructs
        configs with it; it goes with ``workers`` when that benchmark
        is next revised.
    batch_streams:
        Streams per block: a shard synthesises, streams and drops
        this many streams' recordings at a time, and drives them as
        one lockstep group (``vectorized`` mode). Any value produces
        the identical digest; it trades batched-op width against
        working-set memory.
    """

    scenario: str = "free_field"
    n_streams: int = 8
    utterances_per_stream: int = 1
    attack_fraction: float = 0.5
    command: str = "ok_google"
    distance_m: float | None = None
    chunk_s: float = 0.05
    lead_in_s: float = 0.4
    gap_s: float = 0.5
    background_ratio: float = 0.1
    seed: int = 0
    workers: int = 1
    shards: int = 1
    vectorized: bool = True
    batch_streams: int = 64

    def __post_init__(self) -> None:
        if self.n_streams < 1:
            raise StreamError(
                f"n_streams must be >= 1, got {self.n_streams}"
            )
        if self.utterances_per_stream < 1:
            raise StreamError(
                "utterances_per_stream must be >= 1, got "
                f"{self.utterances_per_stream}"
            )
        if not 0.0 <= self.attack_fraction <= 1.0:
            raise StreamError(
                "attack_fraction must be in [0, 1], got "
                f"{self.attack_fraction}"
            )
        if self.chunk_s <= 0:
            raise StreamError(
                f"chunk_s must be positive, got {self.chunk_s}"
            )
        if self.lead_in_s < 0 or self.gap_s < 0:
            raise StreamError("lead_in_s and gap_s must be >= 0")
        if not 0 < self.background_ratio < 1:
            raise StreamError(
                "background_ratio must be in (0, 1), got "
                f"{self.background_ratio}"
            )
        if self.workers != 1:
            raise StreamError(
                f"workers must be 1, got {self.workers}: the fleet's "
                "parallelism is shards (process-parallel)"
            )
        if self.shards < 1:
            raise StreamError(
                f"shards must be >= 1, got {self.shards}"
            )
        if self.batch_streams < 1:
            raise StreamError(
                f"batch_streams must be >= 1, got {self.batch_streams}"
            )
        get_scenario(self.scenario)  # fail at construction, not mid-run


@dataclass(frozen=True)
class UtteranceDigest:
    """Deterministic summary of one gated utterance's outcome."""

    start_sample: int
    end_sample: int
    emitted_at_sample: int
    accepted: bool
    command: str
    vetoed: bool
    executed_command: str | None
    score: float | None
    forced: bool

    @classmethod
    def of(cls, result: UtteranceOutcome) -> "UtteranceDigest":
        outcome = result.outcome
        return cls(
            start_sample=result.start_sample,
            end_sample=result.end_sample,
            emitted_at_sample=result.emitted_at_sample,
            accepted=outcome.recognition.accepted,
            command=outcome.recognition.command,
            vetoed=outcome.vetoed,
            executed_command=outcome.executed_command,
            score=(
                None
                if outcome.detection is None
                else outcome.detection.score
            ),
            forced=result.forced,
        )


@dataclass(frozen=True)
class StreamResult:
    """One device's deterministic outcome digest."""

    index: int
    is_attack: tuple[bool, ...]
    duration_s: float
    utterances: tuple[UtteranceDigest, ...]


@dataclass
class FleetReport:
    """What a fleet run produced and what it cost.

    Everything except the wall-clock fields is deterministic given
    the config; the determinism suite compares :meth:`digest` across
    shard counts and the golden S1 table renders only deterministic
    fields.
    """

    config: FleetConfig
    sample_rate: float
    streams: list[StreamResult] = field(repr=False)
    #: Utterance synthesis, the workload generation (the slowest
    #: shard's): the sum of its blocks' synthesis windows.
    prepare_seconds: float = 0.0
    #: The streaming phase's wall clock (the slowest shard's): the sum
    #: of its blocks' streaming windows, covering ambient timeline
    #: draws, ingestion, segmentation, Welch accumulation and the
    #: decide phase (recognition + detection). A shard alternates
    #: synthesis and streaming block by block, so for one shard
    #: ``prepare_seconds + wall_seconds`` is its outer wall clock, less
    #: only the per-block bookkeeping between the windows.
    wall_seconds: float = 0.0
    #: Per-shard streaming wall clock, one entry per shard in shard
    #: order. The spread diagnoses load imbalance; ``wall_seconds``
    #: stays the throughput denominator.
    shard_wall_seconds: tuple[float, ...] = ()

    @property
    def audio_seconds(self) -> float:
        """Total stream audio processed, in stream seconds."""
        return sum(s.duration_s for s in self.streams)

    @property
    def n_utterances(self) -> int:
        return sum(len(s.utterances) for s in self.streams)

    @property
    def n_vetoed(self) -> int:
        return sum(
            u.vetoed for s in self.streams for u in s.utterances
        )

    @property
    def n_executed(self) -> int:
        return sum(
            u.executed_command is not None
            for s in self.streams
            for u in s.utterances
        )

    @property
    def n_rejected(self) -> int:
        """Utterances the recogniser did not accept at all."""
        return sum(
            not u.accepted for s in self.streams for u in s.utterances
        )

    def latencies_s(self) -> list[float]:
        """Per-utterance detection latency, in stream seconds."""
        return [
            (u.emitted_at_sample - u.end_sample) / self.sample_rate
            for s in self.streams
            for u in s.utterances
        ]

    def latency_stats(self) -> LatencyRecorder:
        """The raw latency samples as an exact-quantile recorder —
        mean, max and p50/p90/p99/p99.9 from the per-utterance
        samples, not a sketch. What the S1 table's latency rows
        report."""
        recorder = LatencyRecorder("fleet.latency_s")
        for latency in self.latencies_s():
            recorder.observe(latency)
        return recorder

    @property
    def realtime_factor(self) -> float:
        """Stream-seconds processed per wall second — the number of
        live 1x device streams this machine sustains."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.audio_seconds / self.wall_seconds

    def digest(self) -> tuple:
        """Deterministic fingerprint for cross-shard comparisons."""
        return tuple(
            (s.index, s.is_attack, s.duration_s, s.utterances)
            for s in self.streams
        )

    def digest_hex(self) -> str:
        """The digest as a stable hex hash — what the S1 table prints
        and the CI shard-determinism job diffs byte-for-byte."""
        return stable_key(self.digest())


def attack_fleet_emission(command: str, voice_seed: int):
    """Inaudible-command emission for one fleet voice (cache builder).

    Module-level so :class:`~repro.sim.engine.EmissionSpec` pickles it
    by reference and each shard process materialises the multi-MB
    waveform at most once, whatever its task count.
    """
    voice = cached_voice(command, voice_seed)
    return SingleSpeakerAttacker(horn_tweeter(), RIG_POSITION).emit(
        voice
    )


def genuine_fleet_emission(command: str, voice_seed: int):
    """Audible-playback emission for one fleet voice (cache builder)."""
    voice = cached_voice(command, voice_seed)
    return AudiblePlaybackAttacker(
        RIG_POSITION, speech_spl_at_1m=GENUINE_REFERENCE_SPL
    ).emit(voice)


def synthesize_utterances(
    scenario_name: str,
    command: str,
    distance_m: float | None,
    rng_children: list[np.random.Generator],
    attack_mask: np.ndarray,
    voice_seed: int = 0,
) -> tuple[list[Signal], KeywordRecognizer]:
    """One device-rate recording per utterance slot, plus the device's
    enrolled recogniser.

    Slots are grouped by class (``attack_mask``) and executed through
    the *batched* trial pipeline — synthesis is two pipeline passes
    regardless of slot count, with per-slot generators keeping every
    stream's draws independent; each trial's outcome depends only on
    its own generator, so synthesising any *subset* of slots (a
    shard's partition, or one stream block of it) is bitwise identical
    to the full pass. The voice, both class emissions, the enrolled
    device and both classes' trial contexts (the transmitted waves)
    come from the engine's per-process cache
    (:func:`~repro.sim.engine.process_cache`), so a process builds
    each once and a call pays only its slots' per-trial stages. Shared
    by the fleet's shards and the S1 experiment's parity probes.
    """
    spec = get_scenario(scenario_name)
    scenario = spec.build(command, distance_m)
    cache = process_cache()
    # The device is a pure function of its preset (microphone,
    # commands, enrolment seed); callers share it read-only.
    device = cache.get_or_compute(
        stable_key("fleet-device", spec.device), spec.build_device
    )
    recordings: list[Signal | None] = [None] * len(rng_children)
    for is_attack, emit, gain_stage in (
        (True, attack_fleet_emission, None),
        (
            False,
            genuine_fleet_emission,
            level_stage(55.0, 68.0, GENUINE_REFERENCE_SPL),
        ),
    ):
        slots = [
            k
            for k in range(len(rng_children))
            if bool(attack_mask[k]) == is_attack
        ]
        if not slots:
            continue
        emission = EmissionSpec(emit, (command, voice_seed))
        pipeline = build_pipeline(
            scenario,
            device.microphone,
            recognize=False,
            gain_stage=gain_stage,
        )
        # Keyed by the emission recipe and the whole scene it crosses
        # (geometry, room, weather, interference).
        ctx = cache.get_or_compute(
            stable_key("fleet-context", emission.key, scenario),
            lambda: pipeline.context(list(emission.sources())),
        )
        rows = pipeline.run_trials(ctx, [rng_children[k] for k in slots])
        for k, row in zip(slots, rows):
            recordings[k] = row
    return recordings, device.recognizer


def fleet_seed_plan(
    config: FleetConfig,
) -> tuple[
    np.ndarray,
    list[np.random.SeedSequence],
    list[np.random.SeedSequence],
]:
    """The fleet's deterministic randomness layout.

    Returns ``(attack_mask, trial_seqs, stream_seqs)`` — the
    per-slot class assignment, one :class:`~numpy.random.SeedSequence`
    per utterance slot and one per stream — all derived from
    ``config.seed`` alone. This is the *single* statement of the
    fleet's seeding: :func:`plan_shards` slices it per shard, which
    is what makes digests bitwise comparable for any partition.
    """
    n_slots = config.n_streams * config.utterances_per_stream
    root = np.random.SeedSequence(config.seed)
    assign_seq, trials_seq, streams_seq = root.spawn(3)
    attack_mask = (
        np.random.default_rng(assign_seq).random(n_slots)
        < config.attack_fraction
    )
    return (
        attack_mask,
        trials_seq.spawn(n_slots),
        streams_seq.spawn(config.n_streams),
    )


class TimelineSource:
    """One device's audio timeline — lead-in, utterances, gaps —
    drawn block by block, in order.

    A device never holds its whole audio history, and neither does
    the fleet: ambient noise is drawn from ``rng`` only when a block
    reaches it, each piece as ``rng.normal(0.0, 1.0, k) *
    background_rms``. Split ``Generator.normal`` draws produce the
    same values as one draw of the summed size, so *any* partition of
    the reads concatenates bitwise to the whole timeline
    (:func:`assemble_timeline`), so a stream group's block draws are
    the timeline an offline oracle replays.
    """

    def __init__(
        self,
        config: FleetConfig,
        rate: float,
        recordings: list[Signal],
        rng: np.random.Generator,
    ) -> None:
        mean_rms = float(
            np.mean([recording.rms() for recording in recordings])
        )
        self._rng = rng
        self._background_rms = config.background_ratio * max(
            mean_rms, 1e-12
        )
        lead_in = int(round(config.lead_in_s * rate))
        gap = int(round(config.gap_s * rate))
        # Each piece is a recording's samples or an ambient sample
        # count (``None`` payload) still to be drawn.
        self._pieces: list[tuple[int, np.ndarray | None]] = [(lead_in, None)]
        for recording in recordings:
            self._pieces.append((recording.n_samples, recording.samples))
            self._pieces.append((gap, None))
        self.length = sum(n for n, _ in self._pieces)
        self.position = 0
        self._piece = 0
        self._offset = 0

    def read_into(self, out: np.ndarray) -> int:
        """Fill ``out`` with the next samples; returns how many were
        written (fewer than ``out.shape[0]`` only at the end)."""
        want = out.shape[0]
        filled = 0
        while filled < want and self._piece < len(self._pieces):
            n, samples = self._pieces[self._piece]
            k = min(want - filled, n - self._offset)
            if samples is None:
                np.multiply(
                    self._rng.normal(0.0, 1.0, k),
                    self._background_rms,
                    out=out[filled : filled + k],
                )
            else:
                out[filled : filled + k] = samples[
                    self._offset : self._offset + k
                ]
            filled += k
            self._offset += k
            if self._offset == n:
                self._piece += 1
                self._offset = 0
        self.position += filled
        return filled

    def read(self, n: int) -> np.ndarray:
        """The next ``n`` samples (fewer only at the end)."""
        out = np.empty(min(n, self.length - self.position))
        self.read_into(out)
        return out


def assemble_timeline(
    config: FleetConfig,
    rate: float,
    recordings: list[Signal],
    rng: np.random.Generator,
) -> np.ndarray:
    """One device's full audio timeline: lead-in, utterances, gaps.

    The :class:`TimelineSource` read to its end, for callers that
    want the whole array at once (an offline oracle replaying the
    timeline); the fleet's stream groups read the source block by
    block instead.
    """
    source = TimelineSource(config, rate, recordings, rng)
    return source.read(source.length)


def check_fleet_rate(recordings: list[Signal]) -> float:
    """The fleet's single device rate, or a :class:`StreamError`."""
    rate = recordings[0].sample_rate
    for recording in recordings:
        if recording.sample_rate != rate:
            raise StreamError(
                "all fleet recordings must share one device rate"
            )
    return rate




def drive_streams(
    config: FleetConfig,
    detector: InaudibleVoiceDetector,
    segmenter_config: SegmenterConfig | None,
    stream_indices,
    rate: float,
    recognizer: KeywordRecognizer,
    recordings: list[Signal],
    attack_mask: np.ndarray,
    stream_seqs,
) -> list[StreamResult]:
    """Drive a partition of streams through lockstep stream groups.

    The single streaming dispatcher: every shard (:func:`run_shard`)
    routes its partition through it. Groups are
    ``config.batch_streams`` wide, or one stream wide when
    ``config.vectorized`` is off.

    ``stream_indices[pos]`` is the *global* index of local position
    ``pos``; ``recordings``/``attack_mask`` are laid out per local
    slot (``pos * utterances_per_stream`` onward). Returns one
    :class:`StreamResult` per stream, in local order.
    """
    from repro.stream import kernel  # deferred: kernel imports us

    per = config.utterances_per_stream
    n_local = len(stream_indices)
    width = config.batch_streams if config.vectorized else 1
    results: list[StreamResult] = []
    for lo in range(0, n_local, width):
        positions = range(lo, min(lo + width, n_local))
        results.extend(
            kernel.drive_stream_group(
                config,
                detector,
                segmenter_config,
                [int(stream_indices[pos]) for pos in positions],
                rate,
                recognizer,
                [recordings[pos * per : (pos + 1) * per] for pos in positions],
                [attack_mask[pos * per : (pos + 1) * per] for pos in positions],
                [stream_seqs[pos] for pos in positions],
            )
        )
    return results


@dataclass(frozen=True)
class ShardTask:
    """One shard's picklable work unit.

    Carries *recipes*, not waveforms: per-stream
    :class:`~numpy.random.SeedSequence` children and per-slot class
    flags. The executing process re-derives generators and
    synthesises its own recordings (through the per-process emission
    cache), so the pickle cost per shard is the detector plus a few
    seed sequences — never audio.
    """

    config: FleetConfig
    shard_index: int
    stream_indices: tuple[int, ...]
    stream_seqs: tuple[np.random.SeedSequence, ...]
    #: Per stream, one SeedSequence per utterance slot.
    slot_seqs: tuple[tuple[np.random.SeedSequence, ...], ...]
    #: Per stream, one is-attack flag per utterance slot.
    slot_attacks: tuple[tuple[bool, ...], ...]
    detector: InaudibleVoiceDetector
    segmenter_config: SegmenterConfig | None

    def __post_init__(self) -> None:
        lengths = {
            len(self.stream_indices),
            len(self.stream_seqs),
            len(self.slot_seqs),
            len(self.slot_attacks),
        }
        if lengths != {len(self.stream_indices)}:
            raise StreamError(
                "shard task stream fields must be parallel: got "
                f"lengths {sorted(lengths)}"
            )
        if not self.stream_indices:
            raise StreamError("a shard needs at least one stream")


@dataclass
class ShardResult:
    """One shard's merged-ready outcome slice."""

    shard_index: int
    sample_rate: float
    streams: list[StreamResult]
    prepare_seconds: float
    wall_seconds: float


def run_shard(task: ShardTask) -> ShardResult:
    """Execute one shard, one block of ``config.batch_streams``
    streams at a time: synthesise the block's recordings, stream its
    devices, drop the recordings.

    The shard's working set is therefore one block's, not the
    shard's: recordings exist only while their block streams, and the
    pipeline synthesises them one trial at a time. Each
    stream's outcome is a pure function of its own seeds, so the block
    split changes no bit. ``prepare_seconds`` and ``wall_seconds`` are
    the sums of the blocks' synthesis and streaming windows.

    Module-level so :meth:`~repro.sim.engine.ExperimentEngine.map`
    pickles it by reference; a single shard and the hypothesis
    partition property call it inline, so every shard count runs the
    identical code path. The shard runs in a ``shard`` span, with each
    block's ``synthesize`` span and its kernel-cycle and utterance
    spans nested below, on whatever tracer is ambient (in a pool
    worker, the local one the engine brings home).
    """
    config = task.config
    n_streams = len(task.stream_indices)
    streams: list[StreamResult] = []
    prepare_seconds = wall_seconds = 0.0
    with maybe_span("shard", shard=task.shard_index, streams=n_streams):
        for lo in range(0, n_streams, config.batch_streams):
            block = slice(lo, lo + config.batch_streams)
            rng_children = [
                np.random.default_rng(seq)
                for stream in task.slot_seqs[block]
                for seq in stream
            ]
            attack_mask = np.array(
                [
                    flag
                    for stream in task.slot_attacks[block]
                    for flag in stream
                ],
                dtype=bool,
            )
            started = time.perf_counter()
            with maybe_span("synthesize", slots=len(rng_children)):
                recordings, recognizer = synthesize_utterances(
                    config.scenario,
                    config.command,
                    config.distance_m,
                    rng_children,
                    attack_mask,
                    voice_seed=config.seed,
                )
            prepare_seconds += time.perf_counter() - started
            rate = check_fleet_rate(recordings)

            started = time.perf_counter()
            streams += drive_streams(
                config,
                task.detector,
                task.segmenter_config,
                task.stream_indices[block],
                rate,
                recognizer,
                recordings,
                attack_mask,
                task.stream_seqs[block],
            )
            wall_seconds += time.perf_counter() - started
            del recordings  # freed before the next block synthesises
    return ShardResult(
        shard_index=task.shard_index,
        sample_rate=rate,
        streams=streams,
        prepare_seconds=prepare_seconds,
        wall_seconds=wall_seconds,
    )


class ShardAccumulator:
    """Mergeable fleet accumulator: shard slices in, one report out.

    Order-insensitive (shards may be folded in any order) and
    validating: a duplicate stream index fails at :meth:`add`, a
    missing one at :meth:`report` — a shard can never be silently
    dropped or double counted.
    """

    def __init__(self, n_streams: int) -> None:
        self.n_streams = n_streams
        self._streams: dict[int, StreamResult] = {}
        self._rate: float | None = None
        self._prepare: list[float] = []
        self._walls: dict[int, float] = {}

    def add(self, result: ShardResult) -> None:
        """Fold one shard's slice in (any order)."""
        if self._rate is None:
            self._rate = result.sample_rate
        elif result.sample_rate != self._rate:
            raise StreamError(
                "shards disagree on the device rate: "
                f"{result.sample_rate} vs {self._rate}"
            )
        for stream in result.streams:
            if not 0 <= stream.index < self.n_streams:
                raise StreamError(
                    f"shard {result.shard_index} produced stream "
                    f"{stream.index}, outside the fleet's "
                    f"{self.n_streams} streams"
                )
            if stream.index in self._streams:
                raise StreamError(
                    f"stream {stream.index} produced by two shards — "
                    "the partition overlaps"
                )
            self._streams[stream.index] = stream
        self._prepare.append(result.prepare_seconds)
        self._walls[result.shard_index] = result.wall_seconds

    def report(self, config: FleetConfig) -> FleetReport:
        """The merged fleet report, in stream-index order, timed by
        the slowest shard's streaming wall — the steady-state
        critical path."""
        missing = [
            index
            for index in range(self.n_streams)
            if index not in self._streams
        ]
        if missing:
            raise StreamError(
                f"streams {missing} missing — the shard partition "
                "does not cover the fleet"
            )
        shard_walls = tuple(
            self._walls[index] for index in sorted(self._walls)
        )
        return FleetReport(
            config=config,
            sample_rate=self._rate,
            streams=[
                self._streams[index]
                for index in range(self.n_streams)
            ],
            prepare_seconds=max(self._prepare, default=0.0),
            wall_seconds=max(shard_walls, default=0.0),
            shard_wall_seconds=shard_walls,
        )


def plan_shards(
    detector: InaudibleVoiceDetector,
    config: FleetConfig,
    segmenter_config: SegmenterConfig | None = None,
    partitions: Sequence[Sequence[int]] | None = None,
) -> list[ShardTask]:
    """Deterministic shard tasks for one fleet config.

    By default streams are split into ``config.shards`` contiguous,
    near-equal partitions (:func:`~repro.sim.engine.partition_evenly`
    — a pure function of the counts, never of worker scheduling).
    ``partitions`` overrides the layout with any disjoint cover of
    the stream indices, which is how the hypothesis property asserts
    that *every* partition merges to the same digest.
    """
    attack_mask, trial_seqs, stream_seqs = fleet_seed_plan(config)
    per = config.utterances_per_stream
    if partitions is None:
        partitions = partition_evenly(
            list(range(config.n_streams)), config.shards
        )
    tasks = []
    for shard_index, indices in enumerate(partitions):
        indices = tuple(int(i) for i in indices)
        tasks.append(
            ShardTask(
                config=config,
                shard_index=shard_index,
                stream_indices=indices,
                stream_seqs=tuple(stream_seqs[i] for i in indices),
                slot_seqs=tuple(
                    tuple(trial_seqs[i * per : (i + 1) * per])
                    for i in indices
                ),
                slot_attacks=tuple(
                    tuple(
                        bool(flag)
                        for flag in attack_mask[i * per : (i + 1) * per]
                    )
                    for i in indices
                ),
                detector=detector,
                segmenter_config=segmenter_config,
            )
        )
    return tasks


class FleetSimulator:
    """Run many concurrent device streams against one trained guard.

    Parameters
    ----------
    detector:
        A fitted :class:`~repro.defense.detector.InaudibleVoiceDetector`
        shared read-only by every stream's guard (pickled once per
        shard process).
    config:
        The fleet recipe; ``config.shards`` sets the parallelism.
    segmenter_config:
        Optional gate tuning shared by every stream.
    """

    def __init__(
        self,
        detector: InaudibleVoiceDetector,
        config: FleetConfig,
        segmenter_config: SegmenterConfig | None = None,
    ) -> None:
        self.detector = detector
        self.config = config
        self.segmenter_config = segmenter_config

    def run(self, engine: ExperimentEngine | None = None) -> FleetReport:
        """Plan, run and merge the shards of the whole fleet.

        The shards go through :meth:`ExperimentEngine.map
        <repro.sim.engine.ExperimentEngine.map>`, the one process
        boundary, of ``engine`` when one is given (a serial engine
        runs every shard inline) and otherwise of a temporary engine
        with one process per shard, up to the core count; one shard
        always runs inline. Run it under a
        :class:`~repro.obs.trace.Tracer` for a ``fleet`` span with each
        ``shard`` below it, and the stream groups' per-stage wall time
        below those: :meth:`~repro.sim.pipeline.StageProfile.from_spans`
        attributes ingestion vs segmentation vs Welch vs decide cost.
        """
        config = self.config
        tasks = plan_shards(self.detector, config, self.segmenter_config)
        accumulator = ShardAccumulator(config.n_streams)
        with maybe_span(
            "fleet", shards=len(tasks), streams=config.n_streams
        ):
            if engine is None:
                jobs = min(len(tasks), os.cpu_count() or 1)
                with ExperimentEngine(jobs) as owned:
                    results = owned.map(run_shard, tasks)
            else:
                results = engine.map(run_shard, tasks)
            for result in results:
                accumulator.add(result)
            return accumulator.report(config)
