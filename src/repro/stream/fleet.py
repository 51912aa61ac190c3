"""Concurrent device-fleet simulation over the streaming guard.

The ROADMAP's north star is a service in front of *millions* of
devices; the per-request fast path must therefore be independent and
conflict-free (the Harmonia lesson: near-linear scaling comes from
state that multiplexes without coordination). The streaming guard has
exactly that shape — all per-stream state lives in the stream's own
ring buffer, segmenter and extractor; the recogniser and detector are
immutable after enrollment/fit and shared read-only.

:class:`FleetSimulator` exercises it: ``n_streams`` simulated devices,
each an independent audio timeline (ambient lead-in, utterances,
ambient gaps) pushed chunk-by-chunk through its own
:class:`~repro.stream.guard.StreamingGuard`. The utterance recordings
are synthesised through the *batched*
:class:`~repro.sim.pipeline.TrialPipeline` — one transmission per
class, every stream's per-utterance variation riding the stacked
per-trial stages — with per-stream generators spawned from one
:class:`numpy.random.SeedSequence`, so the whole fleet is a pure
function of its config:

* verdicts, boundaries and stream-time latencies are bitwise
  identical for every ``workers`` value (threads change wall clock,
  never results — the determinism test pins this);
* wall-clock throughput is reported separately
  (:attr:`FleetReport.wall_seconds`), which is what
  ``benchmarks/bench_stream.py`` records in ``BENCH_stream.json``.

Within one simulator, streams are processed by a thread pool.
Threads, not processes, are the right model *inside* a core's worth
of work: the heavy per-chunk DSP is NumPy/SciPy work that releases
the GIL, and sharing the enrolled recogniser and fitted detector
read-only costs nothing, where per-process copies would dominate
start-up. To scale *across* cores, :mod:`repro.stream.shard`
partitions the fleet into per-process shards, each running this
module's stream loop over its own partition — which is why the loop
body (:func:`drive_stream`), the per-class synthesis
(:func:`synthesize_utterances`, emission-cached per process through
:mod:`repro.sim.engine`) and the result containers here are all
module-level and picklable.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.attack.attacker import SingleSpeakerAttacker
from repro.attack.baselines import AudiblePlaybackAttacker
from repro.defense.dataset import GENUINE_REFERENCE_SPL
from repro.defense.detector import InaudibleVoiceDetector
from repro.dsp.signals import Signal
from repro.errors import StreamError
from repro.hardware.devices import horn_tweeter
from repro.obs.metrics import LatencyRecorder, current_metrics
from repro.obs.trace import current_tracer, maybe_span
from repro.sim.cache import stable_key
from repro.sim.engine import EmissionSpec, cached_voice
from repro.sim.pipeline import build_pipeline, level_stage
from repro.sim.spec import RIG_POSITION, get_scenario
from repro.speech.recognizer import KeywordRecognizer
from repro.stream.guard import StreamingGuard, UtteranceOutcome
from repro.stream.segmenter import SegmenterConfig


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
        Thread count for processing (per shard, when sharded);
        results are identical for every value.
    shards:
        Process-shard count for :class:`~repro.stream.shard.
        ShardedFleetSimulator`. :class:`FleetSimulator` itself is the
        single-shard loop and ignores this knob; results are bitwise
        identical for every value (the shard determinism suite and CI
        job pin it).
    vectorized:
        Drive streams through the structure-of-arrays kernel
        (:mod:`repro.stream.kernel`) instead of the per-stream scalar
        loop. Results are bitwise identical either way — the knob
        exists for the differential oracle and for benchmarking the
        scalar baseline.
    batch_streams:
        Streams per kernel lockstep group (vectorized mode). Any
        value produces the identical digest; it trades batched-op
        width against working-set memory.
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
        if self.workers < 1:
            raise StreamError(
                f"workers must be >= 1, got {self.workers}"
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
    worker counts and the golden S1 table renders only deterministic
    fields.
    """

    config: FleetConfig
    sample_rate: float
    streams: list[StreamResult] = field(repr=False)
    #: Workload-generation cost: utterance synthesis plus ambient
    #: timeline assembly. A deployment receives its audio, so neither
    #: belongs in the streaming throughput denominator.
    prepare_seconds: float = 0.0
    #: The streaming hot path: ingestion, segmentation, Welch
    #: accumulation and the decide phase (recognition + detection).
    wall_seconds: float = 0.0
    #: Per-shard streaming wall clock (empty when unsharded). The
    #: spread diagnoses load imbalance; the coordinator's
    #: ``wall_seconds`` stays the throughput denominator.
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
        samples, not a sketch. What the S1 table's latency rows and
        ``--metrics-out`` report."""
        recorder = LatencyRecorder("fleet.latency_s")
        for latency in self.latencies_s():
            recorder.observe(latency)
        return recorder

    def record_metrics(self, registry) -> None:
        """Publish this report into a metrics registry."""
        registry.counter("fleet.streams").inc(len(self.streams))
        registry.counter("fleet.utterances").inc(self.n_utterances)
        registry.counter("fleet.vetoed").inc(self.n_vetoed)
        registry.counter("fleet.executed").inc(self.n_executed)
        registry.counter("fleet.rejected").inc(self.n_rejected)
        registry.gauge("fleet.audio_seconds").set(self.audio_seconds)
        registry.gauge("fleet.wall_seconds").set(self.wall_seconds)
        registry.gauge("fleet.prepare_seconds").set(
            self.prepare_seconds
        )
        recorder = registry.latency("fleet.latency_s")
        for latency in self.latencies_s():
            recorder.observe(latency)
        if self.shard_wall_seconds:
            shard_recorder = registry.latency("fleet.shard_wall_s")
            for wall in self.shard_wall_seconds:
                shard_recorder.observe(wall)

    @property
    def realtime_factor(self) -> float:
        """Stream-seconds processed per wall second — the number of
        live 1x device streams this machine sustains."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.audio_seconds / self.wall_seconds

    def digest(self) -> tuple:
        """Deterministic fingerprint for cross-worker comparisons."""
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
    shard's partition) is bitwise identical to the full pass. The
    voice and both class emissions come from the engine's per-process
    cache (:func:`~repro.sim.engine.cached_voice`,
    :class:`~repro.sim.engine.EmissionSpec`), so a shard process
    builds each waveform once and reuses it across every task it
    executes. Shared by the fleet simulator, the shard workers and
    the S1 experiment's parity probes.
    """
    spec = get_scenario(scenario_name)
    scenario = spec.build(command, distance_m)
    device = spec.build_device()
    recordings: list[Signal | None] = [None] * len(rng_children)
    attack_slots = [
        k for k in range(len(rng_children)) if attack_mask[k]
    ]
    genuine_slots = [
        k for k in range(len(rng_children)) if not attack_mask[k]
    ]
    if attack_slots:
        emission = EmissionSpec(
            attack_fleet_emission, (command, voice_seed)
        )
        pipeline = build_pipeline(
            scenario, device.microphone, recognize=False
        )
        ctx = pipeline.context(list(emission.sources()))
        rows = pipeline.run_trials(
            ctx, [rng_children[k] for k in attack_slots]
        )
        for k, row in zip(attack_slots, rows):
            recordings[k] = row
    if genuine_slots:
        emission = EmissionSpec(
            genuine_fleet_emission, (command, voice_seed)
        )
        pipeline = build_pipeline(
            scenario,
            device.microphone,
            recognize=False,
            gain_stage=level_stage(55.0, 68.0, GENUINE_REFERENCE_SPL),
        )
        ctx = pipeline.context(list(emission.sources()))
        rows = pipeline.run_trials(
            ctx, [rng_children[k] for k in genuine_slots]
        )
        for k, row in zip(genuine_slots, rows):
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
    fleet's seeding: :class:`FleetSimulator` and the sharded driver
    (:mod:`repro.stream.shard`) both consume it, which is what makes
    their digests bitwise comparable for any shard count.
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


@dataclass
class RawStreamRun:
    """One stream's undigested outcome — the unit the commit queue
    drains.

    The driving thread produces this (cheap: references, no
    summarisation) and moves on to its next stream; converting the
    guard outcomes into the deterministic :class:`StreamResult`
    digest happens off the ingestion hot path (in the shard's commit
    queue, or inline in the unsharded simulator).
    """

    index: int
    is_attack: tuple[bool, ...]
    duration_s: float
    outcomes: list[UtteranceOutcome]

    def commit(self) -> StreamResult:
        return StreamResult(
            index=self.index,
            is_attack=self.is_attack,
            duration_s=self.duration_s,
            utterances=tuple(
                UtteranceDigest.of(outcome)
                for outcome in self.outcomes
            ),
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
    (:func:`assemble_timeline`). Both stream paths — the scalar loop
    (:func:`drive_stream`) and the vectorized kernel — read through
    this class, which makes it the first link in their bitwise-parity
    chain.
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
    timeline); the fleet's own stream paths read the source block by
    block instead.
    """
    source = TimelineSource(config, rate, recordings, rng)
    return source.read(source.length)


def drive_stream(
    config: FleetConfig,
    detector: InaudibleVoiceDetector,
    segmenter_config: SegmenterConfig | None,
    index: int,
    rate: float,
    recognizer: KeywordRecognizer,
    recordings: list[Signal],
    attack_mask: np.ndarray,
    seed_seq: np.random.SeedSequence,
) -> tuple[RawStreamRun, float]:
    """One device's whole timeline through its own guard.

    Module-level (picklable by reference) and a pure function of its
    arguments, so the unsharded thread pool and the per-process shard
    workers execute the identical loop body. This is the scalar
    reference path; :func:`drive_streams` dispatches to it or to the
    structure-of-arrays kernel per ``config.vectorized``.

    Each chunk is drawn from the stream's :class:`TimelineSource` just
    before it is pushed, so only the open utterance and the guard's
    lookback are ever held. Returns ``(run, assemble_seconds)`` — the
    second element is the wall time spent drawing the timeline, which
    the fleet accounts as prepare (workload generation), not
    streaming.
    """
    source = TimelineSource(
        config, rate, recordings, np.random.default_rng(seed_seq)
    )
    guard = StreamingGuard(
        recognizer,
        detector,
        rate,
        unit=recordings[0].unit,
        gated=True,
        segmenter_config=segmenter_config,
    )
    chunk = max(1, int(round(config.chunk_s * rate)))
    tracer = current_tracer()
    stream_started = time.perf_counter() if tracer is not None else 0.0
    outcomes: list[UtteranceOutcome] = []
    assemble_seconds = 0.0
    while source.position < source.length:
        started = time.perf_counter()
        samples = source.read(chunk)
        assemble_seconds += time.perf_counter() - started
        outcomes.extend(guard.push(samples))
    outcomes.extend(guard.flush())
    if tracer is not None:
        ended = time.perf_counter()
        stream_span = tracer.record(
            "stream",
            stream_started,
            ended,
            stream=index,
            utterances=len(outcomes),
        )
        # Same marker shape as the kernel's decide phase: zero wall
        # width, stream-time latency in the attributes.
        for outcome in outcomes:
            tracer.record(
                "utterance",
                ended,
                ended,
                parent_id=stream_span.span_id,
                stream=index,
                latency_s=(
                    outcome.emitted_at_sample - outcome.end_sample
                )
                / rate,
                accepted=bool(outcome.outcome.recognition.accepted),
                forced=outcome.forced,
            )
    run = RawStreamRun(
        index=index,
        is_attack=tuple(bool(flag) for flag in attack_mask),
        duration_s=source.length / rate,
        outcomes=outcomes,
    )
    return run, assemble_seconds


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
    emit,
) -> float:
    """Drive a partition of streams, scalar or vectorized.

    The single streaming dispatcher: the unsharded simulator and every
    shard worker (:func:`repro.stream.shard.run_shard`) route through
    it, so ``config.vectorized`` composes with sharding — each shard
    process runs its own kernel groups over its own partition.

    ``stream_indices[pos]`` is the *global* index of local position
    ``pos``; ``recordings``/``attack_mask`` are laid out per local
    slot (``pos * utterances_per_stream`` onward). Every finished
    stream's :class:`RawStreamRun` is handed to ``emit`` (a commit
    queue's ``put``, or a plain list append) — completion order may
    vary with threading, but each run's content never does.

    Returns the seconds spent drawing timeline blocks from the
    streams' :class:`TimelineSource` objects (ambient synthesis —
    workload generation, identical draws on both paths), which callers
    subtract from their streaming wall clock and account as prepare
    time alongside utterance synthesis.
    """
    per = config.utterances_per_stream
    n_local = len(stream_indices)
    # The nesting stack is thread-local: capture the dispatcher's
    # parent here so pool threads attach their spans under it.
    tracer = current_tracer()
    dispatch_parent = (
        tracer.current_parent() if tracer is not None else None
    )

    if config.vectorized:
        from repro.stream import kernel  # deferred: kernel imports us

        group_bounds = list(
            range(0, n_local, config.batch_streams)
        )

        def drive_group(lo: int) -> float:
            hi = min(lo + config.batch_streams, n_local)
            positions = range(lo, hi)
            context = (
                tracer.attached(dispatch_parent)
                if tracer is not None
                else nullcontext()
            )
            with context:
                runs, assembled = kernel.drive_stream_group(
                    config,
                    detector,
                    segmenter_config,
                    [int(stream_indices[pos]) for pos in positions],
                    rate,
                    recognizer,
                    [
                        recordings[pos * per : (pos + 1) * per]
                        for pos in positions
                    ],
                    [
                        attack_mask[pos * per : (pos + 1) * per]
                        for pos in positions
                    ],
                    [stream_seqs[pos] for pos in positions],
                )
            for run in runs:
                emit(run)
            return assembled

        if config.workers == 1 or len(group_bounds) == 1:
            return sum(drive_group(lo) for lo in group_bounds)
        with ThreadPoolExecutor(
            max_workers=config.workers
        ) as pool:
            return sum(pool.map(drive_group, group_bounds))

    def drive(pos: int) -> float:
        context = (
            tracer.attached(dispatch_parent)
            if tracer is not None
            else nullcontext()
        )
        with context:
            run, assembled = drive_stream(
                config,
                detector,
                segmenter_config,
                int(stream_indices[pos]),
                rate,
                recognizer,
                recordings[pos * per : (pos + 1) * per],
                attack_mask[pos * per : (pos + 1) * per],
                stream_seqs[pos],
            )
        emit(run)
        return assembled

    if config.workers == 1:
        return sum(drive(pos) for pos in range(n_local))
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        return sum(pool.map(drive, range(n_local)))


class FleetSimulator:
    """Run many concurrent device streams against one trained guard.

    Parameters
    ----------
    detector:
        A fitted :class:`~repro.defense.detector.InaudibleVoiceDetector`
        shared read-only by every stream's guard.
    config:
        The fleet recipe.
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

    # -- the run -------------------------------------------------------

    def run(self) -> FleetReport:
        """Synthesise, stream and decide the whole fleet.

        Run it under a :class:`~repro.obs.trace.Tracer` for the
        vectorized kernel's per-stage wall time:
        :meth:`~repro.sim.pipeline.StageProfile.from_spans` attributes
        ingestion vs segmentation vs Welch vs decide cost.
        """
        config = self.config
        with maybe_span(
            "fleet",
            streams=config.n_streams,
            vectorized=config.vectorized,
        ):
            attack_mask, trial_seqs, stream_seqs = fleet_seed_plan(
                config
            )
            trial_rngs = [
                np.random.default_rng(child) for child in trial_seqs
            ]

            prepare_started = time.perf_counter()
            with maybe_span("synthesize", slots=len(trial_rngs)):
                recordings, recognizer = synthesize_utterances(
                    config.scenario,
                    config.command,
                    config.distance_m,
                    trial_rngs,
                    attack_mask,
                    voice_seed=config.seed,
                )
            prepare_seconds = time.perf_counter() - prepare_started
            rate = check_fleet_rate(recordings)

            raw_runs: list[RawStreamRun] = []
            started = time.perf_counter()
            assembled = drive_streams(
                config,
                self.detector,
                self.segmenter_config,
                range(config.n_streams),
                rate,
                recognizer,
                recordings,
                attack_mask,
                stream_seqs,
                raw_runs.append,
            )
            results = [
                raw.commit()
                for raw in sorted(raw_runs, key=lambda raw: raw.index)
            ]
            # Timeline assembly is workload generation (a deployment
            # receives its audio); it counts as prepare, not
            # streaming.
            prepare_seconds += assembled
            wall_seconds = time.perf_counter() - started - assembled
            report = FleetReport(
                config=config,
                sample_rate=rate,
                streams=results,
                prepare_seconds=prepare_seconds,
                wall_seconds=wall_seconds,
            )
        registry = current_metrics()
        if registry is not None:
            report.record_metrics(registry)
        return report
