"""The declarative trial pipeline: one stage list, one executor.

The per-trial attack chain is *data*: a :class:`TrialPipeline` is an
ordered list of named :class:`Stage` objects

    transmit -> motion-gain -> [interference] -> ambient ->
    microphone -> adc -> recognize

where each stage carries one kernel over a trial chunk: the stacked
``(n_trials, n_samples)`` value plus one generator per row. A single
trial is a chunk of one, so there is no second, per-trial statement
of the chain to keep in sync; :meth:`TrialPipeline.run_trials` is the
only executor, and :class:`~repro.sim.engine.ExperimentEngine` drives
it for every trial group. The executor's chunks are sized by a
cell budget (:data:`MAX_CHUNK_CELLS`), not a trial count, so its
working set is bounded by the budget whatever the group size or the
waveform length.

Per-trial random draws are the determinism discipline: a kernel draws
from ``rngs[i]`` for row ``i`` only, in row order, so every trial
consumes the same draws (motion gain, then ambient noise, then
microphone self-noise) whatever chunk it lands in. The executor's
outputs are therefore invariant under the chunk size — the property
the differential suites check against the goldens and the
``float64_baseline.json`` digests.

:func:`build_pipeline` assembles the canonical attack pipeline for a
(scenario, device) pair. The defense's dataset synthesis composes its
own variant — the same stages minus recognition, plus a per-trial
talker-level gain — through the same builders.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.acoustics.channel import AcousticChannel, PlacedSource
from repro.acoustics.spl import spl_to_pressure
from repro.dsp.signals import Signal, SignalBatch
from repro.errors import ExperimentError
from repro.hardware.microphone import Microphone
from repro.obs.trace import current_tracer
from repro.sim.cache import EmissionCache, stable_key
from repro.sim.scenario import Scenario, VictimDevice

#: Float64 cells one stacked executor pass may hold per trial-chunk
#: array (8 MB), the same budget the recogniser's DTW slabs use. The
#: default chunk is as many trials as fit in it at the chunk's longest
#: row (:func:`chunk_trials_for`): 6 rows of a 174 720-sample arrived
#: wave, 2 of a 450 240-sample one. The pipeline's working set then
#: stays a small multiple of the budget whatever the trial count, while
#: short rows still share the per-chunk fixed costs (filter design,
#: zero-phase initial conditions, batch construction); row-at-a-time
#: filtering keeps the hot DSP cache-resident at any stack height.
MAX_CHUNK_CELLS = 1 << 20

#: Transmitted interference beds retained per invariants cache. Real
#: runs see a handful of (geometry, sample rate) combinations; the
#: bound exists so a sweeping caller cannot grow the precompute cache
#: without limit (the unbounded dict this replaces).
_INVARIANT_CACHE_ENTRIES = 8


@dataclass
class StageTiming:
    """Accumulated wall time of one (mode, stage) pair."""

    seconds: float = 0.0
    calls: int = 0
    trials: int = 0

    @property
    def seconds_per_trial(self) -> float:
        """Mean wall seconds each trial spent in this stage."""
        if self.trials == 0:
            return 0.0
        return self.seconds / self.trials


class StageProfile:
    """Per-stage wall-time attribution, rebuilt from trace spans.

    The trial executor and the streaming kernel report through trace
    spans only: run them under a :class:`~repro.obs.trace.Tracer` and
    :meth:`from_spans` folds the stage spans into ``(mode,
    stage_name)`` timings. One tracer may collect many calls (the
    benchmark harness feeds a whole workload through one), and
    :meth:`render` prints the breakdown the performance docs quote.
    """

    def __init__(self) -> None:
        self.timings: dict[tuple[str, str], StageTiming] = {}

    def add(
        self, mode: str, stage: str, seconds: float, n_trials: int
    ) -> None:
        """Record one stage call of ``n_trials`` trials."""
        timing = self.timings.setdefault((mode, stage), StageTiming())
        timing.seconds += seconds
        timing.calls += 1
        timing.trials += n_trials

    def total_seconds(self, mode: str | None = None) -> float:
        """Wall seconds across all stages, optionally one mode's."""
        return sum(
            timing.seconds
            for (timing_mode, _), timing in self.timings.items()
            if mode is None or timing_mode == mode
        )

    def as_rows(self) -> list[dict]:
        """JSON-friendly rows, in first-recorded order per mode."""
        return [
            {
                "mode": mode,
                "stage": stage,
                "seconds": timing.seconds,
                "calls": timing.calls,
                "trials": timing.trials,
                "seconds_per_trial": timing.seconds_per_trial,
            }
            for (mode, stage), timing in self.timings.items()
        ]

    @classmethod
    def from_spans(cls, spans) -> "StageProfile":
        """Rebuild a profile from trace spans (:mod:`repro.obs`).

        Two kinds of span are stage-timing records, so a trace file
        alone reproduces the profiling table without a separate
        profiling run:

        * a span carrying ``mode`` and ``trials`` attributes — the
          trial executor emits exactly one per stage call;
        * a child of a ``stream-group`` span — the streaming kernel's
          stage windows. Each group's children fold into one
          ``("stream", stage)`` call per stage, with the group's
          ``streams`` as its trials. The zero-width ``utterance``
          decision markers are not stages.
        """
        profile = cls()
        groups = {
            span.span_id: span
            for span in spans
            if span.name == "stream-group"
        }
        group_stages: dict[int, dict[str, float]] = {}
        for span in spans:
            attrs = span.attrs
            if "mode" in attrs and "trials" in attrs:
                profile.add(
                    str(attrs["mode"]),
                    span.name,
                    span.duration_s,
                    int(attrs["trials"]),
                )
            elif span.parent_id in groups and span.name != "utterance":
                stages = group_stages.setdefault(span.parent_id, {})
                stages[span.name] = (
                    stages.get(span.name, 0.0) + span.duration_s
                )
        for group_id, stages in group_stages.items():
            streams = int(groups[group_id].attrs["streams"])
            for stage, seconds in stages.items():
                profile.add("stream", stage, seconds, streams)
        return profile

    def render(self) -> str:
        """A fixed-width table of the recorded breakdown."""
        lines = [
            f"{'mode':<8} {'stage':<14} {'seconds':>9} "
            f"{'calls':>6} {'trials':>7} {'ms/trial':>9}"
        ]
        for row in self.as_rows():
            lines.append(
                f"{row['mode']:<8} {row['stage']:<14} "
                f"{row['seconds']:>9.4f} {row['calls']:>6d} "
                f"{row['trials']:>7d} "
                f"{1e3 * row['seconds_per_trial']:>9.3f}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one attack trial.

    Attributes
    ----------
    success:
        The device recognised the *intended* command.
    recognized_command:
        What the device actually heard (best match).
    accepted:
        Whether the recogniser accepted any command at all.
    distance:
        DTW distance of the best match.
    recording:
        The device-rate recording (kept for defense experiments;
        ``None`` when the engine ran with ``keep_recordings=False``
        so success-rate waves don't ship waveforms between
        processes).
    """

    success: bool
    recognized_command: str
    accepted: bool
    distance: float
    recording: Signal | None


@dataclass(frozen=True)
class TrialContext:
    """Trial-invariant inputs shared by every trial of a group.

    Built once per (emission, geometry) by the pipeline's precompute
    step: the deterministic arrived attack wave, and — when the scene
    has competing audio — the arrived interference bed. Every trial of
    the group reads these; only the per-trial draws differ.
    """

    clean_attack: Signal
    clean_interference: Signal | None = None


def chunk_trials_for(ctx: TrialContext) -> int:
    """The default trials per chunk: :data:`MAX_CHUNK_CELLS` over the
    longest row the chunk carries (the arrived attack wave or the
    interference bed), and at least one. A context without waveforms
    (synthetic pipelines) runs every trial in one chunk."""
    longest = max(
        (
            wave.n_samples
            for wave in (ctx.clean_attack, ctx.clean_interference)
            if wave is not None
        ),
        default=1,
    )
    return max(1, MAX_CHUNK_CELLS // longest)


#: Stage kernel: (context, stacked value-in, per-trial generators) ->
#: stacked value-out. Row ``i`` may draw only from ``rngs[i]``.
Kernel = Callable[
    [TrialContext, Any, Sequence[np.random.Generator]], Any
]


@dataclass(frozen=True)
class Stage:
    """One named step of the trial chain.

    Attributes
    ----------
    name:
        Stable identifier (``"transmit"``, ``"ambient"``, ...); shown
        in trace spans and the pipeline diagram.
    kernel:
        The stage over a trial chunk: ``(ctx, value, rngs)`` with one
        generator per trial, in row order. A single trial is a chunk
        of one.
    """

    name: str
    kernel: Kernel


class TrialPipeline:
    """An ordered stage list plus its executor.

    :meth:`run_trials` folds bounded trial chunks through every
    stage's kernel; its outputs do not depend on the chunk size.
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        context_builder: (
            Callable[[list[PlacedSource]], TrialContext] | None
        ) = None,
        invariants: EmissionCache | None = None,
    ) -> None:
        stages = tuple(stages)
        if not stages:
            raise ExperimentError(
                "a TrialPipeline needs at least one stage"
            )
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ExperimentError(
                f"stage names must be unique, got {names}"
            )
        self.stages = stages
        self._context_builder = context_builder
        #: The bounded cache behind the trial-invariant precompute
        #: (transmitted interference beds, keyed by sample rate);
        #: exposed for cache-accounting tests. ``None`` for synthetic
        #: pipelines without a context builder.
        self.invariants = invariants

    # -- introspection ------------------------------------------------

    def stage_names(self) -> tuple[str, ...]:
        """The declared order, for diagrams and ordering tests."""
        return tuple(stage.name for stage in self.stages)

    # -- trial-invariant precompute -----------------------------------

    def context(self, sources: Sequence[PlacedSource]) -> TrialContext:
        """The trial-invariant precompute for one emission.

        Only available on pipelines built against a scenario (see
        :func:`build_pipeline`); synthetic pipelines construct their
        :class:`TrialContext` directly.
        """
        if self._context_builder is None:
            raise ExperimentError(
                "this pipeline has no context builder; construct a "
                "TrialContext directly"
            )
        return self._context_builder(list(sources))

    # -- execution ----------------------------------------------------

    def run_trials(
        self,
        ctx: TrialContext,
        rngs: Sequence[np.random.Generator],
        chunk_trials: int | None = None,
    ) -> list:
        """Every trial's final value, in generator order.

        The generators stream through the stage kernels in chunks of
        at most ``chunk_trials``; ``None`` sizes the chunks by the cell
        budget (:func:`chunk_trials_for`), so a stacked stage value
        holds at most :data:`MAX_CHUNK_CELLS` cells whatever the trial
        count. The results are bitwise the same for every chunk size.
        Under an ambient tracer each stage call records one span with
        ``mode="batch"`` and ``trials=n``.
        """
        rngs = list(rngs)
        if not rngs:
            raise ExperimentError(
                "run_trials needs >= 1 trial generator"
            )
        if chunk_trials is None:
            chunk_trials = chunk_trials_for(ctx)
        if chunk_trials < 1:
            raise ExperimentError(
                f"chunk_trials must be >= 1, got {chunk_trials}"
            )
        out: list = []
        for start in range(0, len(rngs), chunk_trials):
            chunk = rngs[start : start + chunk_trials]
            out.extend(self._run_chunk(ctx, chunk))
        return out

    def _run_chunk(
        self, ctx: TrialContext, rngs: list[np.random.Generator]
    ) -> list:
        tracer = current_tracer()
        value: Any = None
        for stage in self.stages:
            started = time.perf_counter() if tracer is not None else 0.0
            value = stage.kernel(ctx, value, rngs)
            if tracer is not None:
                tracer.record(
                    stage.name,
                    started,
                    time.perf_counter(),
                    mode="batch",
                    trials=len(rngs),
                )
        return _per_trial_values(value, len(rngs))


def _per_trial_values(value: Any, n_trials: int) -> list:
    """Normalise a chunk's final value to one entry per trial."""
    if isinstance(value, list):
        rows = value
    elif isinstance(value, SignalBatch):
        rows = value.signals()
    elif isinstance(value, np.ndarray) and value.ndim == 2:
        rows = list(value)
    else:
        raise ExperimentError(
            "the final stage must produce a list, a SignalBatch or a "
            f"2-D array, got {type(value).__qualname__}"
        )
    if len(rows) != n_trials:
        raise ExperimentError(
            f"final stage produced {len(rows)} rows for "
            f"{n_trials} trials"
        )
    return rows


# ----------------------------------------------------------------------
# Stage builders
# ----------------------------------------------------------------------

def transmit_stage() -> Stage:
    """Inject the precomputed transmission into the trial flow.

    The expensive work — propagating the attack emission (direct wave
    plus any room reflections) and the interference bed to the victim
    — is trial-invariant and happens once per group in the pipeline's
    precompute step (:meth:`TrialPipeline.context`); this stage merely
    hands the chunk the shared arrived waveform.
    """
    return Stage(
        name="transmit", kernel=lambda ctx, value, rngs: ctx.clean_attack
    )


def _gain_rows(
    value: Signal | SignalBatch, gains: Sequence[float | None]
) -> Signal | SignalBatch:
    """Apply per-trial amplitude gains, row by row.

    ``None`` gains leave the shared waveform untouched (static
    scenarios never multiply); when any trial scales, the chunk is
    stacked with row ``i`` equal to ``value * gains[i]``.
    """
    if all(gain is None for gain in gains):
        return value
    if isinstance(value, Signal):
        rows = np.empty((len(gains), value.n_samples))
        for index, gain in enumerate(gains):
            rows[index] = (
                value.samples if gain is None else value.samples * gain
            )
        return SignalBatch.adopt(rows, value.sample_rate, value.unit)
    rows = np.empty_like(value.samples)
    for index, gain in enumerate(gains):
        rows[index] = (
            value.samples[index]
            if gain is None
            else value.samples[index] * gain
        )
    return SignalBatch.adopt(rows, value.sample_rate, value.unit)


def motion_stage(scenario: Scenario) -> Stage:
    """The walking attacker's per-trial geometry gain.

    Always present in the canonical stage list; for static scenarios
    :meth:`~repro.sim.scenario.Scenario.trial_gain` returns ``None``
    and — crucially — consumes no random draw, so the stage is free
    and stream-invisible.
    """

    def kernel(ctx, value, rngs):
        # One draw per generator, in row order.
        gains = [scenario.trial_gain(rng) for rng in rngs]
        return _gain_rows(value, gains)

    return Stage(name="motion-gain", kernel=kernel)


def level_stage(
    low_spl: float,
    high_spl: float,
    reference_spl: float,
    capture: list[float] | None = None,
) -> Stage:
    """A per-trial source-level draw, as an amplitude gain.

    The defense dataset's genuine talker speaks at a uniformly drawn
    SPL each trial. Because propagation is linear, the level is
    equivalent to a gain of ``10^((spl - reference)/20)`` on a
    transmission rendered once at ``reference_spl`` — the same
    mechanism as the walking attacker's motion gain, which is what
    lets labelled-recording synthesis share the trial pipeline.
    ``capture`` (when given) receives each drawn SPL in trial order,
    for per-row metadata.
    """
    if not low_spl <= high_spl:
        raise ExperimentError(
            f"level range [{low_spl}, {high_spl}] is inverted"
        )
    reference_pressure = spl_to_pressure(reference_spl)

    def draw(rng: np.random.Generator) -> float:
        spl = float(rng.uniform(low_spl, high_spl))
        if capture is not None:
            capture.append(spl)
        return spl_to_pressure(spl) / reference_pressure

    def kernel(ctx, value, rngs):
        return _gain_rows(value, [draw(rng) for rng in rngs])

    return Stage(name="talker-level", kernel=kernel)


def interference_stage() -> Stage:
    """Sum the precomputed interference bed at the diaphragm.

    Zero-pads to the longer of the two waveforms and adds, row by row.
    A chunk that is still a shared waveform (static scenario) stays
    shared — the bed is trial-invariant too.
    """

    def kernel(ctx, value, rngs):
        if isinstance(value, Signal):
            return value + ctx.clean_interference
        bed = ctx.clean_interference
        n_total = max(value.n_samples, bed.n_samples)
        padded = np.zeros((value.n_signals, n_total))
        padded[:, : value.n_samples] = value.samples
        bed_padded = np.zeros(n_total)
        bed_padded[: bed.n_samples] = bed.samples
        np.add(padded, bed_padded[np.newaxis, :], out=padded)
        return SignalBatch.adopt(padded, value.sample_rate, value.unit)

    return Stage(name="interference", kernel=kernel)


def ambient_stage(channel: AcousticChannel) -> Stage:
    """Add each trial's ambient-noise draw at the receiver."""
    return Stage(
        name="ambient",
        kernel=lambda ctx, value, rngs: channel.ambient_batch(
            value, list(rngs)
        ),
    )


def record_stages(microphone: Microphone) -> list[Stage]:
    """The microphone chain as pipeline stages.

    For the stock :class:`~repro.hardware.microphone.Microphone` the
    chain splits into its two halves — ``microphone`` (front-end,
    nonlinearity, anti-alias, self-noise) and ``adc`` (resample, clip,
    quantise) — each one stacked kernel. A subclassed microphone gets
    a single ``record`` stage that calls its (possibly overridden)
    :meth:`~repro.hardware.microphone.Microphone.record` once per row,
    with that row's generator, so custom hardware models keep their
    semantics.
    """
    if type(microphone) is not Microphone:

        def record(ctx, value, rngs):
            return SignalBatch.from_signals(
                [
                    microphone.record(value.row(index), rng)
                    for index, rng in enumerate(rngs)
                ]
            )

        return [Stage(name="record", kernel=record)]
    return [
        Stage(
            name="microphone",
            kernel=lambda ctx, value, rngs: microphone.record_analog_batch(
                value, list(rngs)
            ),
        ),
        Stage(
            name="adc",
            kernel=lambda ctx, value, rngs: microphone.digitize_batch(
                value
            ),
        ),
    ]


def recognize_stage(scenario: Scenario, device: VictimDevice) -> Stage:
    """Run the recogniser and fold each verdict into a TrialOutcome."""

    def fold(result, recording: Signal) -> TrialOutcome:
        return TrialOutcome(
            success=result.accepted
            and result.command == scenario.command,
            recognized_command=result.command,
            accepted=result.accepted,
            distance=result.distance,
            recording=recording,
        )

    def kernel(ctx, recordings: SignalBatch, rngs):
        rows = recordings.signals()
        results = device.recognizer.recognize_many(rows)
        return [fold(result, row) for result, row in zip(results, rows)]

    return Stage(name="recognize", kernel=kernel)


# ----------------------------------------------------------------------
# The canonical pipelines
# ----------------------------------------------------------------------

def build_pipeline(
    scenario: Scenario,
    device: VictimDevice | Microphone,
    recognize: bool = True,
    gain_stage: Stage | None = None,
    invariants: EmissionCache | None = None,
) -> TrialPipeline:
    """Assemble the trial pipeline for a (scenario, device) pair.

    This is the *single* statement of the per-trial stage order; the
    scenario runner, the engine worker and the dataset builder all
    execute the list it returns.

    Parameters
    ----------
    scenario:
        The physical setup; supplies the channel, the motion model and
        the interference bed.
    device:
        A :class:`~repro.sim.scenario.VictimDevice` (microphone +
        recogniser), or a bare
        :class:`~repro.hardware.microphone.Microphone` for
        recording-only pipelines (``recognize`` must then be False).
    recognize:
        Whether the pipeline ends in recognition (attack trials) or at
        the ADC (defense dataset synthesis wants raw recordings).
    gain_stage:
        Optional extra per-trial gain inserted after ``transmit`` —
        the defense dataset's talker-level draw
        (:func:`level_stage`). Its draw happens *before* the motion
        gain's.
    invariants:
        Optional shared :class:`~repro.sim.cache.EmissionCache` for
        the trial-invariant precompute. Passing one cache to several
        pipelines (the defense dataset builds one per cell) lets them
        share transmitted interference beds — the cache key carries
        the bed's full physical identity (sources, geometry, weather,
        rate), so sharing is always safe. ``None`` gives the pipeline
        a private bounded cache.
    """
    if isinstance(device, Microphone):
        if recognize:
            raise ExperimentError(
                "a bare Microphone cannot recognise; pass a "
                "VictimDevice or recognize=False"
            )
        microphone = device
    else:
        microphone = device.microphone
        if (
            recognize
            and scenario.command not in device.recognizer.commands
        ):
            raise ExperimentError(
                f"device {device.name!r} has no template for command "
                f"{scenario.command!r}; enrolled: "
                f"{device.recognizer.commands}"
            )
    channel = scenario.channel()
    stages: list[Stage] = [transmit_stage()]
    if gain_stage is not None:
        stages.append(gain_stage)
    stages.append(motion_stage(scenario))
    if scenario.interference:
        stages.append(interference_stage())
    stages.append(ambient_stage(channel))
    stages.extend(record_stages(microphone))
    if recognize:
        stages.append(recognize_stage(scenario, device))
    if invariants is None:
        invariants = EmissionCache(max_entries=_INVARIANT_CACHE_ENTRIES)

    def context(sources: list[PlacedSource]) -> TrialContext:
        if not sources:
            raise ExperimentError(
                "a trial needs at least one source"
            )
        clean_attack = channel.transmit(
            sources, scenario.victim_position
        )
        clean_interference = None
        if scenario.interference:
            rate = clean_attack.sample_rate
            # The bed is deterministic and trial-invariant; transmit
            # it once per physical identity, bounded, instead of once
            # per trial. The key carries everything the arrived bed
            # depends on, so a cache shared across pipelines (dataset
            # cells differing only in command or class) never
            # collides and never re-transmits.
            clean_interference = invariants.get_or_compute(
                stable_key(
                    "interference-bed",
                    scenario.interference,
                    scenario.victim_position,
                    scenario.room,
                    scenario.conditions,
                    rate,
                ),
                lambda: channel.transmit(
                    scenario.interference_sources(rate),
                    scenario.victim_position,
                ),
            )
        return TrialContext(clean_attack, clean_interference)

    return TrialPipeline(
        stages,
        context_builder=context,
        invariants=invariants,
    )
