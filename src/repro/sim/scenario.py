"""Scenario descriptions: who attacks what, where — and around whom.

A :class:`Scenario` is pure data; the trial pipeline
(:mod:`repro.sim.pipeline`) executes it. Beyond the original
free-field geometry a scenario can now carry the environmental
features real deployments face:

* a :class:`~repro.acoustics.geometry.Room` (first-order reflections
  intermodulate at the microphone exactly like direct waves);
* :class:`InterferenceSource` entries — competing audio such as a TV
  or mains hum, rendered deterministically and summed at the diaphragm
  with the attack waves;
* an :class:`AttackerMotion` model — per-trial geometry perturbation
  of a walking attacker, expressed as a far-field amplitude factor so
  each trial's row is the shared transmission times one gain;
* optional :class:`~repro.acoustics.atmosphere.AtmosphericConditions`
  (weather) feeding the ISO 9613-1 absorption model.

Victim devices bundle a microphone preset with a recogniser enrolled
on the command corpus, mirroring "an Echo with Alexa" as one object.
Named, registry-backed environment presets live in
:mod:`repro.sim.spec`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.acoustics.atmosphere import AtmosphericConditions
from repro.acoustics.channel import AcousticChannel, PlacedSource
from repro.acoustics.geometry import Position, Room
from repro.acoustics.propagation import PropagationModel
from repro.acoustics.spl import spl_to_pressure
from repro.dsp.filters import band_pass
from repro.dsp.signals import Signal, Unit, multi_tone, white_noise
from repro.hardware.devices import (
    amazon_echo_microphone,
    android_phone_microphone,
)
from repro.hardware.microphone import Microphone
from repro.sim.cache import process_cache, stable_key
from repro.speech.commands import COMMAND_CORPUS, synthesize_command
from repro.speech.recognizer import KeywordRecognizer
from repro.errors import ExperimentError

#: Interference kinds :func:`interference_waveform` can render.
INTERFERENCE_KINDS = ("speech_babble", "music", "hum")


@dataclass
class VictimDevice:
    """A voice assistant: microphone + enrolled recogniser.

    Build via :meth:`phone` / :meth:`echo` so every experiment shares
    identical device definitions.
    """

    name: str
    microphone: Microphone
    recognizer: KeywordRecognizer

    @staticmethod
    def _enrolled_recognizer(
        commands: tuple[str, ...], seed: int
    ) -> KeywordRecognizer:
        recognizer = KeywordRecognizer()
        rng = np.random.default_rng(seed)
        for command in commands:
            wave = synthesize_command(command, rng)
            recognizer.enroll_multi_condition(command, wave, rng)
        return recognizer

    @classmethod
    def phone(
        cls,
        commands: tuple[str, ...] = ("ok_google", "alexa", "take_a_picture"),
        seed: int = 1234,
    ) -> "VictimDevice":
        """An Android-phone-like device (exposed 48 kHz microphone)."""
        return cls(
            name="phone",
            microphone=android_phone_microphone(),
            recognizer=cls._enrolled_recognizer(commands, seed),
        )

    @classmethod
    def echo(
        cls,
        commands: tuple[str, ...] = ("alexa", "add_milk", "play_music"),
        seed: int = 1234,
    ) -> "VictimDevice":
        """An Amazon-Echo-like device (covered 16 kHz microphone)."""
        return cls(
            name="echo",
            microphone=amazon_echo_microphone(),
            recognizer=cls._enrolled_recognizer(commands, seed),
        )


@dataclass(frozen=True)
class InterferenceSource:
    """Deterministic competing audio placed in the scene.

    The waveform is rendered reproducibly from ``(kind, seed,
    duration_s, level_spl)`` by :func:`interference_waveform`, so the
    interference is trial-invariant: it propagates to the victim once
    per trial group exactly like the attack emission does, and only
    the noise draws differ between trials.

    Attributes
    ----------
    kind:
        One of :data:`INTERFERENCE_KINDS` — ``"speech_babble"``
        (speech-band noise, a TV or talking people), ``"music"``
        (sustained chord with slow amplitude movement) or ``"hum"``
        (mains fundamental plus harmonics).
    position:
        Where the interfering loudspeaker sits.
    level_spl:
        SPL (dB re 20 µPa) of the rendered waveform at the 1 m
        reference distance.
    seed:
        Seed of the private generator the waveform is rendered from.
    duration_s:
        Rendered duration; long enough to cover any attack command.
    """

    kind: str
    position: Position
    level_spl: float = 60.0
    seed: int = 0
    duration_s: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in INTERFERENCE_KINDS:
            raise ExperimentError(
                f"unknown interference kind {self.kind!r}; available: "
                f"{INTERFERENCE_KINDS}"
            )
        if not 0.0 <= self.level_spl <= 100.0:
            raise ExperimentError(
                f"interference level {self.level_spl} dB SPL outside "
                "[0, 100]"
            )
        if self.duration_s <= 0:
            raise ExperimentError(
                f"interference duration must be positive, got "
                f"{self.duration_s}"
            )


def interference_waveform(
    source: InterferenceSource, sample_rate: float
) -> Signal:
    """Render one interference source's pressure waveform at 1 m.

    Deterministic in ``(source, sample_rate)`` and kept in the
    process cache (:func:`~repro.sim.cache.process_cache`), so trial
    groups, dataset cells and repeated sweeps all share one
    rendered array per process. The result is a read-only
    :class:`Signal` in pascals, RMS-scaled to ``source.level_spl``.
    """
    return process_cache().get_or_compute(
        stable_key("interference-waveform", source, sample_rate),
        lambda: _render_interference(source, sample_rate),
    )


def _render_interference(
    source: InterferenceSource, sample_rate: float
) -> Signal:
    rng = np.random.default_rng(source.seed)
    if source.kind == "speech_babble":
        raw = white_noise(
            source.duration_s, sample_rate, rng, unit=Unit.PASCAL
        )
        wave = band_pass(raw, 150.0, 4000.0, order=4)
    elif source.kind == "music":
        chord = multi_tone(
            [(220.0, 1.0), (277.2, 0.8), (329.6, 0.6), (440.0, 0.4)],
            source.duration_s,
            sample_rate,
            unit=Unit.PASCAL,
        )
        # Slow amplitude movement so the interference is not a steady
        # state the recogniser's normalisation could cancel outright.
        t = chord.times()
        envelope = 1.0 + 0.3 * np.sin(2.0 * np.pi * 0.7 * t)
        wave = chord.replace(samples=chord.samples * envelope)
    else:  # "hum" — validated by InterferenceSource
        wave = multi_tone(
            [(50.0, 1.0), (100.0, 0.5), (150.0, 0.25)],
            source.duration_s,
            sample_rate,
            unit=Unit.PASCAL,
        )
    return wave.scaled_to_rms(spl_to_pressure(source.level_spl))


@dataclass(frozen=True)
class TrajectoryLeg:
    """One leg of a multi-leg walk: a dwell region along the axis.

    A leg is a uniform excursion of width ``span_m`` centred
    ``offset_m`` away from the resting distance — "standing two steps
    closer", "pacing near the door". A multi-leg
    :class:`AttackerMotion` picks a leg per trial, so the distance
    distribution becomes a mixture instead of a single interval.
    """

    offset_m: float
    span_m: float

    def __post_init__(self) -> None:
        if self.span_m <= 0:
            raise ExperimentError(
                f"leg span must be positive, got {self.span_m}"
            )
        if not np.isfinite(self.offset_m):
            raise ExperimentError(
                f"leg offset must be finite, got {self.offset_m}"
            )


@dataclass(frozen=True)
class AttackerMotion:
    """A walking attacker, as a per-trial geometry perturbation.

    Each trial displaces the attacker along the attacker-victim axis
    by a uniform draw in ``[-span_m/2, +span_m/2]``. The displacement
    is applied as a far-field *amplitude* factor — pressure scales as
    ``1/d``, so trial ``i`` hears the group's shared transmission
    scaled by ``d0 / d_i``. Phase/delay changes over sub-metre
    displacements are second-order for envelope-demodulated commands
    and are deliberately not modelled; keeping the perturbation a pure
    gain is what lets the trial pipeline transmit once per group and
    scale that shared wave per trial.

    Attributes
    ----------
    span_m:
        Peak-to-peak walk range along the attacker-victim axis
        (ignored when ``legs`` is non-empty).
    min_distance_m:
        Closest approach; displacement draws are clamped so the
        effective distance never collapses to (or through) zero.
    legs:
        Optional multi-leg walk: each trial first picks one
        :class:`TrajectoryLeg` uniformly, then draws its displacement
        within that leg. Empty (the default) keeps the original
        single-interval walk and its exact random stream, so adding
        the feature changed nothing about existing scenarios.
    """

    span_m: float
    min_distance_m: float = 0.25
    legs: tuple[TrajectoryLeg, ...] = ()

    def __post_init__(self) -> None:
        if self.span_m <= 0:
            raise ExperimentError(
                f"motion span must be positive, got {self.span_m}"
            )
        if self.min_distance_m <= 0:
            raise ExperimentError(
                "minimum approach distance must be positive, got "
                f"{self.min_distance_m}"
            )
        for leg in self.legs:
            if not isinstance(leg, TrajectoryLeg):
                raise ExperimentError(
                    f"legs must be TrajectoryLeg instances, got "
                    f"{type(leg).__qualname__}"
                )

    def trial_gain(
        self, base_distance_m: float, rng: np.random.Generator
    ) -> float:
        """Amplitude factor for one trial.

        Single-interval walks consume exactly one uniform draw (the
        original stream contract); multi-leg walks consume one
        integer draw (the leg) followed by one uniform draw (the
        displacement within it). Both execution pipelines call this
        per trial generator, so the draw order is mode-invariant by
        construction.
        """
        if self.legs:
            leg = self.legs[int(rng.integers(len(self.legs)))]
            delta = leg.offset_m + rng.uniform(
                -leg.span_m / 2.0, leg.span_m / 2.0
            )
        else:
            delta = rng.uniform(-self.span_m / 2.0, self.span_m / 2.0)
        effective = max(base_distance_m + delta, self.min_distance_m)
        return base_distance_m / effective


@dataclass(frozen=True)
class Scenario:
    """One physical experiment setup.

    Attributes
    ----------
    command:
        Corpus command name the attacker tries to inject.
    attacker_position:
        Attack rig location (array centroid).
    victim_position:
        Victim device location.
    room:
        Optional room (``None`` = free field); when set, positions must
        lie inside it.
    ambient_noise_spl:
        Background noise level at the victim, dB SPL.
    interference:
        Deterministic competing audio sources summed at the diaphragm
        with the attack waves (a TV across the room, mains hum, ...).
    motion:
        Optional walking-attacker model; each trial perturbs the
        attack's arrived amplitude by a drawn distance factor.
    conditions:
        Optional weather (temperature/humidity/pressure) driving the
        ISO 9613-1 absorption model; ``None`` uses the indoor default.
    """

    command: str
    attacker_position: Position
    victim_position: Position
    room: Room | None = None
    ambient_noise_spl: float = 40.0
    interference: tuple[InterferenceSource, ...] = ()
    motion: AttackerMotion | None = None
    conditions: AtmosphericConditions | None = None

    def __post_init__(self) -> None:
        if self.command not in COMMAND_CORPUS:
            raise ExperimentError(
                f"unknown command {self.command!r}; available: "
                f"{sorted(COMMAND_CORPUS)}"
            )
        if self.room is not None:
            self.room.require_inside(self.attacker_position, "attacker")
            self.room.require_inside(self.victim_position, "victim")
            for source in self.interference:
                self.room.require_inside(
                    source.position, "interference source"
                )
        if self.ambient_noise_spl < 0 or self.ambient_noise_spl > 90:
            raise ExperimentError(
                f"ambient noise {self.ambient_noise_spl} dB SPL outside "
                "[0, 90]"
            )

    @property
    def distance_m(self) -> float:
        """Attacker-to-victim distance."""
        return self.attacker_position.distance_to(self.victim_position)

    def at_distance(self, distance_m: float) -> "Scenario":
        """A copy with the victim moved to ``distance_m`` along +x."""
        if distance_m <= 0:
            raise ExperimentError(
                f"distance must be positive, got {distance_m}"
            )
        return Scenario(
            command=self.command,
            attacker_position=self.attacker_position,
            victim_position=self.attacker_position.translated(
                distance_m, 0.0, 0.0
            ),
            room=self.room,
            ambient_noise_spl=self.ambient_noise_spl,
            interference=self.interference,
            motion=self.motion,
            conditions=self.conditions,
        )

    def channel(self) -> AcousticChannel:
        """The acoustic channel this scenario plays out on.

        The trial pipeline's precompute and ambient stage both use
        it, so every trial propagates over the *same* model (same
        room, same weather conditions, same noise floor).
        """
        propagation = (
            PropagationModel(conditions=self.conditions)
            if self.conditions is not None
            else PropagationModel()
        )
        return AcousticChannel(
            room=self.room,
            propagation=propagation,
            ambient_noise_spl=self.ambient_noise_spl,
        )

    def interference_sources(
        self, sample_rate: float
    ) -> list[PlacedSource]:
        """Placed, rendered interference waveforms at ``sample_rate``.

        Deterministic (and cached per process), so the interference
        bed is trial-invariant and both execution pipelines can treat
        it exactly like a second emission.
        """
        return [
            PlacedSource(
                interference_waveform(source, sample_rate),
                source.position,
            )
            for source in self.interference
        ]

    def trial_gain(self, rng: np.random.Generator) -> float | None:
        """The motion amplitude factor for one trial.

        Returns ``None`` — and, crucially, consumes **no** random
        draw — for static scenarios, so adding the motion feature
        changed nothing about existing scenarios' random streams.
        """
        if self.motion is None:
            return None
        return self.motion.trial_gain(self.distance_m, rng)
