"""Labelled dataset synthesis for the defense.

Builds paired recordings through the *full physical pipeline*:

* label 0 (genuine): a talker/loudspeaker plays the command audibly at
  a randomised conversational level; the victim microphone records it.
* label 1 (attack): an inaudible attacker (single-speaker at full
  drive, or the long-range array) delivers the same command; the same
  microphone records the demodulated result.

Each recording then yields one defense feature vector. Conditions
(command, distance, trial noise) are crossed so the classifier cannot
shortcut on loudness or command identity; the experiment configs hold
out commands and distances to test generalisation.

Synthesis runs on the shared declarative trial pipeline
(:mod:`repro.sim.pipeline`), ending at the ADC instead of the
recogniser: each (command, distance, class) cell is one trial group
whose deterministic transmission — direct wave plus any room
reflections, plus the interference bed — is propagated once and whose
per-trial stages run one trial at a time. The genuine talker's
randomised level rides the pipeline's per-trial gain stage
(:func:`repro.sim.pipeline.level_stage`): propagation is linear, so a
level drawn per trial is exactly a gain on a transmission rendered
once at the reference level. ``scenario`` selects the environment
from the :mod:`repro.sim.spec` registry, which is what lets the
defense train and evaluate inside reverberant rooms, against walking
attackers and under TV interference rather than only in the free
field.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from repro.attack.array import grid_array
from repro.attack.attacker import LongRangeAttacker, SingleSpeakerAttacker
from repro.attack.baselines import AudiblePlaybackAttacker
from repro.defense.features import FEATURE_NAMES, feature_matrix
from repro.hardware.devices import (
    amazon_echo_microphone,
    android_phone_microphone,
    horn_tweeter,
    ultrasonic_piezo_element,
)
from repro.sim.pipeline import build_pipeline, level_stage
from repro.sim.scenario import Scenario
from repro.sim.spec import RIG_POSITION, ScenarioSpec, get_scenario
from repro.speech.commands import COMMAND_CORPUS, synthesize_command
from repro.errors import DefenseError, ExperimentError

#: The reference SPL (dB at 1 m) the genuine playback is *rendered*
#: at; each trial's drawn talker level is applied as a gain relative
#: to this — conversational speech, matching the
#: :class:`~repro.attack.baselines.AudiblePlaybackAttacker` default.
GENUINE_REFERENCE_SPL = 60.0


@dataclass(frozen=True)
class DatasetConfig:
    """Recipe for a labelled defense dataset.

    Parameters
    ----------
    commands:
        Corpus command names to include.
    distances_m:
        Source-to-microphone distances to cross with commands.
        Distances the chosen scenario's room cannot host are dropped
        (the sweep stays physically meaningful); at least one must
        fit.
    n_trials:
        Recordings per (command, distance, class) cell; each trial
        redraws ambient and microphone noise and the talker level.
    attacker_kind:
        ``"single_full"`` (wideband speaker at full drive — the strong,
        conspicuous attack) or ``"long_range"`` (the array).
    n_array_speakers:
        Sideband speaker count for the long-range attacker.
    device:
        ``"phone"`` or ``"echo"`` microphone preset.
    speech_spl_range:
        Genuine talker level range (uniformly drawn per trial), dB SPL
        at 1 m.
    ambient_noise_spl:
        Room noise floor, dB SPL. Honoured in the free field (the
        legacy knob); named scenarios supply their own floor — a
        living room's 42 dB, outdoor wind's 55 dB — so the
        environment, not the config, sets the noise.
    scenario:
        Named environment from the :mod:`repro.sim.spec` registry the
        recordings are made in (``"free_field"``, ``"living_room"``,
        ``"tv_interference"``, ...).
    seed:
        Master seed; the dataset is a pure function of its config.
    """

    commands: tuple[str, ...] = ("ok_google", "alexa", "take_a_picture")
    distances_m: tuple[float, ...] = (1.0, 2.0)
    n_trials: int = 5
    attacker_kind: str = "single_full"
    n_array_speakers: int = 16
    device: str = "phone"
    speech_spl_range: tuple[float, float] = (55.0, 68.0)
    ambient_noise_spl: float = 40.0
    scenario: str = "free_field"
    feature_subset: tuple[str, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.commands:
            raise DefenseError("dataset needs at least one command")
        unknown = [c for c in self.commands if c not in COMMAND_CORPUS]
        if unknown:
            raise DefenseError(f"unknown commands {unknown}")
        if not self.distances_m or any(d <= 0 for d in self.distances_m):
            raise DefenseError("distances must be a non-empty positive list")
        if self.n_trials < 1:
            raise DefenseError(f"n_trials must be >= 1, got {self.n_trials}")
        if self.attacker_kind not in ("single_full", "long_range"):
            raise DefenseError(
                f"unknown attacker_kind {self.attacker_kind!r}"
            )
        if self.device not in ("phone", "echo"):
            raise DefenseError(f"unknown device {self.device!r}")
        low, high = self.speech_spl_range
        if not 30 <= low <= high <= 100:
            raise DefenseError(
                f"implausible speech SPL range {self.speech_spl_range}"
            )
        try:
            self.resolve_scenario()
        except ExperimentError as error:
            raise DefenseError(str(error)) from None

    def resolve_scenario(self) -> ScenarioSpec:
        """The registry spec the recordings are made in."""
        return get_scenario(self.scenario)


@dataclass
class LabeledDataset:
    """Feature matrix + labels + per-row condition metadata."""

    features: np.ndarray
    labels: np.ndarray
    metadata: list[dict] = field(repr=False)
    feature_names: tuple[str, ...] = FEATURE_NAMES

    def __post_init__(self) -> None:
        if self.features.shape[0] != self.labels.shape[0]:
            raise DefenseError("features/labels row counts differ")
        if len(self.metadata) != self.features.shape[0]:
            raise DefenseError("metadata length mismatch")

    @property
    def n_samples(self) -> int:
        """Number of labelled recordings."""
        return int(self.features.shape[0])

    def split(
        self, train_fraction: float, rng: np.random.Generator
    ) -> tuple["LabeledDataset", "LabeledDataset"]:
        """Random stratified-ish split into train and test subsets."""
        if not 0 < train_fraction < 1:
            raise DefenseError(
                f"train_fraction must be in (0, 1), got {train_fraction}"
            )
        order = rng.permutation(self.n_samples)
        n_train = max(1, int(round(train_fraction * self.n_samples)))
        n_train = min(n_train, self.n_samples - 1)
        return self._subset(order[:n_train]), self._subset(order[n_train:])

    def filter(self, predicate) -> "LabeledDataset":
        """Subset by a metadata predicate (e.g. held-out commands)."""
        indices = np.array(
            [i for i, meta in enumerate(self.metadata) if predicate(meta)],
            dtype=int,
        )
        if indices.size == 0:
            raise DefenseError("filter produced an empty dataset")
        return self._subset(indices)

    def select(self, names: tuple[str, ...]) -> "LabeledDataset":
        """The same rows restricted to the feature columns ``names``.

        Equal to building the dataset with ``feature_subset=names``:
        the features are per-column, so selecting columns afterwards
        changes no value.
        """
        unknown = [name for name in names if name not in self.feature_names]
        if unknown or not names:
            raise DefenseError(
                f"cannot select features {names!r} from "
                f"{self.feature_names}"
            )
        indices = [self.feature_names.index(name) for name in names]
        return LabeledDataset(
            features=self.features[:, indices],
            labels=self.labels,
            metadata=self.metadata,
            feature_names=tuple(names),
        )

    def _subset(self, indices: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(
            features=self.features[indices],
            labels=self.labels[indices],
            metadata=[self.metadata[i] for i in indices],
            feature_names=self.feature_names,
        )


def _microphone(device: str):
    if device == "phone":
        return android_phone_microphone()
    return amazon_echo_microphone()


def _build_attacker(config: DatasetConfig, position):
    if config.attacker_kind == "single_full":
        return SingleSpeakerAttacker(horn_tweeter(), position)
    array = grid_array(
        config.n_array_speakers, position, ultrasonic_piezo_element
    )
    return LongRangeAttacker(array, allocation_strategy="waterfill")


def _cell_scenario(
    spec: ScenarioSpec, config: DatasetConfig, command: str, distance: float
) -> Scenario:
    """The concrete scenario one dataset cell records in."""
    scenario = spec.build(command, distance_m=distance)
    if config.scenario == "free_field":
        # The legacy knob: a free-field dataset keeps its configurable
        # floor; named environments bring their own.
        scenario = dc_replace(
            scenario, ambient_noise_spl=config.ambient_noise_spl
        )
    return scenario


def build_dataset(config: DatasetConfig) -> LabeledDataset:
    """Synthesise the dataset a :class:`DatasetConfig` describes.

    Attack emissions are generated once per command and reused across
    distances and trials (the waveform the attacker radiates does not
    depend on them), and the genuine playback is rendered once per
    command at :data:`GENUINE_REFERENCE_SPL`; trial variation comes
    from ambient noise, microphone self-noise and the talker-level
    gain. Every (command, distance, class) cell executes through the
    shared trial pipeline, and features come from one batched pass
    over every recording.
    """
    spec = config.resolve_scenario()
    try:
        distances = spec.clamp_distances(config.distances_m)
    except ExperimentError as error:
        raise DefenseError(str(error)) from None
    rng = np.random.default_rng(config.seed)
    microphone = _microphone(config.device)
    attacker = _build_attacker(config, RIG_POSITION)
    low_spl, high_spl = config.speech_spl_range
    names = config.feature_subset or FEATURE_NAMES
    recordings = []
    labels: list[int] = []
    metadata: list[dict] = []
    for command in config.commands:
        voice = synthesize_command(command, rng)
        attack_sources = list(attacker.emit(voice).sources)
        playback = AudiblePlaybackAttacker(
            RIG_POSITION, speech_spl_at_1m=GENUINE_REFERENCE_SPL
        )
        genuine_sources = list(playback.emit(voice).sources)
        for distance in distances:
            scenario = _cell_scenario(spec, config, command, distance)
            # Genuine cell: the talker-level draw is the pipeline's
            # per-trial gain stage, so its draw order (level, then
            # ambient, then self-noise) is fixed by the stage list.
            levels: list[float] = []
            genuine_pipeline = build_pipeline(
                scenario,
                microphone,
                recognize=False,
                gain_stage=level_stage(
                    low_spl,
                    high_spl,
                    GENUINE_REFERENCE_SPL,
                    capture=levels,
                ),
            )
            genuine_recordings = genuine_pipeline.run_trials(
                genuine_pipeline.context(genuine_sources),
                rng.spawn(config.n_trials),
            )
            for recording, spl in zip(genuine_recordings, levels):
                recordings.append(recording)
                labels.append(0)
                metadata.append(
                    {
                        "command": command,
                        "distance_m": distance,
                        "kind": "genuine",
                        "speech_spl": spl,
                        "scenario": config.scenario,
                    }
                )
            # Attack cell: same environment, same stage list minus the
            # talker gain.
            attack_pipeline = build_pipeline(
                scenario,
                microphone,
                recognize=False,
            )
            attack_recordings = attack_pipeline.run_trials(
                attack_pipeline.context(attack_sources),
                rng.spawn(config.n_trials),
            )
            for recording in attack_recordings:
                recordings.append(recording)
                labels.append(1)
                metadata.append(
                    {
                        "command": command,
                        "distance_m": distance,
                        "kind": config.attacker_kind,
                        "scenario": config.scenario,
                    }
                )
    # Feature extraction is deferred to one batched pass over every
    # recording; equal-length rows share stacked PSDs and envelopes.
    return LabeledDataset(
        features=feature_matrix(recordings, subset=names),
        labels=np.asarray(labels, dtype=int),
        metadata=metadata,
        feature_names=tuple(names),
    )
