"""End-to-end integration tests: the paper's storyline, executed.

Each test here is one sentence of the paper:

1. An inaudible ultrasound emission injects a recognised command.
2. A linear microphone is immune — the attack *is* the nonlinearity.
3. A single speaker capped to inaudibility loses its range.
4. The split array attacks from further away under the same cap.
5. The defense detects attacked recordings and passes genuine ones.
"""

import numpy as np
import pytest

from repro.acoustics.channel import AcousticChannel
from repro.acoustics.geometry import Position
from repro.attack.array import grid_array
from repro.attack.attacker import LongRangeAttacker, SingleSpeakerAttacker
from repro.attack.baselines import AudiblePlaybackAttacker
from repro.defense.dataset import DatasetConfig, build_dataset
from repro.defense.detector import InaudibleVoiceDetector
from repro.hardware.devices import (
    horn_tweeter,
    ideal_linear_microphone,
    ultrasonic_piezo_element,
)
from repro.psychoacoustics.audibility import evaluate_audibility
from repro.sim.pipeline import build_pipeline
from repro.sim.scenario import Scenario, VictimDevice

ORIGIN = Position(0.0, 2.0, 1.0)


def run_trials(scenario, device, sources, n_trials, rng):
    """``n_trials`` trials of one emission through the scenario's
    pipeline, each on its own child of ``rng``."""
    pipeline = build_pipeline(scenario, device)
    return pipeline.run_trials(
        pipeline.context(sources), rng.spawn(n_trials)
    )


@pytest.fixture(scope="module")
def device():
    return VictimDevice.phone(seed=61)


@pytest.fixture(scope="module")
def scenario():
    return Scenario(
        command="ok_google",
        attacker_position=ORIGIN,
        victim_position=Position(2.0, 2.0, 1.0),
    )


class TestAttackStoryline:
    @pytest.fixture(scope="class")
    def array_emission(self, ok_google_voice):
        array = grid_array(24, ORIGIN, ultrasonic_piezo_element)
        return LongRangeAttacker(array).emit(ok_google_voice)

    def test_inaudible_emission_injects_command(
        self, scenario, device, array_emission, rng
    ):
        # The wave arriving at the victim has no audible content...
        channel = AcousticChannel(room=None, ambient_noise_spl=None)
        arrived = channel.receive(
            list(array_emission.sources), scenario.victim_position
        )
        spectrum = np.fft.rfft(arrived.samples)
        freqs = np.fft.rfftfreq(
            arrived.n_samples, d=1.0 / arrived.sample_rate
        )
        spectrum[freqs > 18000.0] = 0.0
        audible_part = arrived.replace(
            samples=np.fft.irfft(spectrum, n=arrived.n_samples)
        )
        # The per-element constraint is enforced at the bystander; the
        # *summed* leakage of N inaudible elements can sit within a
        # couple of dB of the threshold-in-quiet. Anything inside a
        # +-3 dB band of that threshold is far below the masking floor
        # of a 40 dB SPL room (the evaluation's quietest condition) —
        # band SPLs here are around 0 dB SPL vs ~25 dB of in-band
        # room noise.
        report = evaluate_audibility(audible_part)
        assert report.margin_db < 3.0
        # ...yet the device recognises the command.
        outcomes = run_trials(
            scenario, device, array_emission.sources, 3, rng
        )
        assert sum(o.success for o in outcomes) >= 2

    def test_linear_microphone_is_immune(
        self, scenario, device, attack_emission, rng
    ):
        linear_device = VictimDevice(
            name="linear",
            microphone=ideal_linear_microphone(),
            recognizer=device.recognizer,
        )
        outcomes = run_trials(
            scenario, linear_device, attack_emission.sources, 3, rng
        )
        assert sum(o.success for o in outcomes) == 0

    def test_inaudibility_cap_kills_single_speaker_range(
        self, scenario, device, ok_google_voice, rng
    ):
        attacker = SingleSpeakerAttacker(horn_tweeter(), ORIGIN)
        emission = attacker.emit_inaudibly(ok_google_voice)
        outcomes = run_trials(
            scenario.at_distance(2.0), device, emission.sources, 3, rng
        )
        assert sum(o.success for o in outcomes) == 0

    def test_split_array_succeeds_where_single_fails(
        self, scenario, device, ok_google_voice, rng
    ):
        array = grid_array(24, ORIGIN, ultrasonic_piezo_element)
        attacker = LongRangeAttacker(array)
        emission = attacker.emit(ok_google_voice)
        # Same inaudibility rule as the capped single speaker...
        for source in emission.sources:
            assert evaluate_audibility(
                source.pressure_at_1m
            ).margin_db < 3.0
        # ...but the command lands at 4 m.
        outcomes = run_trials(
            scenario.at_distance(4.0), device, emission.sources, 3, rng
        )
        assert sum(o.success for o in outcomes) >= 2


class TestDefenseStoryline:
    @pytest.fixture(scope="class")
    def detector(self):
        config = DatasetConfig(
            commands=("ok_google", "alexa"),
            distances_m=(1.0, 2.0),
            n_trials=3,
            attacker_kind="single_full",
            seed=71,
        )
        return InaudibleVoiceDetector().fit(build_dataset(config))

    def test_detects_attacked_recording(
        self, detector, attack_recording
    ):
        assert detector.classify(attack_recording).is_attack

    def test_passes_genuine_recording(self, detector, rng):
        from repro.speech.commands import synthesize_command

        voice = synthesize_command("take_a_picture", rng)  # unseen cmd
        playback = AudiblePlaybackAttacker(ORIGIN, speech_spl_at_1m=64.0)
        channel = AcousticChannel(room=None, ambient_noise_spl=40.0)
        recording = (
            VictimDevice.phone(seed=3).microphone.record(
                channel.receive(
                    list(playback.emit(voice).sources),
                    Position(1.5, 2.0, 1.0),
                    rng,
                ),
                rng,
            )
        )
        assert not detector.classify(recording).is_attack

    def test_detects_long_range_attack_too(self, rng):
        # Trained on the matching attacker family (a deployed defense
        # would train on array attacks as well as single-speaker ones).
        config = DatasetConfig(
            commands=("ok_google", "alexa"),
            distances_m=(1.0, 2.0),
            n_trials=3,
            attacker_kind="long_range",
            n_array_speakers=16,
            seed=73,
        )
        detector = InaudibleVoiceDetector().fit(build_dataset(config))
        from repro.speech.commands import synthesize_command

        voice = synthesize_command("alexa", rng)
        array = grid_array(16, ORIGIN, ultrasonic_piezo_element)
        emission = LongRangeAttacker(array).emit(voice)
        channel = AcousticChannel(room=None, ambient_noise_spl=40.0)
        recording = VictimDevice.phone(seed=4).microphone.record(
            channel.receive(
                list(emission.sources), Position(3.0, 2.0, 1.0), rng
            ),
            rng,
        )
        assert detector.classify(recording).is_attack
