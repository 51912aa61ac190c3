"""Shared fixtures.

Expensive artefacts (synthesised commands, attack emissions, enrolled
recognisers) are session-scoped: they are deterministic given their
seeds, so sharing them across tests changes nothing observable while
keeping the suite fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acoustics.channel import AcousticChannel
from repro.acoustics.geometry import Position
from repro.attack.attacker import SingleSpeakerAttacker
from repro.hardware.devices import android_phone_microphone, horn_tweeter
from repro.speech.commands import synthesize_command
from repro.speech.recognizer import KeywordRecognizer


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/ reference tables from the current "
        "code instead of comparing against them",
    )


@pytest.fixture(scope="session")
def experiment_tables():
    """Every experiment's quick-mode table (seed 0).

    Session-scoped and shared by the structural experiment tests and
    the golden-trace comparisons, so the full 16-experiment sweep runs
    exactly once per pytest session.
    """
    from repro.experiments import ALL_EXPERIMENTS

    return {
        name: module.run(quick=True, seed=0)
        for name, module in ALL_EXPERIMENTS.items()
    }


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def session_rng() -> np.random.Generator:
    """Session-wide generator for building shared artefacts."""
    return np.random.default_rng(777)


@pytest.fixture(scope="session")
def ok_google_voice(session_rng):
    """One synthesised 'okay google' waveform shared by many tests."""
    return synthesize_command("ok_google", session_rng)


@pytest.fixture(scope="session")
def alexa_voice(session_rng):
    """One synthesised 'alexa' waveform."""
    return synthesize_command("alexa", session_rng)


@pytest.fixture(scope="session")
def attack_emission(ok_google_voice):
    """A full-drive single-speaker attack emission (expensive)."""
    attacker = SingleSpeakerAttacker(
        horn_tweeter(), Position(0.0, 2.0, 1.0)
    )
    return attacker.emit(ok_google_voice, drive_level=1.0)


@pytest.fixture(scope="session")
def attack_recording(attack_emission):
    """The phone's recording of the attack at 2 m."""
    rng = np.random.default_rng(42)
    channel = AcousticChannel(room=None, ambient_noise_spl=40.0)
    arrived = channel.receive(
        list(attack_emission.sources), Position(2.0, 2.0, 1.0), rng
    )
    return android_phone_microphone().record(arrived, rng)


@pytest.fixture(scope="session")
def enrolled_recognizer():
    """A recogniser enrolled (multi-condition) on three commands."""
    recognizer = KeywordRecognizer()
    rng = np.random.default_rng(1234)
    for name in ("ok_google", "alexa", "take_a_picture"):
        wave = synthesize_command(name, rng)
        recognizer.enroll_multi_condition(name, wave, rng)
    return recognizer
