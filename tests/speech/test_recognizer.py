"""Unit tests for the DTW keyword recogniser."""

import numpy as np
import pytest

from repro.dsp.signals import white_noise
from repro.speech.commands import synthesize_command
from repro.speech.recognizer import KeywordRecognizer
from repro.errors import RecognitionError


class TestEnrollment:
    def test_commands_listed(self, enrolled_recognizer):
        assert enrolled_recognizer.commands == [
            "alexa",
            "ok_google",
            "take_a_picture",
        ]

    def test_recognize_before_enroll_rejected(self, ok_google_voice):
        with pytest.raises(RecognitionError):
            KeywordRecognizer().recognize(ok_google_voice)

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(RecognitionError):
            KeywordRecognizer(acceptance_threshold=-1.0)
        with pytest.raises(RecognitionError):
            KeywordRecognizer(band_fraction=0.0)


class TestCleanRecognition:
    def test_recognizes_fresh_synthesis(self, enrolled_recognizer):
        rng = np.random.default_rng(99)
        for name in ("ok_google", "alexa", "take_a_picture"):
            wave = synthesize_command(name, rng)
            result = enrolled_recognizer.recognize(wave)
            assert result.accepted
            assert result.command == name

    def test_recognizes_as_requires_both(self, enrolled_recognizer):
        rng = np.random.default_rng(98)
        wave = synthesize_command("alexa", rng)
        assert enrolled_recognizer.recognizes_as(wave, "alexa")
        assert not enrolled_recognizer.recognizes_as(wave, "ok_google")

    def test_margin_positive_for_clean_input(self, enrolled_recognizer):
        rng = np.random.default_rng(97)
        wave = synthesize_command("alexa", rng)
        result = enrolled_recognizer.recognize(wave)
        assert result.margin() > 0

    def test_device_rate_independence(self, enrolled_recognizer):
        # The canonical-rate front end makes 16 kHz and 48 kHz inputs
        # comparable — a regression guard for the echo-vs-phone bug.
        from repro.dsp.resample import resample

        rng = np.random.default_rng(96)
        wave = synthesize_command("alexa", rng)
        low_rate = resample(wave, 16000.0)
        d48 = enrolled_recognizer.recognize(wave).distance
        d16 = enrolled_recognizer.recognize(low_rate).distance
        assert d16 == pytest.approx(d48, abs=0.5)


class TestNoiseRobustness:
    def test_accepts_moderate_noise(self, enrolled_recognizer):
        rng = np.random.default_rng(95)
        wave = synthesize_command("ok_google", rng)
        noise = white_noise(
            wave.duration, wave.sample_rate, rng,
            rms_level=0.1 * wave.rms(),
        ).padded_to(wave.n_samples)
        result = enrolled_recognizer.recognize(wave + noise)
        assert result.accepted
        assert result.command == "ok_google"

    def test_rejects_pure_noise(self, enrolled_recognizer):
        rng = np.random.default_rng(94)
        noise = white_noise(0.8, 48000.0, rng, rms_level=0.1)
        result = enrolled_recognizer.recognize(noise)
        assert not result.accepted

    def test_accuracy_degrades_with_noise(self, enrolled_recognizer):
        rng = np.random.default_rng(93)
        names = ("ok_google", "alexa", "take_a_picture")

        def accuracy(noise_factor):
            correct = 0
            for name in names:
                wave = synthesize_command(name, rng)
                noise = white_noise(
                    wave.duration, wave.sample_rate, rng,
                    rms_level=noise_factor * wave.rms(),
                ).padded_to(wave.n_samples)
                correct += enrolled_recognizer.recognizes_as(
                    wave + noise, name
                )
            return correct / len(names)

        assert accuracy(0.05) >= accuracy(8.0)
        assert accuracy(8.0) < 1.0


class TestDtwInternals:
    @staticmethod
    def distance(recognizer, a, b):
        return recognizer._dtw_distance_batch([(a, b)])[0]

    def test_identical_sequences_zero_distance(self):
        recognizer = KeywordRecognizer()
        features = np.random.default_rng(1).normal(size=(40, 10))
        assert self.distance(recognizer, features, features) == pytest.approx(
            0.0
        )

    def test_time_warped_sequence_close(self):
        recognizer = KeywordRecognizer()
        rng = np.random.default_rng(2)
        base = np.cumsum(rng.normal(size=(50, 8)), axis=0)
        stretched = np.repeat(base, 2, axis=0)[::2][:50]
        warped_distance = self.distance(recognizer, base, stretched)
        other = np.cumsum(rng.normal(size=(50, 8)), axis=0)
        random_distance = self.distance(recognizer, base, other)
        assert warped_distance < random_distance

    def test_empty_features_rejected(self):
        recognizer = KeywordRecognizer()
        with pytest.raises(RecognitionError):
            self.distance(recognizer, np.zeros((0, 4)), np.zeros((5, 4)))
