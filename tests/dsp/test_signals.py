"""Unit tests for the Signal container and waveform factories."""

import numpy as np
import pytest
from hypothesis import given, settings

from strategies import signal_batches, signals
from repro.dsp.signals import (
    Signal,
    Unit,
    chirp,
    mix,
    multi_tone,
    silence,
    tone,
    white_noise,
)
from repro.errors import SampleRateError, SignalDomainError


class TestSignalConstruction:
    def test_basic_properties(self):
        s = Signal([0.0, 1.0, 0.0, -1.0], 4.0)
        assert s.n_samples == 4
        assert s.duration == pytest.approx(1.0)
        assert s.nyquist == pytest.approx(2.0)
        assert s.unit == Unit.DIGITAL

    def test_samples_are_copied_and_read_only(self):
        source = np.array([1.0, 2.0])
        s = Signal(source, 10.0)
        source[0] = 99.0
        assert s.samples[0] == 1.0
        with pytest.raises(ValueError):
            s.samples[0] = 5.0

    def test_rejects_2d_arrays(self):
        with pytest.raises(SignalDomainError):
            Signal(np.zeros((2, 2)), 10.0)

    def test_rejects_nan_samples(self):
        with pytest.raises(SignalDomainError):
            Signal([0.0, np.nan], 10.0)

    def test_rejects_non_positive_rate(self):
        with pytest.raises(SampleRateError):
            Signal([0.0], 0.0)
        with pytest.raises(SampleRateError):
            Signal([0.0], -48000.0)

    def test_rejects_unknown_unit(self):
        with pytest.raises(SignalDomainError):
            Signal([0.0], 10.0, unit="furlongs")


class TestSignalStatistics:
    def test_rms_of_sine(self):
        s = tone(10.0, 1.0, 1000.0, amplitude=2.0)
        assert s.rms() == pytest.approx(2.0 / np.sqrt(2.0), rel=1e-3)

    def test_peak(self):
        s = Signal([0.5, -3.0, 1.0], 10.0)
        assert s.peak() == 3.0

    def test_energy_is_sum_of_squares(self):
        s = Signal([1.0, 2.0], 10.0)
        assert s.energy() == pytest.approx(5.0)

    def test_empty_signal_statistics(self):
        s = Signal([], 10.0)
        assert s.rms() == 0.0
        assert s.peak() == 0.0


class TestSignalArithmetic:
    def test_add_pads_shorter_operand(self):
        a = Signal([1.0, 1.0, 1.0], 10.0)
        b = Signal([1.0], 10.0)
        total = a + b
        assert total.n_samples == 3
        assert list(total.samples) == [2.0, 1.0, 1.0]

    def test_add_rejects_rate_mismatch(self):
        a = Signal([1.0], 10.0)
        b = Signal([1.0], 20.0)
        with pytest.raises(SampleRateError):
            a + b

    def test_add_rejects_unit_mismatch(self):
        a = Signal([1.0], 10.0, Unit.PASCAL)
        b = Signal([1.0], 10.0, Unit.VOLT)
        with pytest.raises(SignalDomainError):
            a + b

    def test_scalar_multiplication(self):
        s = Signal([1.0, -2.0], 10.0) * 3.0
        assert list(s.samples) == [3.0, -6.0]

    def test_pointwise_product_truncates_to_shorter(self):
        a = Signal([2.0, 2.0, 2.0], 10.0)
        b = Signal([3.0, 4.0], 10.0)
        product = a * b
        assert list(product.samples) == [6.0, 8.0]

    def test_negation(self):
        s = -Signal([1.0, -2.0], 10.0)
        assert list(s.samples) == [-1.0, 2.0]

    def test_equality(self):
        a = Signal([1.0, 2.0], 10.0)
        assert a == Signal([1.0, 2.0], 10.0)
        assert a != Signal([1.0, 2.0], 20.0)


class TestSignalShaping:
    def test_scaled_to_peak(self):
        s = Signal([0.5, -0.25], 10.0).scaled_to_peak(2.0)
        assert s.peak() == pytest.approx(2.0)

    def test_scaled_to_peak_of_silence_is_noop(self):
        s = Signal([0.0, 0.0], 10.0).scaled_to_peak(1.0)
        assert s.peak() == 0.0

    def test_scaled_to_rms(self):
        s = tone(5.0, 1.0, 100.0).scaled_to_rms(3.0)
        assert s.rms() == pytest.approx(3.0, rel=1e-6)

    def test_slice_time(self):
        s = Signal(np.arange(10.0), 10.0)
        part = s.slice_time(0.2, 0.5)
        assert list(part.samples) == [2.0, 3.0, 4.0]

    def test_padded(self):
        s = Signal([1.0], 10.0).padded(2, 3)
        assert list(s.samples) == [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]

    def test_padded_to_shorter_raises(self):
        with pytest.raises(SignalDomainError):
            Signal([1.0, 2.0], 10.0).padded_to(1)

    def test_faded_edges_attenuate(self):
        s = tone(10.0, 1.0, 1000.0).faded(0.1)
        assert abs(s.samples[0]) < 1e-9
        assert abs(s.samples[-1]) < 1e-9

    def test_fade_longer_than_half_raises(self):
        with pytest.raises(SignalDomainError):
            tone(10.0, 0.1, 1000.0).faded(0.06)

    def test_concat(self):
        a = Signal([1.0], 10.0)
        b = Signal([2.0], 10.0)
        assert list(a.concat(b).samples) == [1.0, 2.0]


class TestFactories:
    def test_tone_frequency_is_dominant(self):
        from repro.dsp.spectrum import dominant_frequency

        s = tone(440.0, 0.5, 48000.0)
        assert dominant_frequency(s) == pytest.approx(440.0, abs=5.0)

    def test_tone_above_nyquist_raises(self):
        with pytest.raises(SignalDomainError):
            tone(600.0, 1.0, 1000.0)

    def test_multi_tone_contains_components(self):
        from repro.dsp.spectrum import welch_psd

        s = multi_tone([(100.0, 1.0), (300.0, 0.5)], 1.0, 4000.0)
        psd = welch_psd(s)
        assert psd.band_power(90, 110) > psd.band_power(190, 210)
        assert psd.band_power(290, 310) > psd.band_power(190, 210)

    def test_multi_tone_empty_raises(self):
        with pytest.raises(SignalDomainError):
            multi_tone([], 1.0, 4000.0)

    def test_chirp_endpoints_validated(self):
        with pytest.raises(SignalDomainError):
            chirp(10.0, 5000.0, 1.0, 8000.0)

    def test_white_noise_rms(self, rng):
        s = white_noise(2.0, 8000.0, rng, rms_level=0.5)
        assert s.rms() == pytest.approx(0.5, rel=0.05)

    def test_white_noise_requires_rng(self, rng):
        s1 = white_noise(0.1, 1000.0, np.random.default_rng(1))
        s2 = white_noise(0.1, 1000.0, np.random.default_rng(1))
        assert s1 == s2

    def test_silence(self):
        s = silence(0.5, 100.0)
        assert s.n_samples == 50
        assert s.rms() == 0.0

    def test_mix_sums_and_pads(self):
        a = tone(10.0, 0.2, 1000.0)
        b = tone(10.0, 0.1, 1000.0)
        total = mix([a, b])
        assert total.n_samples == a.n_samples
        assert total.samples[0] == pytest.approx(2.0)

    def test_mix_empty_raises(self):
        with pytest.raises(SignalDomainError):
            mix([])


class TestSignalBatchProperties:
    """Container invariants driven by the suite-wide strategies."""

    @given(batch=signal_batches())
    @settings(max_examples=25, deadline=None)
    def test_from_signals_round_trips_rows(self, batch):
        from repro.dsp.signals import SignalBatch

        rebuilt = SignalBatch.from_signals(batch.signals())
        assert np.array_equal(rebuilt.samples, batch.samples)
        assert rebuilt.sample_rate == batch.sample_rate
        assert rebuilt.unit == batch.unit

    @given(signal=signals())
    @settings(max_examples=25, deadline=None)
    def test_scaled_to_peak_hits_target_or_stays_silent(self, signal):
        scaled = signal.scaled_to_peak(1.0)
        if signal.peak() == 0.0:
            assert scaled.peak() == 0.0
        else:
            assert scaled.peak() == pytest.approx(1.0)

    @given(signal=signals(min_samples=2))
    @settings(max_examples=25, deadline=None)
    def test_mix_with_silence_is_identity(self, signal):
        from repro.dsp.signals import silence

        quiet = silence(0.0, signal.sample_rate, unit=signal.unit)
        assert np.array_equal(
            mix([signal, quiet]).samples, signal.samples
        )


class TestSignalBatchAdopt:
    """The no-copy constructor keeps every container invariant."""

    def _fresh(self):
        return np.zeros((2, 8), dtype=np.float64)

    def test_adopts_conforming_array_without_copy(self):
        from repro.dsp.signals import SignalBatch

        arr = self._fresh()
        batch = SignalBatch.adopt(arr, 8000.0)
        assert batch.samples is arr

    def test_result_is_read_only(self):
        from repro.dsp.signals import SignalBatch

        batch = SignalBatch.adopt(self._fresh(), 8000.0)
        with pytest.raises(ValueError):
            batch.samples[0, 0] = 1.0

    def test_preserves_float32(self):
        from repro.dsp.signals import SignalBatch

        arr = np.zeros((2, 8), dtype=np.float32)
        batch = SignalBatch.adopt(arr, 8000.0)
        assert batch.samples is arr
        assert batch.samples.dtype == np.float32

    def test_falls_back_to_copy_for_views(self):
        from repro.dsp.signals import SignalBatch

        backing = np.zeros((4, 8), dtype=np.float64)
        view = backing[:2]
        batch = SignalBatch.adopt(view, 8000.0)
        assert batch.samples is not view
        backing[0, 0] = 9.0  # mutating the source must not leak in
        assert batch.samples[0, 0] == 0.0

    def test_falls_back_to_copy_for_lists_and_dtypes(self):
        from repro.dsp.signals import SignalBatch

        from_list = SignalBatch.adopt([[0.0, 1.0]], 8000.0)
        assert isinstance(from_list.samples, np.ndarray)
        ints = np.zeros((2, 4), dtype=np.int32)
        from_ints = SignalBatch.adopt(ints, 8000.0)
        assert from_ints.samples.dtype == np.float64

    def test_same_validation_as_constructor(self):
        from repro.dsp.signals import SignalBatch

        with pytest.raises(SignalDomainError):
            SignalBatch.adopt(np.zeros(8), 8000.0)
        with pytest.raises(SignalDomainError):
            SignalBatch.adopt(np.zeros((0, 8)), 8000.0)
        bad = self._fresh()
        bad[1, 3] = np.inf
        with pytest.raises(SignalDomainError):
            SignalBatch.adopt(bad, 8000.0)
        with pytest.raises(SampleRateError):
            SignalBatch.adopt(self._fresh(), 0.0)
