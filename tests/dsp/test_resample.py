"""Unit tests for sample-rate conversion."""

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.dsp.resample import (
    _polyphase_window,
    rational_ratio,
    resample,
    resample_array,
    upsample_to,
)
from repro.dsp.signals import Unit, tone
from repro.dsp.spectrum import dominant_frequency
from repro.errors import SampleRateError


class TestRationalRatio:
    def test_common_audio_pairs(self):
        assert rational_ratio(48000.0, 44100.0) == (160, 147)
        assert rational_ratio(192000.0, 48000.0) == (4, 1)
        assert rational_ratio(16000.0, 48000.0) == (1, 3)

    def test_identity(self):
        assert rational_ratio(48000.0, 48000.0) == (1, 1)

    def test_pathological_ratio_rejected(self):
        with pytest.raises(SampleRateError):
            rational_ratio(48000.0, 48001.3)

    def test_non_positive_rates_rejected(self):
        with pytest.raises(SampleRateError):
            rational_ratio(0.0, 48000.0)


class TestResample:
    def test_tone_survives_upsampling(self):
        s = tone(1000.0, 0.5, 16000.0)
        up = resample(s, 48000.0)
        assert up.sample_rate == 48000.0
        assert dominant_frequency(up) == pytest.approx(1000.0, abs=10.0)

    def test_tone_survives_downsampling(self):
        s = tone(1000.0, 0.5, 48000.0)
        down = resample(s, 16000.0)
        assert dominant_frequency(down) == pytest.approx(1000.0, abs=10.0)

    def test_amplitude_preserved(self):
        s = tone(1000.0, 0.5, 16000.0)
        up = resample(s, 48000.0)
        assert up.rms() == pytest.approx(s.rms(), rel=0.02)

    def test_downsampling_removes_high_content(self):
        from repro.dsp.signals import multi_tone
        from repro.dsp.spectrum import band_power

        s = multi_tone([(1000.0, 1.0), (20000.0, 1.0)], 0.5, 48000.0)
        down = resample(s, 16000.0)
        # 20 kHz cannot exist at a 16 kHz rate; it must be filtered,
        # not aliased to 4 kHz.
        assert band_power(down, 3500, 4500) < 1e-4

    def test_identity_resample_is_copy(self):
        s = tone(100.0, 0.1, 8000.0)
        out = resample(s, 8000.0)
        assert out == s

    def test_unit_preserved(self):
        s = tone(100.0, 0.1, 8000.0, unit=Unit.PASCAL)
        assert resample(s, 16000.0).unit == Unit.PASCAL

    def test_length_scales_with_ratio(self):
        s = tone(100.0, 1.0, 8000.0)
        up = resample(s, 16000.0)
        assert up.n_samples == pytest.approx(2 * s.n_samples, abs=2)


class TestResampleArray:
    """The cached anti-aliasing window is bitwise scipy's default."""

    @pytest.mark.parametrize(
        "source, target",
        [(192000.0, 16000.0), (44100.0, 48000.0), (16000.0, 48000.0)],
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_vs_default_resample_poly(self, source, target, dtype):
        # Any input dtype is promoted: float32 input resamples bitwise
        # like its float64 copy.
        x = np.random.default_rng(3).normal(size=(3, 4001)).astype(dtype)
        wide = x.astype(np.float64)
        up, down = rational_ratio(target, source)
        # Twice: the second call is served by the window cache.
        for _ in range(2):
            got = resample_array(x, source, target)
            want = sp_signal.resample_poly(wide, up, down, axis=-1)
            assert got.dtype == np.float64
            assert np.array_equal(got, want)
            assert np.array_equal(
                resample_array(x[1], source, target),
                sp_signal.resample_poly(wide[1], up, down),
            )

    def test_ratio_of_one_within_tolerance_is_a_copy(self):
        x = np.random.default_rng(4).normal(size=(2, 300))
        got = resample_array(x, 48000.0, 48000.00001)
        assert np.array_equal(got, x)
        assert got is not x

    def test_cached_window_is_read_only(self):
        window = _polyphase_window(1, 12)
        assert not window.flags.writeable
        assert window.shape == (241,)
        with pytest.raises(ValueError):
            window[0] = 1.0


class TestUpsampleTo:
    def test_refuses_downsampling(self):
        s = tone(100.0, 0.1, 48000.0)
        with pytest.raises(SampleRateError):
            upsample_to(s, 16000.0)

    def test_upsamples(self):
        s = tone(100.0, 0.1, 48000.0)
        assert upsample_to(s, 192000.0).sample_rate == 192000.0
