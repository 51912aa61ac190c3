"""Unit tests for filter design and application."""

import numpy as np
import pytest

from repro.dsp.filters import (
    FilterSpec,
    band_pass,
    band_stop,
    fir_band_pass,
    fir_low_pass,
    fir_low_pass_taps,
    high_pass,
    low_pass,
)
from repro.dsp.signals import multi_tone, tone
from repro.dsp.spectrum import band_power
from repro.errors import FilterDesignError


@pytest.fixture()
def two_tone():
    """100 Hz + 3 kHz test signal at 16 kHz."""
    return multi_tone([(100.0, 1.0), (3000.0, 1.0)], 1.0, 16000.0)


class TestIirFilters:
    def test_low_pass_keeps_low_removes_high(self, two_tone):
        out = low_pass(two_tone, 1000.0)
        assert band_power(out, 80, 120) > 0.1
        assert band_power(out, 2900, 3100) < 1e-6

    def test_high_pass_keeps_high_removes_low(self, two_tone):
        out = high_pass(two_tone, 1000.0)
        assert band_power(out, 2900, 3100) > 0.1
        assert band_power(out, 80, 120) < 1e-6

    def test_band_pass_keeps_only_band(self):
        s = multi_tone(
            [(100.0, 1.0), (1000.0, 1.0), (5000.0, 1.0)], 1.0, 16000.0
        )
        out = band_pass(s, 500.0, 2000.0)
        assert band_power(out, 900, 1100) > 0.1
        assert band_power(out, 80, 120) < 1e-6
        assert band_power(out, 4900, 5100) < 1e-6

    def test_band_stop_notches_band(self, two_tone):
        out = band_stop(two_tone, 2000.0, 4000.0)
        assert band_power(out, 80, 120) > 0.1
        assert band_power(out, 2900, 3100) < 1e-6

    def test_zero_phase_no_delay(self):
        s = tone(100.0, 0.5, 16000.0)
        out = low_pass(s, 1000.0)
        # Zero-phase filtering: peak positions unchanged.
        lag = np.argmax(np.correlate(out.samples, s.samples, "full")) - (
            s.n_samples - 1
        )
        assert abs(lag) <= 1

    def test_cutoff_at_nyquist_raises(self, two_tone):
        with pytest.raises(FilterDesignError):
            low_pass(two_tone, 8000.0)

    def test_cutoff_at_zero_raises(self, two_tone):
        with pytest.raises(FilterDesignError):
            high_pass(two_tone, 0.0)

    def test_inverted_band_raises(self, two_tone):
        with pytest.raises(FilterDesignError):
            band_pass(two_tone, 2000.0, 500.0)

    def test_too_short_signal_raises(self):
        s = tone(100.0, 0.002, 16000.0)
        with pytest.raises(FilterDesignError):
            low_pass(s, 1000.0)


class TestFilterSpec:
    def test_spec_dispatch(self, two_tone):
        spec = FilterSpec(kind="lowpass", high_hz=1000.0)
        out = spec.apply(two_tone)
        assert band_power(out, 2900, 3100) < 1e-6

    def test_unknown_kind_rejected(self):
        with pytest.raises(FilterDesignError):
            FilterSpec(kind="sideways")

    def test_bad_order_rejected(self):
        with pytest.raises(FilterDesignError):
            FilterSpec(kind="lowpass", high_hz=100.0, order=0)


class TestFirFilters:
    def test_fir_low_pass_removes_high(self, two_tone):
        out = fir_low_pass(two_tone, 1000.0, n_taps=255)
        assert band_power(out, 2900, 3100) < 1e-4

    def test_fir_band_pass(self):
        s = multi_tone(
            [(100.0, 1.0), (1000.0, 1.0), (5000.0, 1.0)], 1.0, 16000.0
        )
        out = fir_band_pass(s, 500.0, 2000.0, n_taps=255)
        assert band_power(out, 900, 1100) > 0.1
        assert band_power(out, 80, 120) < 1e-3

    def test_fir_delay_compensated(self):
        s = tone(200.0, 0.5, 16000.0)
        out = fir_low_pass(s, 1000.0, n_taps=101)
        assert out.n_samples == s.n_samples
        lag = np.argmax(np.correlate(out.samples, s.samples, "full")) - (
            s.n_samples - 1
        )
        assert abs(lag) <= 1

    def test_even_taps_rejected(self):
        with pytest.raises(FilterDesignError):
            fir_low_pass_taps(1000.0, 16000.0, n_taps=100)

    def test_preserves_unit_and_rate(self, two_tone):
        out = low_pass(two_tone, 1000.0)
        assert out.sample_rate == two_tone.sample_rate
        assert out.unit == two_tone.unit


class TestSosFiltfiltArray:
    """The cached-zi per-row path is bitwise scipy ``sosfiltfilt``.

    The batch path takes the initial-condition solve and the
    pad-length computation from a per-design cache instead of redoing
    them per call and per row; these tests pin the claim that the
    cache changes *nothing* numerically — every row of the 2-D result,
    and a 1-D waveform (a batch of one), equals the scipy reference to
    the bit, across filter orders (including order 1, which trims
    ``ntaps``) and odd/even lengths.
    """

    @pytest.mark.parametrize(
        "design",
        [
            ("lowpass", dict(N=8, Wn=0.2)),
            ("highpass", dict(N=1, Wn=0.1)),
            ("bandpass", dict(N=6, Wn=(0.1, 0.4))),
            ("bandstop", dict(N=4, Wn=(0.2, 0.3))),
        ],
    )
    @pytest.mark.parametrize("n_samples", [777, 9600, 9601])
    def test_bitwise_vs_scipy_per_row(self, design, n_samples):
        from scipy import signal as sp_signal

        from repro.dsp.filters import sos_filtfilt_array

        btype, kwargs = design
        sos = sp_signal.butter(
            btype=btype, output="sos", **kwargs
        )
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, n_samples))
        got = sos_filtfilt_array(x, sos)
        for index in range(x.shape[0]):
            want = sp_signal.sosfiltfilt(sos, x[index])
            assert np.array_equal(got[index], want)

    @pytest.mark.parametrize(
        "btype, kwargs",
        [
            ("lowpass", dict(N=6, Wn=0.3)),
            ("highpass", dict(N=3, Wn=0.05)),
            ("bandpass", dict(N=8, Wn=(0.15, 0.35))),
        ],
    )
    def test_one_and_two_dimensional_bitwise_vs_scipy(self, btype, kwargs):
        from scipy import signal as sp_signal

        from repro.dsp.filters import sos_filtfilt_array

        sos = sp_signal.butter(btype=btype, output="sos", **kwargs)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 2001))
        # Twice: the second call is served by the design cache.
        for _ in range(2):
            assert np.array_equal(
                sos_filtfilt_array(x[0], sos),
                sp_signal.sosfiltfilt(sos, x[0]),
            )
            got = sos_filtfilt_array(x, sos)
            for index in range(x.shape[0]):
                assert np.array_equal(
                    got[index], sp_signal.sosfiltfilt(sos, x[index])
                )

    def test_cached_initial_conditions_are_read_only(self):
        from scipy import signal as sp_signal

        from repro.dsp.filters import _sos_filtfilt_design

        sos = sp_signal.butter(4, 0.25, output="sos")
        zi, edge = _sos_filtfilt_design(sos.tobytes(), sos.shape[0])
        assert not zi.flags.writeable
        assert np.array_equal(zi, sp_signal.sosfilt_zi(sos))
        assert edge == 3 * (2 * sos.shape[0] + 1)
        with pytest.raises(ValueError):
            zi[0, 0] = 1.0

    def test_one_dimensional_input_delegates(self):
        # A 1-D waveform delegates to the batch path as one row.
        from scipy import signal as sp_signal

        from repro.dsp.filters import sos_filtfilt_array

        sos = sp_signal.butter(4, 0.25, output="sos")
        rng = np.random.default_rng(7)
        x = rng.normal(size=512)
        assert np.array_equal(
            sos_filtfilt_array(x, sos), sp_signal.sosfiltfilt(sos, x)
        )
