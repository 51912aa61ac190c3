"""Property-based tests (hypothesis) for core invariants.

Strategy definitions shared with the rest of the suite live in
``tests/strategies.py``; this file holds the cross-cutting invariants
(round trips, monotonicities, batched-vs-scalar equivalences).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import (
    batch_amplitudes,
    batch_rates,
    batch_rows,
    batch_samples,
    batch_seeds,
    finite_floats,
    random_batch as _random_batch,
)

from repro.acoustics.atmosphere import absorption_coefficient_db_per_m
from repro.acoustics.spl import (
    pressure_to_spl,
    spl_at_distance,
    spl_to_pressure,
)
from repro.defense.metrics import auc, confusion_matrix, roc_curve
from repro.dsp.measures import (
    db_to_linear,
    db_to_power_ratio,
    linear_to_db,
    normalized_correlation,
    power_ratio_to_db,
)
from repro.acoustics.propagation import PropagationModel
from repro.dsp.filters import (
    band_pass,
    band_pass_array,
    high_pass,
    high_pass_array,
    low_pass,
    low_pass_array,
)
from repro.dsp.resample import rational_ratio, resample, resample_array
from repro.dsp.signals import Signal, Unit, tone
from repro.dsp.spectrum import welch_psd, welch_psd_matrix
from repro.dsp.windows import blackman, hamming, hann
from repro.hardware.nonlinearity import PolynomialNonlinearity
from repro.psychoacoustics.threshold import hearing_threshold_spl


class TestDbProperties:
    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_amplitude_round_trip(self, ratio):
        assert db_to_linear(linear_to_db(ratio)) == np.float64(
            ratio
        ) or abs(db_to_linear(linear_to_db(ratio)) - ratio) < 1e-6 * ratio

    @given(st.floats(min_value=-120.0, max_value=120.0))
    def test_power_round_trip_db(self, db):
        assert abs(power_ratio_to_db(db_to_power_ratio(db)) - db) < 1e-9

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_amplitude_db_is_twice_power_db(self, ratio):
        assert abs(
            linear_to_db(ratio) - power_ratio_to_db(ratio**2)
        ) < 1e-9


class TestSplProperties:
    @given(st.floats(min_value=1e-6, max_value=1e3))
    def test_pressure_round_trip(self, pressure):
        recovered = spl_to_pressure(pressure_to_spl(pressure))
        assert abs(recovered - pressure) < 1e-9 * max(pressure, 1.0)

    @given(
        st.floats(min_value=0.1, max_value=100.0),
        st.floats(min_value=0.1, max_value=100.0),
    )
    def test_spl_monotone_in_distance(self, d1, d2):
        near, far = sorted([d1, d2])
        if near == far:
            return
        assert spl_at_distance(100.0, near) >= spl_at_distance(100.0, far)


class TestAtmosphereProperties:
    @given(st.floats(min_value=100.0, max_value=80000.0))
    def test_absorption_positive(self, frequency):
        assert absorption_coefficient_db_per_m(frequency) > 0

    @given(
        st.floats(min_value=100.0, max_value=40000.0),
        st.floats(min_value=1.01, max_value=2.0),
    )
    def test_absorption_monotone(self, frequency, factor):
        assert absorption_coefficient_db_per_m(
            frequency * factor
        ) > absorption_coefficient_db_per_m(frequency)


class TestThresholdProperties:
    @given(st.floats(min_value=20.0, max_value=60000.0))
    def test_threshold_finite(self, frequency):
        value = hearing_threshold_spl(frequency)
        assert np.isfinite(value)
        assert -20.0 <= value <= 200.0


class TestSignalProperties:
    @given(
        st.lists(finite_floats, min_size=1, max_size=64),
        st.floats(min_value=1.0, max_value=1e5),
    )
    def test_rms_le_peak(self, samples, rate):
        s = Signal(samples, rate)
        assert s.rms() <= s.peak() + 1e-12

    @given(
        st.lists(finite_floats, min_size=1, max_size=64),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_scaling_scales_rms_linearly(self, samples, factor):
        s = Signal(samples, 100.0)
        assert abs((s * factor).rms() - factor * s.rms()) < 1e-6 * max(
            1.0, s.rms() * factor
        )

    @given(st.lists(finite_floats, min_size=2, max_size=64))
    def test_add_commutes(self, samples):
        a = Signal(samples, 100.0)
        b = Signal(samples[::-1], 100.0)
        assert a + b == b + a

    @given(
        st.integers(min_value=0, max_value=32),
        st.integers(min_value=0, max_value=32),
    )
    def test_padding_adds_exact_length(self, before, after):
        s = tone(10.0, 0.1, 1000.0)
        padded = s.padded(before, after)
        assert padded.n_samples == s.n_samples + before + after


class TestWindowProperties:
    @given(st.integers(min_value=2, max_value=512))
    def test_windows_bounded(self, n):
        for factory in (hann, hamming, blackman):
            w = factory(n)
            assert np.all(w <= 1.0 + 1e-12)
            assert np.all(w >= -1e-6)


class TestNonlinearityProperties:
    @given(
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=0.001, max_value=0.2),
    )
    def test_weak_nonlinearity_near_identity(self, x, a2):
        nl = PolynomialNonlinearity((1.0, a2))
        y = nl.apply_array(np.array([x]))[0]
        assert abs(y - x) <= a2 * x * x + 1e-12

    @given(st.lists(finite_floats, min_size=1, max_size=32))
    def test_linear_is_identity_times_gain(self, samples):
        nl = PolynomialNonlinearity.linear(2.0)
        x = np.array(samples)
        assert np.allclose(nl.apply_array(x), 2.0 * x)


class TestResampleProperties:
    @given(
        st.sampled_from([8000.0, 16000.0, 44100.0, 48000.0, 96000.0, 192000.0]),
        st.sampled_from([8000.0, 16000.0, 44100.0, 48000.0, 96000.0, 192000.0]),
    )
    def test_rational_ratio_exact(self, target, source):
        up, down = rational_ratio(target, source)
        assert source * up / down == np.float64(target)


class TestBatchedFilteringProperties:
    """Axis-aware filtering == per-row scalar filtering (rtol 1e-9)."""

    @settings(max_examples=15, deadline=None)
    @given(batch_seeds, batch_rows, batch_samples, batch_amplitudes, batch_rates)
    def test_low_pass_array_matches_scalar_rows(
        self, seed, rows, samples, amplitude, rate
    ):
        x = _random_batch(seed, rows, samples, amplitude)
        cutoff = 0.2 * rate
        batched = low_pass_array(x, rate, cutoff, order=4)
        for row_in, row_out in zip(x, batched):
            scalar = low_pass(Signal(row_in, rate), cutoff, order=4)
            assert np.allclose(
                row_out, scalar.samples, rtol=1e-9, atol=1e-12 * amplitude
            )

    @settings(max_examples=15, deadline=None)
    @given(batch_seeds, batch_rows, batch_samples, batch_amplitudes, batch_rates)
    def test_band_pass_array_matches_scalar_rows(
        self, seed, rows, samples, amplitude, rate
    ):
        x = _random_batch(seed, rows, samples, amplitude)
        low, high = 0.05 * rate, 0.3 * rate
        batched = band_pass_array(x, rate, low, high, order=4)
        for row_in, row_out in zip(x, batched):
            scalar = band_pass(Signal(row_in, rate), low, high, order=4)
            assert np.allclose(
                row_out, scalar.samples, rtol=1e-9, atol=1e-12 * amplitude
            )

    @settings(max_examples=10, deadline=None)
    @given(batch_seeds, batch_samples, batch_amplitudes, batch_rates)
    def test_batch_of_one_is_exactly_scalar(
        self, seed, samples, amplitude, rate
    ):
        x = _random_batch(seed, 1, samples, amplitude)
        cutoff = 0.25 * rate
        assert np.array_equal(
            high_pass_array(x, rate, cutoff, order=2)[0],
            high_pass(Signal(x[0], rate), cutoff, order=2).samples,
        )


class TestBatchedNonlinearityProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        batch_seeds,
        batch_rows,
        st.integers(min_value=4, max_value=128),
        batch_amplitudes,
        st.floats(min_value=-0.3, max_value=0.3),
        st.floats(min_value=-0.05, max_value=0.05),
    )
    def test_batched_polynomial_matches_scalar_rows(
        self, seed, rows, samples, amplitude, a2, a3
    ):
        nl = PolynomialNonlinearity((1.0, a2, a3))
        x = _random_batch(seed, rows, samples, amplitude)
        batched = nl.apply_array(x)
        for row_in, row_out in zip(x, batched):
            assert np.array_equal(row_out, nl.apply_array(row_in))


class TestBatchedPropagationProperties:
    """Row-partition invariance of the one propagation kernel: each row
    of a stack equals that row propagated alone."""

    @settings(max_examples=10, deadline=None)
    @given(
        batch_seeds,
        batch_rows,
        st.sampled_from([48, 200, 512]),
        batch_amplitudes,
        st.sampled_from([16000.0, 192000.0]),
    )
    def test_propagate_batch_matches_scalar_rows(
        self, seed, rows, samples, amplitude, rate
    ):
        model = PropagationModel()
        x = _random_batch(seed, rows, samples, amplitude)
        rng = np.random.default_rng(seed + 1)
        distances = rng.uniform(0.5, 8.0, size=rows)
        batched = model.propagate_batch(x, rate, distances)
        for row_in, row_out, distance in zip(x, batched, distances):
            alone = model.propagate(
                Signal(row_in, rate, Unit.PASCAL), float(distance)
            )
            assert not row_out[alone.n_samples :].any()
            assert np.array_equal(row_out[: alone.n_samples], alone.samples)

    @settings(max_examples=6, deadline=None)
    @given(batch_seeds, st.integers(min_value=2, max_value=5))
    def test_propagate_batch_is_bitwise_scalar(self, seed, rows):
        """Summing a stack's rows equals mixing its rows propagated
        alone — how `AcousticChannel.transmit` combines sources."""
        from repro.dsp.signals import mix

        model = PropagationModel()
        # > 64 rfft bins, exercising the interpolated-absorption branch.
        x = _random_batch(seed, rows, 4096, 1.0)
        distances = np.random.default_rng(seed + 1).uniform(
            0.5, 10.0, size=rows
        )
        batched = model.propagate_batch(x, 192000.0, distances)
        alone = mix(
            [
                model.propagate(
                    Signal(row, 192000.0, Unit.PASCAL), float(distance)
                )
                for row, distance in zip(x, distances)
            ]
        )
        summed = batched[0].copy()
        for row in batched[1:]:
            summed = np.add(summed, row)
        assert np.array_equal(summed, alone.samples)


class TestBatchedSpectrumResampleProperties:
    @settings(max_examples=10, deadline=None)
    @given(batch_seeds, batch_rows, batch_samples, batch_amplitudes, batch_rates)
    def test_welch_matrix_matches_scalar_rows(
        self, seed, rows, samples, amplitude, rate
    ):
        x = _random_batch(seed, rows, samples, amplitude)
        freqs, psd = welch_psd_matrix(x, rate, segment_length=128)
        for row_in, row_psd in zip(x, psd):
            scalar = welch_psd(Signal(row_in, rate), segment_length=128)
            assert np.array_equal(freqs, scalar.frequencies)
            assert np.array_equal(row_psd, scalar.psd)

    @settings(max_examples=10, deadline=None)
    @given(batch_seeds, batch_rows, batch_samples, batch_amplitudes)
    def test_resample_array_matches_scalar_rows(
        self, seed, rows, samples, amplitude
    ):
        x = _random_batch(seed, rows, samples, amplitude)
        batched = resample_array(x, 48000.0, 16000.0)
        for row_in, row_out in zip(x, batched):
            scalar = resample(Signal(row_in, 48000.0), 16000.0)
            assert np.array_equal(row_out, scalar.samples)


class TestCorrelationProperties:
    @given(st.lists(finite_floats, min_size=2, max_size=64))
    def test_bounded(self, values):
        x = np.array(values)
        y = x[::-1].copy()
        c = normalized_correlation(x, y)
        assert -1.0 <= c <= 1.0

    @given(
        st.lists(finite_floats, min_size=2, max_size=64),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_affine_invariance(self, values, scale, offset):
        x = np.array(values)
        if np.std(x) < 1e-9:
            return
        c1 = normalized_correlation(x, x)
        c2 = normalized_correlation(x, scale * x + offset)
        assert abs(c1 - c2) < 1e-6


class TestMetricProperties:
    @settings(max_examples=30)
    @given(
        st.lists(st.booleans(), min_size=4, max_size=64),
        st.randoms(use_true_random=False),
    )
    def test_auc_bounded(self, label_list, rand):
        labels = np.array(label_list, dtype=int)
        if labels.sum() == 0 or labels.sum() == len(labels):
            return
        scores = np.array([rand.random() for _ in label_list])
        value = auc(labels, scores)
        assert 0.0 <= value <= 1.0

    @settings(max_examples=30)
    @given(st.lists(st.booleans(), min_size=4, max_size=64))
    def test_roc_monotone(self, label_list):
        labels = np.array(label_list, dtype=int)
        if labels.sum() == 0 or labels.sum() == len(labels):
            return
        scores = np.linspace(0, 1, len(labels))
        roc = roc_curve(labels, scores)
        assert np.all(np.diff(roc.false_positive_rates) >= -1e-12)
        assert np.all(np.diff(roc.true_positive_rates) >= -1e-12)

    @settings(max_examples=30)
    @given(
        st.lists(st.booleans(), min_size=1, max_size=64),
        st.lists(st.booleans(), min_size=1, max_size=64),
    )
    def test_confusion_total(self, labels, predictions):
        n = min(len(labels), len(predictions))
        cm = confusion_matrix(
            np.array(labels[:n], dtype=int),
            np.array(predictions[:n], dtype=int),
        )
        assert cm.total == n
