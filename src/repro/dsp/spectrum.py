"""Spectral analysis: PSD, spectrogram, band energies.

These are the measurement instruments of the whole reproduction: the
attack's inaudibility argument and the defense's sub-50 Hz traces are
both statements about band powers, so the estimators here are written
for correct absolute scaling (verified by Parseval-style tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from repro.dsp import windows as win
from repro.dsp.signals import Signal
from repro.errors import SignalDomainError


@dataclass(frozen=True)
class PowerSpectrum:
    """A one-sided power spectral density estimate.

    Attributes
    ----------
    frequencies:
        Bin centre frequencies in hertz, ascending.
    psd:
        Power spectral density per bin, in (signal unit)^2 / Hz.
    """

    frequencies: np.ndarray
    psd: np.ndarray

    def __post_init__(self) -> None:
        if self.frequencies.shape != self.psd.shape:
            raise SignalDomainError(
                "frequencies and psd must have identical shapes"
            )

    @property
    def bin_width(self) -> float:
        """Frequency resolution in hertz."""
        if len(self.frequencies) < 2:
            return 0.0
        return float(self.frequencies[1] - self.frequencies[0])

    def total_power(self) -> float:
        """Integrate the PSD over all frequencies (= mean square)."""
        return float(np.sum(self.psd) * self.bin_width)

    def band_power(self, low_hz: float, high_hz: float) -> float:
        """Integrate the PSD over ``[low_hz, high_hz]``."""
        if low_hz > high_hz:
            raise SignalDomainError(
                f"band edges inverted: {low_hz} > {high_hz}"
            )
        mask = (self.frequencies >= low_hz) & (self.frequencies <= high_hz)
        return float(np.sum(self.psd[mask]) * self.bin_width)

    def peak_frequency(self) -> float:
        """Frequency of the largest PSD bin."""
        if len(self.frequencies) == 0:
            raise SignalDomainError("empty spectrum has no peak")
        return float(self.frequencies[int(np.argmax(self.psd))])


def _one_sided_correction(power: np.ndarray, n_fft: int) -> np.ndarray:
    """Double the bins a one-sided spectrum folds together, in place.

    For an even ``n_fft`` the DC and Nyquist bins are unique and every
    other bin absorbs its negative-frequency twin; for an odd ``n_fft``
    there is no Nyquist bin, so everything but DC doubles. Shared by
    :func:`welch_psd_matrix` and :func:`spectrogram` so the two
    estimators can never disagree on parity handling.
    """
    if n_fft % 2 == 0:
        power[..., 1:-1] *= 2.0
    else:
        power[..., 1:] *= 2.0
    return power


def welch_psd_matrix(
    x: np.ndarray,
    sample_rate: float,
    segment_length: int = 4096,
    overlap: float = 0.5,
    window: str = "hann",
) -> tuple[np.ndarray, np.ndarray]:
    """Welch PSDs of a stacked ``(n_signals, n_samples)`` batch.

    Returns ``(frequencies, psd)`` with ``psd`` of shape
    ``(n_signals, n_bins)``. Each segment's FFT is computed for every
    row at once (``axis=-1``), but segments accumulate in the same
    sequential order as :func:`welch_psd`, so each row of the result is
    bitwise identical to the scalar estimate of that row — the
    guarantee the batched defense feature extraction relies on.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise SignalDomainError(
            f"welch_psd_matrix expects a 2-D (n_signals, n_samples) "
            f"batch, got shape {x.shape}"
        )
    n_samples = x.shape[-1]
    if n_samples == 0:
        raise SignalDomainError("cannot estimate the PSD of an empty signal")
    if not 0 <= overlap < 1:
        raise SignalDomainError(f"overlap must be in [0, 1), got {overlap}")
    n_seg = min(segment_length, n_samples)
    step = max(1, int(round(n_seg * (1 - overlap))))
    w = win.get_window(window, n_seg)
    scale = 1.0 / (sample_rate * np.sum(np.square(w)))
    if n_samples >= n_seg:
        # One strided (n_signals, n_segments, n_seg) view over all
        # Welch positions, windowed and transformed in a single batched
        # rfft. Summing over the segment axis is a sequential reduction
        # in numpy (pairwise summation only applies along the fast
        # axis), so each row stays bitwise identical to the scalar
        # one-segment-at-a-time accumulation — the guarantee the
        # streaming extractor and golden traces rely on.
        view = np.lib.stride_tricks.sliding_window_view(x, n_seg, axis=-1)
        segments = view[:, ::step, :] * w
        count = segments.shape[1]
        power = np.square(np.abs(sp_fft.rfft(segments, axis=-1))) * scale
        acc = power.sum(axis=1)
    else:  # signals shorter than one segment: single padded FFT
        segment = np.zeros((x.shape[0], n_seg))
        segment[..., :n_samples] = x
        spectrum = sp_fft.rfft(segment * w, axis=-1)
        acc = np.square(np.abs(spectrum)) * scale
        count = 1
    psd = _one_sided_correction(acc / count, n_seg)
    freqs = np.fft.rfftfreq(n_seg, d=1.0 / sample_rate)
    return freqs, psd


def welch_psd(
    signal: Signal,
    segment_length: int = 4096,
    overlap: float = 0.5,
    window: str = "hann",
) -> PowerSpectrum:
    """Welch-averaged one-sided PSD.

    Implemented from scratch on the FFT so scaling is fully under test:
    with a Hann window and 50 % overlap the estimate integrates to the
    signal's mean-square value (Parseval). Delegates to
    :func:`welch_psd_matrix` with a one-row batch, so scalar and
    batched estimates can never drift apart.
    """
    freqs, psd = welch_psd_matrix(
        signal.samples[np.newaxis, :],
        signal.sample_rate,
        segment_length=segment_length,
        overlap=overlap,
        window=window,
    )
    return PowerSpectrum(frequencies=freqs, psd=psd[0])


def band_power_matrix(
    frequencies: np.ndarray,
    psd: np.ndarray,
    low_hz: float,
    high_hz: float,
) -> np.ndarray:
    """Per-row band power of a ``(n_signals, n_bins)`` PSD matrix.

    The batched counterpart of :meth:`PowerSpectrum.band_power`:
    integrates each row over ``[low_hz, high_hz]`` with the same mask
    and bin width, returning one power per row.
    """
    if low_hz > high_hz:
        raise SignalDomainError(
            f"band edges inverted: {low_hz} > {high_hz}"
        )
    psd = np.asarray(psd)
    if psd.ndim != 2 or psd.shape[-1] != frequencies.shape[0]:
        raise SignalDomainError(
            "psd must be (n_signals, n_bins) matching frequencies, "
            f"got psd shape {psd.shape} for {frequencies.shape[0]} bins"
        )
    if len(frequencies) < 2:
        bin_width = 0.0
    else:
        bin_width = float(frequencies[1] - frequencies[0])
    mask = (frequencies >= low_hz) & (frequencies <= high_hz)
    # Per-row 1-D sums: a 2-D axis reduction pairs its additions
    # differently from np.sum on a 1-D slice (off by an ulp on wide
    # bands), and rows must stay bitwise equal to
    # PowerSpectrum.band_power for the golden-trace guarantees.
    return np.array(
        [float(np.sum(row[mask])) * bin_width for row in psd]
    )


def power_spectrum(signal: Signal, window: str = "hann") -> PowerSpectrum:
    """Single-FFT one-sided PSD of the whole signal (max resolution)."""
    return welch_psd(
        signal, segment_length=signal.n_samples, overlap=0.0, window=window
    )


@dataclass(frozen=True)
class Spectrogram:
    """Short-time power spectrum.

    Attributes
    ----------
    times:
        Frame centre times in seconds.
    frequencies:
        Bin centre frequencies in hertz.
    power:
        Array of shape ``(len(frequencies), len(times))`` holding the
        per-frame PSD.
    """

    times: np.ndarray
    frequencies: np.ndarray
    power: np.ndarray

    def band_trajectory(self, low_hz: float, high_hz: float) -> np.ndarray:
        """Per-frame power inside a frequency band (length = n frames).

        With fewer than two frequency bins the bin width is undefined
        and the integral degenerates to zero — the same convention as
        :attr:`PowerSpectrum.bin_width` and
        :func:`band_power_matrix`, so single-bin band powers agree
        across all three paths.
        """
        mask = (self.frequencies >= low_hz) & (self.frequencies <= high_hz)
        if len(self.frequencies) >= 2:
            bin_width = float(self.frequencies[1] - self.frequencies[0])
        else:
            bin_width = 0.0
        return np.sum(self.power[mask, :], axis=0) * bin_width


def spectrogram(
    signal: Signal,
    frame_length: int = 1024,
    overlap: float = 0.75,
    window: str = "hann",
) -> Spectrogram:
    """STFT power spectrogram with PSD scaling per frame."""
    if signal.n_samples < frame_length:
        raise SignalDomainError(
            f"signal ({signal.n_samples} samples) shorter than one "
            f"spectrogram frame ({frame_length})"
        )
    if not 0 <= overlap < 1:
        raise SignalDomainError(f"overlap must be in [0, 1), got {overlap}")
    step = max(1, int(round(frame_length * (1 - overlap))))
    w = win.get_window(window, frame_length)
    scale = 1.0 / (signal.sample_rate * np.sum(np.square(w)))
    starts = np.arange(
        0, signal.n_samples - frame_length + 1, step, dtype=np.int64
    )
    # All frames in one strided view and one batched rfft; the per-bin
    # arithmetic is unchanged from the old one-frame-at-a-time loop.
    view = np.lib.stride_tricks.sliding_window_view(
        signal.samples, frame_length
    )
    frames = view[starts, :] * w
    power = np.square(np.abs(sp_fft.rfft(frames, axis=-1))) * scale
    power = _one_sided_correction(power, frame_length)
    centers = (starts + frame_length / 2) / signal.sample_rate
    freqs = np.fft.rfftfreq(frame_length, d=1.0 / signal.sample_rate)
    return Spectrogram(
        times=centers,
        frequencies=freqs,
        power=power.T,
    )


def band_power(signal: Signal, low_hz: float, high_hz: float) -> float:
    """Mean-square power of ``signal`` within a frequency band.

    Convenience wrapper over :func:`welch_psd`; the result is in
    (signal unit)^2 and can be converted to SPL by the acoustics layer.
    """
    return welch_psd(signal).band_power(low_hz, high_hz)


def band_rms(signal: Signal, low_hz: float, high_hz: float) -> float:
    """RMS amplitude of the in-band component of ``signal``."""
    return float(np.sqrt(max(band_power(signal, low_hz, high_hz), 0.0)))


def dominant_frequency(signal: Signal) -> float:
    """Frequency of the strongest spectral component."""
    return power_spectrum(signal).peak_frequency()
