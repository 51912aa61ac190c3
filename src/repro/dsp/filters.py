"""Filter design and application.

Two families are provided:

* Zero-phase IIR (Butterworth, applied with ``filtfilt``) — the
  workhorse for band-limiting inside models, where phase linearity and
  no group delay matter more than causality.
* Linear-phase FIR (windowed sinc) — used where an explicit impulse
  response is useful (e.g. channel models) or where very sharp
  transition bands at high rates are needed.

All design functions validate band edges against Nyquist and raise
:class:`~repro.errors.FilterDesignError` rather than letting scipy
produce a silently-wrong filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import signal as sp_signal

from repro.dsp.signals import Signal
from repro.errors import FilterDesignError


@dataclass(frozen=True)
class FilterSpec:
    """Declarative description of a frequency-selective filter.

    Attributes
    ----------
    kind:
        One of ``"lowpass"``, ``"highpass"``, ``"bandpass"``,
        ``"bandstop"``.
    low_hz:
        Lower band edge; ignored for ``lowpass``.
    high_hz:
        Upper band edge; ignored for ``highpass``.
    order:
        Butterworth order (per section for band filters).
    """

    kind: str
    low_hz: float = 0.0
    high_hz: float = 0.0
    order: int = 6

    def __post_init__(self) -> None:
        if self.kind not in ("lowpass", "highpass", "bandpass", "bandstop"):
            raise FilterDesignError(f"unknown filter kind {self.kind!r}")
        if self.order < 1:
            raise FilterDesignError(
                f"filter order must be >= 1, got {self.order}"
            )

    def apply(self, signal: Signal) -> Signal:
        """Apply this spec to a signal (zero-phase Butterworth)."""
        if self.kind == "lowpass":
            return low_pass(signal, self.high_hz, order=self.order)
        if self.kind == "highpass":
            return high_pass(signal, self.low_hz, order=self.order)
        if self.kind == "bandpass":
            return band_pass(signal, self.low_hz, self.high_hz, order=self.order)
        return band_stop(signal, self.low_hz, self.high_hz, order=self.order)


def _check_edge(frequency: float, sample_rate: float, name: str) -> None:
    nyquist = sample_rate / 2
    if not (0 < frequency < nyquist):
        raise FilterDesignError(
            f"{name} ({frequency} Hz) must lie strictly between 0 and "
            f"Nyquist ({nyquist} Hz) at sample rate {sample_rate} Hz"
        )


def _min_length(order: int) -> int:
    # filtfilt needs a signal longer than its padding; a generous lower
    # bound avoids cryptic scipy errors on near-empty inputs.
    return 3 * (2 * order + 1)


@lru_cache(maxsize=128)
def _butter_sos_design(
    order: int, edges: tuple[float, ...], btype: str, fs: float
) -> np.ndarray:
    """One Butterworth SOS design per distinct specification.

    ``scipy.signal.butter`` re-runs its analog-prototype, bilinear
    and zpk-pairing linear algebra on every call (~10 ms for the
    order-8 band filters); the streaming guard designs the *same* two
    band-pass filters at every utterance close, so the design is
    memoised. ``butter`` is deterministic for identical arguments, so
    a cache hit is bitwise identical to a fresh design.
    """
    critical = list(edges) if len(edges) > 1 else edges[0]
    return sp_signal.butter(
        order, critical, btype=btype, fs=fs, output="sos"
    )


def butter_sos(
    order: int, edges: tuple[float, ...], btype: str, fs: float
) -> np.ndarray:
    """A fresh copy of the cached Butterworth SOS design."""
    # Copy per call: the design work is the expensive part, and a
    # private copy means no caller can corrupt the cached array.
    return _butter_sos_design(order, tuple(edges), btype, float(fs)).copy()


@lru_cache(maxsize=128)
def _sos_filtfilt_design(
    sos_bytes: bytes, n_sections: int
) -> tuple[np.ndarray, int]:
    """The row-invariant half of ``sosfiltfilt`` for one SOS design:
    ``(zi, edge)``, memoised.

    ``zi`` is ``sosfilt_zi`` (one linear solve per section) and
    ``edge`` scipy's default odd-extension length. Keyed by the
    design's bytes, so any caller's copy of a cached Butterworth
    design — or a hand-built ``sos`` — hits the same entry; ``zi`` is
    read-only because it is shared.
    """
    sos = np.frombuffer(sos_bytes, dtype=np.float64).reshape(n_sections, 6)
    ntaps = 2 * n_sections + 1
    ntaps -= min(int((sos[:, 2] == 0).sum()), int((sos[:, 5] == 0).sum()))
    zi = sp_signal.sosfilt_zi(sos)
    zi.flags.writeable = False
    return zi, ntaps * 3


def sos_filtfilt_array(x: np.ndarray, sos: np.ndarray) -> np.ndarray:
    """Zero-phase SOS filtering along the last axis of a raw array.

    The single application point for every Butterworth filter in the
    library: scalar :class:`Signal` filtering and the batched
    ``*_array`` variants both land here, so a stacked
    ``(n_signals, n_samples)`` batch is filtered row-by-row with
    *bitwise* the same arithmetic as one waveform at a time — a 1-D
    waveform is a batch of one. Input is promoted to float64.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise FilterDesignError(
            f"expected a 1-D waveform or 2-D (n_signals, n_samples) "
            f"batch, got shape {x.shape}"
        )
    order_hint = sos.shape[0] * 2
    if x.shape[-1] <= _min_length(order_hint):
        raise FilterDesignError(
            f"signal too short ({x.shape[-1]} samples) for "
            f"zero-phase filtering at this order"
        )
    # Filter a stack one row at a time. Handing the whole
    # (n_signals, n_samples) block to sosfiltfilt re-reads the full
    # stack from main memory on every cascaded-section pass (and pays
    # a stack-sized copy inside sosfilt), which is measurably slower
    # than streaming one cache-resident row through all sections.
    #
    # The per-row passes below replicate scipy's sosfiltfilt exactly
    # (odd extension, x[0]/y[-1]-scaled initial conditions, default
    # padlen) but take the design-invariant work — sosfilt_zi's per-
    # section linear solves and the padlen arithmetic — from a cache,
    # where sosfiltfilt would redo it for every call and every row.
    sos = np.ascontiguousarray(sos, dtype=np.float64)
    zi, edge = _sos_filtfilt_design(sos.tobytes(), sos.shape[0])
    if x.ndim == 1:
        # No output buffer: the filtered view is returned as is, so a
        # long waveform costs no extra copy.
        return _filtfilt_row(x, sos, zi, edge)
    out = np.empty_like(x)
    for index in range(x.shape[0]):
        out[index] = _filtfilt_row(x[index], sos, zi, edge)
    return out


def _filtfilt_row(
    row: np.ndarray, sos: np.ndarray, zi: np.ndarray, edge: int
) -> np.ndarray:
    """One waveform forward and back through ``sos``: odd extension,
    x[0]/y[-1]-scaled initial conditions, extension trimmed."""
    ext = np.concatenate(
        (
            2 * row[:1] - row[edge:0:-1],
            row,
            2 * row[-1:] - row[-2 : -(edge + 2) : -1],
        )
    )
    y, _ = sp_signal.sosfilt(sos, ext, zi=zi * ext[:1])
    y, _ = sp_signal.sosfilt(sos, y[::-1], zi=zi * y[-1:])
    return y[::-1][edge:-edge]


def _apply_sos(signal: Signal, sos: np.ndarray) -> Signal:
    return signal.replace(samples=sos_filtfilt_array(signal.samples, sos))


def low_pass_array(
    x: np.ndarray, sample_rate: float, cutoff_hz: float, order: int = 6
) -> np.ndarray:
    """Zero-phase Butterworth low-pass along the last axis."""
    _check_edge(cutoff_hz, sample_rate, "cutoff_hz")
    sos = butter_sos(order, (cutoff_hz,), "lowpass", sample_rate)
    return sos_filtfilt_array(x, sos)


def high_pass_array(
    x: np.ndarray, sample_rate: float, cutoff_hz: float, order: int = 6
) -> np.ndarray:
    """Zero-phase Butterworth high-pass along the last axis."""
    _check_edge(cutoff_hz, sample_rate, "cutoff_hz")
    sos = butter_sos(order, (cutoff_hz,), "highpass", sample_rate)
    return sos_filtfilt_array(x, sos)


def band_pass_array(
    x: np.ndarray,
    sample_rate: float,
    low_hz: float,
    high_hz: float,
    order: int = 6,
) -> np.ndarray:
    """Zero-phase Butterworth band-pass along the last axis."""
    _check_band(low_hz, high_hz, sample_rate)
    sos = butter_sos(order, (low_hz, high_hz), "bandpass", sample_rate)
    return sos_filtfilt_array(x, sos)


def low_pass(signal: Signal, cutoff_hz: float, order: int = 6) -> Signal:
    """Zero-phase Butterworth low-pass filter."""
    return signal.replace(
        samples=low_pass_array(
            signal.samples, signal.sample_rate, cutoff_hz, order
        )
    )


def high_pass(signal: Signal, cutoff_hz: float, order: int = 6) -> Signal:
    """Zero-phase Butterworth high-pass filter."""
    return signal.replace(
        samples=high_pass_array(
            signal.samples, signal.sample_rate, cutoff_hz, order
        )
    )


def _check_band(low_hz: float, high_hz: float, sample_rate: float) -> None:
    _check_edge(low_hz, sample_rate, "low_hz")
    _check_edge(high_hz, sample_rate, "high_hz")
    if low_hz >= high_hz:
        raise FilterDesignError(
            f"band edges inverted: low {low_hz} Hz >= high {high_hz} Hz"
        )


def band_pass(
    signal: Signal, low_hz: float, high_hz: float, order: int = 6
) -> Signal:
    """Zero-phase Butterworth band-pass filter."""
    return signal.replace(
        samples=band_pass_array(
            signal.samples, signal.sample_rate, low_hz, high_hz, order
        )
    )


def band_stop(
    signal: Signal, low_hz: float, high_hz: float, order: int = 6
) -> Signal:
    """Zero-phase Butterworth band-stop (notch) filter."""
    _check_band(low_hz, high_hz, signal.sample_rate)
    sos = butter_sos(
        order, (low_hz, high_hz), "bandstop", signal.sample_rate
    )
    return _apply_sos(signal, sos)


# ----------------------------------------------------------------------
# FIR designs
# ----------------------------------------------------------------------
def fir_low_pass_taps(
    cutoff_hz: float, sample_rate: float, n_taps: int = 257
) -> np.ndarray:
    """Design windowed-sinc low-pass taps (Hamming window)."""
    _check_edge(cutoff_hz, sample_rate, "cutoff_hz")
    if n_taps < 3 or n_taps % 2 == 0:
        raise FilterDesignError(
            f"n_taps must be an odd integer >= 3, got {n_taps}"
        )
    return sp_signal.firwin(n_taps, cutoff_hz, fs=sample_rate)


def fir_band_pass_taps(
    low_hz: float, high_hz: float, sample_rate: float, n_taps: int = 257
) -> np.ndarray:
    """Design windowed-sinc band-pass taps (Hamming window)."""
    _check_band(low_hz, high_hz, sample_rate)
    if n_taps < 3 or n_taps % 2 == 0:
        raise FilterDesignError(
            f"n_taps must be an odd integer >= 3, got {n_taps}"
        )
    return sp_signal.firwin(
        n_taps, [low_hz, high_hz], fs=sample_rate, pass_zero=False
    )


def _apply_fir(signal: Signal, taps: np.ndarray) -> Signal:
    # Compensate the linear-phase group delay so FIR results align with
    # the zero-phase IIR paths used elsewhere.
    delay = (len(taps) - 1) // 2
    padded = np.concatenate([signal.samples, np.zeros(delay)])
    filtered = sp_signal.lfilter(taps, [1.0], padded)[delay:]
    return signal.replace(samples=filtered)


def fir_low_pass(
    signal: Signal, cutoff_hz: float, n_taps: int = 257
) -> Signal:
    """Linear-phase FIR low-pass, delay-compensated."""
    taps = fir_low_pass_taps(cutoff_hz, signal.sample_rate, n_taps)
    return _apply_fir(signal, taps)


def fir_band_pass(
    signal: Signal, low_hz: float, high_hz: float, n_taps: int = 257
) -> Signal:
    """Linear-phase FIR band-pass, delay-compensated."""
    taps = fir_band_pass_taps(low_hz, high_hz, signal.sample_rate, n_taps)
    return _apply_fir(signal, taps)
