"""Explicit sample-rate conversion.

The library simulates acoustics at a high rate (typically 192 kHz, so
ultrasonic carriers up to ~90 kHz are representable) while devices
record at 16-48 kHz. :func:`resample` is the single sanctioned way to
move between rates; `Signal` arithmetic deliberately refuses to mix
rates so that every conversion is visible in the code.

Resampling uses scipy's polyphase implementation, which applies a
proper anti-aliasing filter — important here because the attack
signals are rich in energy right at band edges.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import signal as sp_signal

from repro.dsp.signals import Signal
from repro.errors import SampleRateError

#: Largest numerator/denominator allowed when converting the rate ratio
#: to a rational number. 1000 covers every standard audio-rate pair
#: (44100/48000 = 147/160, 192000/16000 = 12, ...).
_MAX_RATIO_DENOMINATOR = 1000


def rational_ratio(
    target_rate: float, source_rate: float
) -> tuple[int, int]:
    """Return ``(up, down)`` such that ``target/source == up/down``.

    Raises
    ------
    SampleRateError
        If the ratio cannot be expressed with numerator and denominator
        below :data:`_MAX_RATIO_DENOMINATOR` — a symptom of a typo'd
        sample rate rather than a legitimate conversion.
    """
    if target_rate <= 0 or source_rate <= 0:
        raise SampleRateError(
            f"rates must be positive, got {target_rate} and {source_rate}"
        )
    ratio = Fraction(target_rate / source_rate).limit_denominator(
        _MAX_RATIO_DENOMINATOR
    )
    achieved = source_rate * ratio.numerator / ratio.denominator
    if abs(achieved - target_rate) > 1e-6 * target_rate:
        raise SampleRateError(
            f"cannot express rate conversion {source_rate} -> "
            f"{target_rate} Hz as a small rational ratio; "
            "check the requested rates"
        )
    return ratio.numerator, ratio.denominator


@lru_cache(maxsize=64)
def _polyphase_window(up: int, down: int) -> np.ndarray:
    """The anti-aliasing FIR ``resample_poly`` designs by default for
    ``up/down`` (in lowest terms, as :func:`rational_ratio` returns
    it), memoised per ratio (read-only: shared).

    scipy designs a Kaiser (beta 5) low-pass of
    ``20 * max(up, down) + 1`` taps cut at ``1 / max(up, down)`` of
    Nyquist — the same ``firwin`` call, so passing this array as
    ``window=`` is bitwise the default, without the per-call redesign.
    """
    max_rate = max(up, down)
    h = sp_signal.firwin(
        20 * max_rate + 1, 1.0 / max_rate, window=("kaiser", 5.0)
    )
    h.flags.writeable = False
    return h


def resample_array(
    x: np.ndarray, source_rate: float, target_rate: float
) -> np.ndarray:
    """Polyphase-resample a raw array along its last axis.

    The shared implementation under :func:`resample` and the batched
    trial kernel: a stacked ``(n_signals, n_samples)`` batch resamples
    row-by-row with bitwise the same arithmetic as one waveform at a
    time. Input is promoted to float64.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise SampleRateError(
            f"expected a 1-D waveform or 2-D (n_signals, n_samples) "
            f"batch, got shape {x.shape}"
        )
    if abs(target_rate - source_rate) < 1e-9:
        return x.copy()
    up, down = rational_ratio(target_rate, source_rate)
    if up == down:  # equal rates within rational_ratio's tolerance
        return x.copy()
    return sp_signal.resample_poly(
        x, up, down, axis=-1, window=_polyphase_window(up, down)
    )


def resample(signal: Signal, target_rate: float) -> Signal:
    """Resample to ``target_rate`` via polyphase filtering.

    The anti-aliasing filter is scipy's default Kaiser-windowed design,
    which attenuates aliases by ~60 dB — far below every effect this
    library measures.
    """
    if abs(target_rate - signal.sample_rate) < 1e-9:
        return signal.copy()
    return Signal(
        resample_array(signal.samples, signal.sample_rate, target_rate),
        target_rate,
        signal.unit,
    )


def upsample_to(signal: Signal, target_rate: float) -> Signal:
    """Resample upwards only; refuse a rate decrease.

    This is the "Upsampling" step of the attack pipeline: the voice
    command recorded at 48 kHz must move to the acoustic rate before
    ultrasonic modulation. Passing a lower rate here is always a bug,
    so it raises instead of silently discarding bandwidth.
    """
    if target_rate < signal.sample_rate:
        raise SampleRateError(
            f"upsample_to called with target {target_rate} Hz below the "
            f"current rate {signal.sample_rate} Hz; use resample() if a "
            "rate decrease is intended"
        )
    return resample(signal, target_rate)
