"""Analog-to-digital conversion: resampling, clipping, quantisation.

The ADC is the last stage of the microphone chain. Its anti-alias
filter and sample rate define what the voice assistant can "see": a
48 kHz phone ADC keeps 0-24 kHz, a 16 kHz far-field smart-speaker ADC
keeps 0-8 kHz. Everything ultrasonic is gone after this stage — which
is exactly why the attack must arrange for its payload to already be
at baseband (via the microphone nonlinearity) before it reaches here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.filters import low_pass_array
from repro.dsp.resample import resample_array
from repro.dsp.signals import Signal, Unit
from repro.errors import HardwareModelError


@dataclass(frozen=True)
class AnalogToDigitalConverter:
    """Sampling + quantisation model.

    Parameters
    ----------
    sample_rate:
        Output (device) sample rate, Hz.
    bit_depth:
        Quantiser resolution; 16 bits is universal for voice capture.
    full_scale:
        Input amplitude mapped to digital full scale (1.0). Inputs
        beyond it clip — the model is a hard limiter, as real ADCs are.
    antialias_cutoff_fraction:
        Anti-alias cut-off as a fraction of the output Nyquist.
    """

    sample_rate: float
    bit_depth: int = 16
    full_scale: float = 1.0
    antialias_cutoff_fraction: float = 0.9

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise HardwareModelError(
                f"sample_rate must be positive, got {self.sample_rate}"
            )
        if self.bit_depth < 2 or self.bit_depth > 32:
            raise HardwareModelError(
                f"bit_depth must be in [2, 32], got {self.bit_depth}"
            )
        if self.full_scale <= 0:
            raise HardwareModelError(
                f"full_scale must be positive, got {self.full_scale}"
            )
        if not 0.1 <= self.antialias_cutoff_fraction <= 1.0:
            raise HardwareModelError(
                "antialias_cutoff_fraction must be in [0.1, 1.0], got "
                f"{self.antialias_cutoff_fraction}"
            )

    @property
    def quantization_step(self) -> float:
        """Step size of the (mid-tread) quantiser in digital units."""
        return 2.0 / (2**self.bit_depth - 1)

    def convert(self, analog: Signal) -> Signal:
        """Digitise one analog waveform: :meth:`convert_batch` of one.

        Output unit is ``Unit.DIGITAL``.
        """
        digital = self.convert_batch(
            analog.samples[np.newaxis, :], analog.sample_rate
        )
        return Signal(digital[0], self.sample_rate, Unit.DIGITAL)

    def convert_batch(
        self, analog: np.ndarray, input_rate: float
    ) -> np.ndarray:
        """Digitise a stacked ``(n_signals, n_samples)`` batch.

        Steps, row by row: anti-alias low-pass at the *input* rate,
        polyphase resample to the device rate, normalise by full
        scale, clip to [-1, 1], quantise. Returns the digital sample
        matrix at :attr:`sample_rate`.
        """
        analog = np.asarray(analog, dtype=np.float64)
        if analog.ndim != 2:
            raise HardwareModelError(
                "convert_batch expects a 2-D (n_signals, n_samples) "
                f"batch, got shape {analog.shape}"
            )
        if input_rate < self.sample_rate:
            raise HardwareModelError(
                f"ADC input rate {input_rate} Hz below the "
                f"device rate {self.sample_rate} Hz; the microphone "
                "chain must run at or above the device rate"
            )
        cutoff = self.antialias_cutoff_fraction * self.sample_rate / 2.0
        if cutoff < (input_rate / 2.0) * 0.999:
            filtered = low_pass_array(analog, input_rate, cutoff, order=8)
        else:
            filtered = analog
        sampled = resample_array(filtered, input_rate, self.sample_rate)
        return self._digitize(sampled)

    def _digitize(self, samples: np.ndarray) -> np.ndarray:
        """Normalise, clip and quantise raw samples."""
        normalized = samples / self.full_scale
        clipped = np.clip(normalized, -1.0, 1.0)
        step = self.quantization_step
        quantized = np.round(clipped / step) * step
        # The mid-tread rounding can overshoot full scale by half a
        # step; a real converter saturates at its top code.
        return np.clip(quantized, -1.0, 1.0)
