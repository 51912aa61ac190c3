"""The microphone receive chain.

Models the full path of Figure "typical diagram of a microphone" in the
attack literature: acoustic front-end -> nonlinear transducer +
pre-amplifier -> anti-alias low-pass -> ADC, plus self-noise.

The decisive stage is the nonlinearity. Incoming pressure is normalised
by the microphone's acoustic full scale (the SPL at which the chain
clips) to a dimensionless drive ``u``; the transducer + pre-amp apply
``a1*u + a2*u^2 + a3*u^3``. For an AM ultrasound input the ``a2 u^2``
term lands a scaled copy of the message at baseband, which then — and
this is the whole attack — *survives* the anti-alias filter that
removes the carrier and sidebands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sp_fft

from repro.acoustics.spl import spl_to_pressure
from repro.dsp.filters import high_pass_array, low_pass_array
from repro.dsp.signals import Signal, SignalBatch, Unit
from repro.hardware.adc import AnalogToDigitalConverter
from repro.hardware.nonlinearity import PolynomialNonlinearity
from repro.errors import HardwareModelError, SignalDomainError


@dataclass(frozen=True)
class MicrophoneConfig:
    """Parameters of a voice-capture microphone chain.

    Parameters
    ----------
    device_rate:
        Output sample rate delivered to the voice assistant, Hz.
    full_scale_spl:
        SPL (dB) at which the chain reaches digital full scale;
        ~120 dB SPL is typical of MEMS capsules.
    nonlinearity:
        Polynomial transfer applied to the normalised drive.
    noise_floor_spl:
        Equivalent input self-noise, dB SPL (A typical MEMS microphone
        has an equivalent input noise of ~29-35 dB SPL).
    antialias_cutoff_hz:
        Analog anti-alias low-pass cut-off; ~0.45x the device rate.
    dc_block_hz:
        AC-coupling high-pass corner. Real capture chains block DC;
        the corner sits well below the 20-50 Hz band where nonlinear
        demodulation leaves the traces the defense later exploits, so
        those traces are physical signal, not a coupling artefact.
    front_end_attenuation_db:
        Extra attenuation applied to ultrasonic content (>20 kHz)
        before the transducer — models plastic covers and acoustic
        ports. The Echo's covered microphones attenuate ultrasound
        noticeably; exposed phone microphones barely do.
    name:
        Human-readable preset label for reports.
    """

    device_rate: float = 48000.0
    full_scale_spl: float = 120.0
    nonlinearity: PolynomialNonlinearity = field(
        default_factory=lambda: PolynomialNonlinearity((1.0, 0.05, 0.005))
    )
    noise_floor_spl: float = 30.0
    antialias_cutoff_hz: float | None = None
    dc_block_hz: float = 10.0
    front_end_attenuation_db: float = 0.0
    name: str = "generic-mems"

    def __post_init__(self) -> None:
        if self.device_rate <= 0:
            raise HardwareModelError(
                f"device_rate must be positive, got {self.device_rate}"
            )
        if not 60.0 <= self.full_scale_spl <= 180.0:
            raise HardwareModelError(
                f"full_scale_spl {self.full_scale_spl} dB outside the "
                "plausible range [60, 180]"
            )
        if self.noise_floor_spl >= self.full_scale_spl:
            raise HardwareModelError(
                "noise floor at or above full scale leaves no dynamic "
                "range"
            )
        if self.front_end_attenuation_db < 0:
            raise HardwareModelError(
                "front_end_attenuation_db must be non-negative, got "
                f"{self.front_end_attenuation_db}"
            )
        if not 0 < self.dc_block_hz < 20.0:
            raise HardwareModelError(
                "dc_block_hz must lie in (0, 20) Hz so the sub-50 Hz "
                f"demodulation traces survive, got {self.dc_block_hz}"
            )

    @property
    def effective_antialias_cutoff(self) -> float:
        """Anti-alias cut-off, defaulting to 45 % of the device rate."""
        if self.antialias_cutoff_hz is not None:
            return self.antialias_cutoff_hz
        return 0.45 * self.device_rate


@dataclass
class Microphone:
    """A complete microphone model; call :meth:`record`.

    The chain (all at the incoming acoustic rate until the ADC):

    1. front-end ultrasonic attenuation (cover/port),
    2. normalisation by the acoustic full scale,
    3. polynomial nonlinearity,
    4. analog anti-alias low-pass,
    5. self-noise injection,
    6. ADC (resample to device rate, clip, quantise).
    """

    config: MicrophoneConfig

    @property
    def full_scale_pressure(self) -> float:
        """Peak pressure (Pa) mapped to digital full scale."""
        # Full scale is specified as an RMS sine SPL; its peak is
        # sqrt(2) higher.
        return spl_to_pressure(self.config.full_scale_spl) * np.sqrt(2.0)

    def record(
        self, pressure: Signal, rng: np.random.Generator | None = None
    ) -> Signal:
        """Record an acoustic pressure waveform.

        Composed of the chain's two halves — :meth:`record_analog`
        (front-end through self-noise) and :meth:`digitize` (ADC) —
        which the trial pipeline runs as separate stages.

        Parameters
        ----------
        pressure:
            Sound pressure at the diaphragm, pascals, at a rate >= the
            device rate (use the acoustic simulation rate).
        rng:
            Random generator for self-noise; required (determinism
            comes from seeding).

        Returns
        -------
        Signal
            Digital recording at ``config.device_rate`` in [-1, 1].
        """
        return self.digitize(self.record_analog(pressure, rng))

    def record_analog(
        self, pressure: Signal, rng: np.random.Generator | None = None
    ) -> Signal:
        """The analog half of :meth:`record`: a stack of one."""
        return self.record_analog_batch(
            SignalBatch.tiled(pressure, 1), [rng]
        ).row(0)

    def digitize(self, analog: Signal) -> Signal:
        """The digital half of :meth:`record`: a stack of one."""
        return self.digitize_batch(SignalBatch.tiled(analog, 1)).row(0)

    def record_analog_batch(
        self,
        pressure: SignalBatch,
        rngs: list[np.random.Generator | None],
    ) -> SignalBatch:
        """Everything before the ADC, over a stack of waveforms.

        Front-end attenuation, full-scale normalisation, the
        polynomial nonlinearity, the anti-alias and DC-block filters
        run as one ``axis=-1`` operation over the whole
        ``(n_trials, n_samples)`` stack; row ``i`` then adds the
        self-noise drawn from ``rngs[i]``. Returns the noisy analog
        stack, still at the acoustic rate.
        """
        if pressure.unit != Unit.PASCAL:
            raise SignalDomainError(
                "record expects pressure waveforms in pascals, got "
                f"unit {pressure.unit!r}"
            )
        if len(rngs) != pressure.n_signals:
            raise HardwareModelError(
                f"{pressure.n_signals} stacked waveforms but "
                f"{len(rngs)} generators; record needs exactly one "
                "per trial"
            )
        if any(rng is None for rng in rngs):
            raise HardwareModelError(
                "record requires a numpy Generator for self-noise; "
                "seed one explicitly for reproducibility"
            )
        conditioned = self._front_end_array(
            pressure.samples, pressure.sample_rate
        )
        drive = conditioned / self.full_scale_pressure
        shaped = self.config.nonlinearity.apply_array(drive)
        # Non-finite samples (drive outside the nonlinearity's validity
        # range) propagate through the filters and are rejected by the
        # SignalBatch constructor below, without an extra full-stack
        # isfinite scan here.
        rate = pressure.sample_rate
        cutoff = min(
            self.config.effective_antialias_cutoff, (rate / 2.0) * 0.99
        )
        filtered = low_pass_array(shaped, rate, cutoff, order=8)
        filtered = high_pass_array(
            filtered, rate, self.config.dc_block_hz, order=1
        )
        noise_rms_pa = spl_to_pressure(self.config.noise_floor_spl)
        noise_rms_digital = (
            noise_rms_pa
            * abs(self.config.nonlinearity.a1)
            / self.full_scale_pressure
        )
        noisy = np.empty_like(filtered)
        for index, rng in enumerate(rngs):
            noise = rng.normal(
                0.0, noise_rms_digital, filtered.shape[-1]
            )
            np.add(filtered[index], noise, out=noisy[index])
        return SignalBatch.adopt(noisy, rate, Unit.VOLT)

    def digitize_batch(self, analog: SignalBatch) -> SignalBatch:
        """The ADC over a stack of analog waveforms, row by row."""
        adc = AnalogToDigitalConverter(
            sample_rate=self.config.device_rate, full_scale=1.0
        )
        digital = adc.convert_batch(analog.samples, analog.sample_rate)
        return SignalBatch.adopt(
            digital, self.config.device_rate, Unit.DIGITAL
        )

    def _front_end_array(
        self, samples: np.ndarray, sample_rate: float
    ) -> np.ndarray:
        """Cover/port attenuation on a 1-D waveform or a 2-D stack."""
        attenuation_db = self.config.front_end_attenuation_db
        if attenuation_db == 0.0:
            return samples
        gain = 10.0 ** (-attenuation_db / 20.0)
        n = samples.shape[-1]
        spectrum = sp_fft.rfft(samples, axis=-1)
        freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
        # Smooth transition from unity below 18 kHz to the attenuated
        # level above 22 kHz, approximating a cover's mass-law slope.
        response = np.ones_like(freqs)
        lo, hi = 18000.0, 22000.0
        ramp = (freqs >= lo) & (freqs <= hi)
        response[ramp] = 1.0 + (gain - 1.0) * (freqs[ramp] - lo) / (hi - lo)
        response[freqs > hi] = gain
        return sp_fft.irfft(spectrum * response, n=n, axis=-1)

    def demodulation_gain(self, carrier_spl: float) -> float:
        """Analytic small-signal demodulation gain at a carrier level.

        For a carrier of SPL ``L`` and a sideband pair of equal level,
        the recovered baseband amplitude relative to the sideband
        amplitude is ``2 * a2 * u_c / a1`` with ``u_c`` the normalised
        carrier amplitude. Used by analytic range predictions.
        """
        u_c = (
            spl_to_pressure(carrier_spl)
            * np.sqrt(2.0)
            / self.full_scale_pressure
        )
        a = self.config.nonlinearity
        if a.a1 == 0:
            raise HardwareModelError("a1 must be non-zero")
        return float(2.0 * abs(a.a2) * u_c / abs(a.a1))

