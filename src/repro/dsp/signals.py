"""The :class:`Signal` container and elementary waveform factories.

A :class:`Signal` couples a one-dimensional ``float64`` sample array
with the sample rate it was captured or generated at and the physical
unit of its samples. Binding the rate to the data removes a whole
class of bugs in which a waveform generated at the acoustic simulation
rate (typically 192 kHz) is silently interpreted at a device rate
(16-48 kHz) or vice versa: any arithmetic that combines two signals
checks rates and units and raises immediately on a mismatch.

Units are deliberately lightweight string constants (:class:`Unit`)
rather than a full quantity system; the library only ever needs to
distinguish sound pressure (pascal), electrical signals (volt) and
dimensionless digital samples.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import SampleRateError, SignalDomainError


class Unit:
    """Physical units a :class:`Signal` may carry.

    ``PASCAL``
        Acoustic sound pressure, used throughout propagation.
    ``VOLT``
        Electrical signals inside microphone/speaker models.
    ``DIGITAL``
        Dimensionless samples after an ADC, in ``[-1, 1]``.
    """

    PASCAL = "Pa"
    VOLT = "V"
    DIGITAL = "digital"

    _ALL = (PASCAL, VOLT, DIGITAL)

    @classmethod
    def validate(cls, unit: str) -> str:
        """Return ``unit`` if it is a known unit, else raise."""
        if unit not in cls._ALL:
            raise SignalDomainError(
                f"unknown unit {unit!r}; expected one of {cls._ALL}"
            )
        return unit


class Signal:
    """A sampled waveform with an explicit sample rate and unit.

    Parameters
    ----------
    samples:
        One-dimensional array-like of real samples. Copied and cast to
        ``float64`` — except ``float32`` input, which is kept as is
        (the opt-in fast-math path; see
        :func:`repro.sim.pipeline.build_pipeline`).
    sample_rate:
        Sampling frequency in hertz; must be positive.
    unit:
        One of the :class:`Unit` constants. Defaults to
        ``Unit.DIGITAL``.

    Notes
    -----
    Instances are *mostly* immutable by convention: methods return new
    signals rather than mutating in place, and the sample buffer is
    marked read-only so accidental mutation raises.
    """

    __slots__ = ("_samples", "_sample_rate", "_unit")

    def __init__(
        self,
        samples: Iterable[float] | np.ndarray,
        sample_rate: float,
        unit: str = Unit.DIGITAL,
    ) -> None:
        dtype = (
            np.float32
            if getattr(samples, "dtype", None) == np.float32
            else np.float64
        )
        array = np.asarray(samples, dtype=dtype)
        if array.ndim != 1:
            raise SignalDomainError(
                f"Signal requires a 1-D sample array, got shape "
                f"{array.shape}; stack multiple waveforms with "
                "SignalBatch instead"
            )
        if not np.all(np.isfinite(array)):
            raise SignalDomainError("Signal samples must be finite")
        if sample_rate <= 0 or not math.isfinite(sample_rate):
            raise SampleRateError(
                f"sample_rate must be a positive finite number, got {sample_rate}"
            )
        self._samples = array.copy()
        self._samples.flags.writeable = False
        self._sample_rate = float(sample_rate)
        self._unit = Unit.validate(unit)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def samples(self) -> np.ndarray:
        """Read-only view of the sample array."""
        return self._samples

    @property
    def sample_rate(self) -> float:
        """Sampling frequency in hertz."""
        return self._sample_rate

    @property
    def unit(self) -> str:
        """Physical unit of the samples (a :class:`Unit` constant)."""
        return self._unit

    @property
    def n_samples(self) -> int:
        """Number of samples."""
        return int(self._samples.shape[0])

    @property
    def duration(self) -> float:
        """Signal length in seconds."""
        return self.n_samples / self._sample_rate

    @property
    def nyquist(self) -> float:
        """Nyquist frequency (half the sample rate) in hertz."""
        return self._sample_rate / 2.0

    def times(self) -> np.ndarray:
        """Sample timestamps in seconds, starting at zero."""
        return np.arange(self.n_samples) / self._sample_rate

    # ------------------------------------------------------------------
    # Scalar statistics
    # ------------------------------------------------------------------
    def rms(self) -> float:
        """Root-mean-square amplitude; zero for an empty signal."""
        if self.n_samples == 0:
            return 0.0
        return float(np.sqrt(np.mean(np.square(self._samples))))

    def peak(self) -> float:
        """Largest absolute sample value; zero for an empty signal."""
        if self.n_samples == 0:
            return 0.0
        return float(np.max(np.abs(self._samples)))

    def energy(self) -> float:
        """Sum of squared samples (discrete-time energy)."""
        return float(np.sum(np.square(self._samples)))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def replace(
        self,
        samples: np.ndarray | None = None,
        sample_rate: float | None = None,
        unit: str | None = None,
    ) -> "Signal":
        """Return a copy with any of the three fields replaced."""
        return Signal(
            self._samples if samples is None else samples,
            self._sample_rate if sample_rate is None else sample_rate,
            self._unit if unit is None else unit,
        )

    def with_unit(self, unit: str) -> "Signal":
        """Return the same waveform relabelled with a different unit.

        This is an explicit escape hatch for transducer models, which
        genuinely convert between physical domains.
        """
        return self.replace(unit=unit)

    def copy(self) -> "Signal":
        """Return an independent copy."""
        return self.replace()

    # ------------------------------------------------------------------
    # Compatibility checks
    # ------------------------------------------------------------------
    def require_same_rate(self, other: "Signal") -> None:
        """Raise :class:`SampleRateError` unless rates match."""
        if not math.isclose(
            self._sample_rate, other._sample_rate, rel_tol=1e-12
        ):
            raise SampleRateError(
                f"sample rates differ: {self._sample_rate} Hz vs "
                f"{other._sample_rate} Hz; resample explicitly first"
            )

    def require_same_unit(self, other: "Signal") -> None:
        """Raise :class:`SignalDomainError` unless units match."""
        if self._unit != other._unit:
            raise SignalDomainError(
                f"units differ: {self._unit!r} vs {other._unit!r}"
            )

    def _binary_op(
        self, other: "Signal | float", op: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ) -> "Signal":
        if isinstance(other, Signal):
            self.require_same_rate(other)
            self.require_same_unit(other)
            n = max(self.n_samples, other.n_samples)
            a = np.zeros(n)
            b = np.zeros(n)
            a[: self.n_samples] = self._samples
            b[: other.n_samples] = other._samples
            return self.replace(samples=op(a, b))
        return self.replace(samples=op(self._samples, float(other)))

    def __add__(self, other: "Signal | float") -> "Signal":
        return self._binary_op(other, np.add)

    __radd__ = __add__

    def __sub__(self, other: "Signal | float") -> "Signal":
        return self._binary_op(other, np.subtract)

    def __mul__(self, other: "Signal | float") -> "Signal":
        if isinstance(other, Signal):
            # Pointwise products (e.g. modulation) are unit-producing
            # operations; keep the left operand's unit but require
            # matching rates.
            self.require_same_rate(other)
            n = min(self.n_samples, other.n_samples)
            return self.replace(
                samples=self._samples[:n] * other._samples[:n]
            )
        return self.replace(samples=self._samples * float(other))

    __rmul__ = __mul__

    def __neg__(self) -> "Signal":
        return self.replace(samples=-self._samples)

    def __len__(self) -> int:
        return self.n_samples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signal):
            return NotImplemented
        return (
            self._unit == other._unit
            and math.isclose(self._sample_rate, other._sample_rate)
            and self.n_samples == other.n_samples
            and bool(np.array_equal(self._samples, other._samples))
        )

    def __hash__(self) -> int:  # pragma: no cover - rarely used
        return hash(
            (self._unit, self._sample_rate, self._samples.tobytes())
        )

    def __repr__(self) -> str:
        return (
            f"Signal(n={self.n_samples}, rate={self._sample_rate:g} Hz, "
            f"unit={self._unit!r}, dur={self.duration:.4f} s)"
        )

    # ------------------------------------------------------------------
    # Shape operations
    # ------------------------------------------------------------------
    def scaled_to_peak(self, peak: float) -> "Signal":
        """Scale so the largest absolute sample equals ``peak``.

        A silent signal is returned unchanged, since there is no finite
        gain that achieves the requested peak.
        """
        if peak < 0:
            raise SignalDomainError(f"peak must be non-negative, got {peak}")
        current = self.peak()
        if current == 0.0:
            return self.copy()
        gain = peak / current
        if not np.isfinite(gain):
            # A subnormal peak makes the one-step gain overflow to
            # inf; normalising first keeps every intermediate in
            # range (|sample| <= current, so sample/current is in
            # [-1, 1]). Only this degenerate path takes the two-step
            # route — the normal path stays bitwise unchanged.
            return self.replace(samples=self.samples / current * peak)
        return self * gain

    def scaled_to_rms(self, target_rms: float) -> "Signal":
        """Scale so the RMS equals ``target_rms`` (silence unchanged)."""
        if target_rms < 0:
            raise SignalDomainError(
                f"target_rms must be non-negative, got {target_rms}"
            )
        current = self.rms()
        if current == 0.0:
            return self.copy()
        gain = target_rms / current
        if not np.isfinite(gain):
            # Same overflow guard as scaled_to_peak: normalise first
            # when the one-step gain leaves float range.
            return self.replace(samples=self.samples / current * target_rms)
        return self * gain

    def slice_time(self, start: float, end: float) -> "Signal":
        """Return the sub-signal between ``start`` and ``end`` seconds."""
        if end < start:
            raise SignalDomainError(
                f"slice end ({end}) precedes start ({start})"
            )
        i0 = max(0, int(round(start * self._sample_rate)))
        i1 = min(self.n_samples, int(round(end * self._sample_rate)))
        return self.replace(samples=self._samples[i0:i1])

    def padded(self, n_before: int = 0, n_after: int = 0) -> "Signal":
        """Return a copy zero-padded by the given sample counts."""
        if n_before < 0 or n_after < 0:
            raise SignalDomainError("padding counts must be non-negative")
        return self.replace(
            samples=np.concatenate(
                [np.zeros(n_before), self._samples, np.zeros(n_after)]
            )
        )

    def padded_to(self, n_samples: int) -> "Signal":
        """Zero-pad at the end so the signal has ``n_samples`` samples."""
        if n_samples < self.n_samples:
            raise SignalDomainError(
                f"padded_to target ({n_samples}) is shorter than the "
                f"signal ({self.n_samples}); use slicing to shorten"
            )
        return self.padded(n_after=n_samples - self.n_samples)

    def faded(self, fade_seconds: float) -> "Signal":
        """Apply raised-cosine fade-in and fade-out of the given length.

        Fading attack waveforms avoids audible clicks at the edges,
        which would defeat the point of an inaudible signal.
        """
        n_fade = int(round(fade_seconds * self._sample_rate))
        if n_fade <= 0:
            return self.copy()
        if 2 * n_fade > self.n_samples:
            raise SignalDomainError(
                "fade length exceeds half the signal duration"
            )
        ramp = 0.5 * (1 - np.cos(np.pi * np.arange(n_fade) / n_fade))
        samples = self._samples.copy()
        samples[:n_fade] *= ramp
        samples[-n_fade:] *= ramp[::-1]
        return self.replace(samples=samples)

    def concat(self, other: "Signal") -> "Signal":
        """Concatenate another signal of the same rate and unit."""
        self.require_same_rate(other)
        self.require_same_unit(other)
        return self.replace(
            samples=np.concatenate([self._samples, other._samples])
        )


class SignalBatch:
    """A stack of equal-length waveforms sharing one rate and unit.

    The container behind the trial pipeline's stage kernels
    (:mod:`repro.sim.pipeline`): ``samples`` is a two-dimensional
    ``float64`` array (``float32`` input is preserved, for the opt-in
    fast-math path) of shape ``(n_signals, n_samples)`` — one trial
    (or one source) per row, time along the last axis. Batched DSP
    stages operate on the whole stack with ``axis=-1`` operations, so
    per-row results are bitwise identical to running each row through
    the scalar :class:`Signal` pipeline.

    Like :class:`Signal`, the buffer is read-only and rate/unit are
    bound to the data, so rate-mixing bugs raise instead of silently
    corrupting a whole batch at once.
    """

    __slots__ = ("_samples", "_sample_rate", "_unit")

    def __init__(
        self,
        samples: np.ndarray,
        sample_rate: float,
        unit: str = Unit.DIGITAL,
    ) -> None:
        dtype = (
            np.float32
            if getattr(samples, "dtype", None) == np.float32
            else np.float64
        )
        array = np.asarray(samples, dtype=dtype)
        if array.ndim != 2:
            raise SignalDomainError(
                "SignalBatch requires a 2-D (n_signals, n_samples) "
                f"array, got shape {array.shape}; wrap a single "
                "waveform with Signal, or reshape explicitly"
            )
        if array.shape[0] < 1:
            raise SignalDomainError(
                "SignalBatch requires at least one row"
            )
        if not np.all(np.isfinite(array)):
            raise SignalDomainError("SignalBatch samples must be finite")
        if sample_rate <= 0 or not math.isfinite(sample_rate):
            raise SampleRateError(
                f"sample_rate must be a positive finite number, got "
                f"{sample_rate}"
            )
        self._samples = array.copy()
        self._samples.flags.writeable = False
        self._sample_rate = float(sample_rate)
        self._unit = Unit.validate(unit)

    @classmethod
    def adopt(
        cls,
        samples: np.ndarray,
        sample_rate: float,
        unit: str = Unit.DIGITAL,
    ) -> "SignalBatch":
        """Wrap a freshly-allocated array without the defensive copy.

        Identical validation (shape, finiteness, rate) and the same
        read-only invariant as the constructor, but the array is
        adopted in place instead of copied. For hot batch kernels that
        hand over ownership of an array they just computed and hold no
        other reference to; the caller must not touch ``samples``
        afterwards. Anything that is not already a contiguous float
        array of the right dtype falls back to the copying
        constructor.
        """
        if not (
            isinstance(samples, np.ndarray)
            and samples.dtype in (np.float64, np.float32)
            and samples.flags.c_contiguous
            and samples.base is None
        ):
            return cls(samples, sample_rate, unit)
        batch = cls.__new__(cls)
        if samples.ndim != 2:
            raise SignalDomainError(
                "SignalBatch requires a 2-D (n_signals, n_samples) "
                f"array, got shape {samples.shape}; wrap a single "
                "waveform with Signal, or reshape explicitly"
            )
        if samples.shape[0] < 1:
            raise SignalDomainError(
                "SignalBatch requires at least one row"
            )
        if not np.all(np.isfinite(samples)):
            raise SignalDomainError("SignalBatch samples must be finite")
        if sample_rate <= 0 or not math.isfinite(sample_rate):
            raise SampleRateError(
                f"sample_rate must be a positive finite number, got "
                f"{sample_rate}"
            )
        samples.flags.writeable = False
        batch._samples = samples
        batch._sample_rate = float(sample_rate)
        batch._unit = Unit.validate(unit)
        return batch

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def samples(self) -> np.ndarray:
        """Read-only ``(n_signals, n_samples)`` sample matrix."""
        return self._samples

    @property
    def sample_rate(self) -> float:
        """Sampling frequency in hertz, shared by every row."""
        return self._sample_rate

    @property
    def unit(self) -> str:
        """Physical unit of the samples (a :class:`Unit` constant)."""
        return self._unit

    @property
    def n_signals(self) -> int:
        """Number of stacked waveforms (rows)."""
        return int(self._samples.shape[0])

    @property
    def n_samples(self) -> int:
        """Samples per waveform (the last-axis length)."""
        return int(self._samples.shape[-1])

    @property
    def duration(self) -> float:
        """Per-row length in seconds."""
        return self.n_samples / self._sample_rate

    @property
    def nyquist(self) -> float:
        """Nyquist frequency (half the sample rate) in hertz."""
        return self._sample_rate / 2.0

    def __len__(self) -> int:
        return self.n_signals

    def __repr__(self) -> str:
        return (
            f"SignalBatch(n_signals={self.n_signals}, "
            f"n={self.n_samples}, rate={self._sample_rate:g} Hz, "
            f"unit={self._unit!r})"
        )

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_signals(cls, signals: Sequence[Signal]) -> "SignalBatch":
        """Stack equal-length signals of one rate and unit."""
        if not signals:
            raise SignalDomainError(
                "from_signals requires at least one signal"
            )
        first = signals[0]
        for other in signals[1:]:
            first.require_same_rate(other)
            first.require_same_unit(other)
            if other.n_samples != first.n_samples:
                raise SignalDomainError(
                    "from_signals requires equal lengths, got "
                    f"{first.n_samples} and {other.n_samples} samples"
                )
        return cls(
            np.stack([s.samples for s in signals]),
            first.sample_rate,
            first.unit,
        )

    @classmethod
    def tiled(cls, signal: Signal, n_signals: int) -> "SignalBatch":
        """``n_signals`` identical copies of one waveform."""
        if n_signals < 1:
            raise SignalDomainError(
                f"n_signals must be >= 1, got {n_signals}"
            )
        return cls.adopt(
            np.tile(signal.samples, (n_signals, 1)),
            signal.sample_rate,
            signal.unit,
        )

    def row(self, index: int) -> Signal:
        """The ``index``-th waveform as a scalar :class:`Signal`."""
        if not 0 <= index < self.n_signals:
            raise SignalDomainError(
                f"row index {index} outside [0, {self.n_signals})"
            )
        return Signal(
            self._samples[index], self._sample_rate, self._unit
        )

    def signals(self) -> list[Signal]:
        """Every row as an independent scalar :class:`Signal`."""
        return [self.row(i) for i in range(self.n_signals)]

    def replace(
        self,
        samples: np.ndarray | None = None,
        sample_rate: float | None = None,
        unit: str | None = None,
    ) -> "SignalBatch":
        """Return a copy with any of the three fields replaced."""
        return SignalBatch(
            self._samples if samples is None else samples,
            self._sample_rate if sample_rate is None else sample_rate,
            self._unit if unit is None else unit,
        )


# ----------------------------------------------------------------------
# Waveform factories
# ----------------------------------------------------------------------
def _n_samples(duration: float, sample_rate: float) -> int:
    if duration < 0:
        raise SignalDomainError(f"duration must be non-negative, got {duration}")
    if sample_rate <= 0:
        raise SampleRateError(
            f"sample_rate must be positive, got {sample_rate}"
        )
    return int(round(duration * sample_rate))


def silence(
    duration: float, sample_rate: float, unit: str = Unit.DIGITAL
) -> Signal:
    """All-zero signal of the given duration."""
    return Signal(np.zeros(_n_samples(duration, sample_rate)), sample_rate, unit)


def tone(
    frequency: float,
    duration: float,
    sample_rate: float,
    amplitude: float = 1.0,
    phase: float = 0.0,
    unit: str = Unit.DIGITAL,
) -> Signal:
    """Pure cosine tone.

    Raises
    ------
    SignalDomainError
        If the frequency is negative or at/above Nyquist (such a tone
        cannot be represented and aliasing it silently would corrupt
        downstream spectral reasoning).
    """
    if frequency < 0:
        raise SignalDomainError(f"frequency must be non-negative, got {frequency}")
    if frequency >= sample_rate / 2:
        raise SignalDomainError(
            f"tone at {frequency} Hz is not representable at "
            f"{sample_rate} Hz (Nyquist {sample_rate / 2} Hz)"
        )
    t = np.arange(_n_samples(duration, sample_rate)) / sample_rate
    return Signal(
        amplitude * np.cos(2 * np.pi * frequency * t + phase),
        sample_rate,
        unit,
    )


def multi_tone(
    components: Sequence[tuple[float, float]],
    duration: float,
    sample_rate: float,
    unit: str = Unit.DIGITAL,
) -> Signal:
    """Sum of cosine tones given as ``(frequency, amplitude)`` pairs."""
    if not components:
        raise SignalDomainError("multi_tone requires at least one component")
    n = _n_samples(duration, sample_rate)
    t = np.arange(n) / sample_rate
    out = np.zeros(n)
    for frequency, amplitude in components:
        if frequency < 0 or frequency >= sample_rate / 2:
            raise SignalDomainError(
                f"component at {frequency} Hz is not representable at "
                f"{sample_rate} Hz"
            )
        out += amplitude * np.cos(2 * np.pi * frequency * t)
    return Signal(out, sample_rate, unit)


def chirp(
    f_start: float,
    f_end: float,
    duration: float,
    sample_rate: float,
    amplitude: float = 1.0,
    unit: str = Unit.DIGITAL,
) -> Signal:
    """Linear frequency sweep from ``f_start`` to ``f_end``."""
    for f in (f_start, f_end):
        if f < 0 or f >= sample_rate / 2:
            raise SignalDomainError(
                f"chirp endpoint {f} Hz is not representable at "
                f"{sample_rate} Hz"
            )
    n = _n_samples(duration, sample_rate)
    t = np.arange(n) / sample_rate
    if duration > 0:
        k = (f_end - f_start) / duration
    else:
        k = 0.0
    phase = 2 * np.pi * (f_start * t + 0.5 * k * t * t)
    return Signal(amplitude * np.cos(phase), sample_rate, unit)


def white_noise(
    duration: float,
    sample_rate: float,
    rng: np.random.Generator,
    rms_level: float = 1.0,
    unit: str = Unit.DIGITAL,
) -> Signal:
    """Gaussian white noise with the requested RMS level.

    The random generator is a required argument: every stochastic
    element in this library takes an explicit
    :class:`numpy.random.Generator` so experiments are reproducible.
    """
    if rms_level < 0:
        raise SignalDomainError(
            f"rms_level must be non-negative, got {rms_level}"
        )
    n = _n_samples(duration, sample_rate)
    return Signal(rng.normal(0.0, 1.0, n) * rms_level, sample_rate, unit)


def from_samples(
    samples: Iterable[float] | np.ndarray,
    sample_rate: float,
    unit: str = Unit.DIGITAL,
) -> Signal:
    """Convenience alias for the :class:`Signal` constructor."""
    return Signal(samples, sample_rate, unit)


def mix(signals: Sequence[Signal]) -> Signal:
    """Sum a non-empty sequence of signals sample-wise.

    All inputs must share rate and unit; shorter signals are treated as
    zero-padded to the longest length. This is the primitive the
    acoustic channel uses to combine waves from multiple speakers at
    the microphone diaphragm.
    """
    if not signals:
        raise SignalDomainError("mix requires at least one signal")
    total = signals[0]
    for s in signals[1:]:
        total = total + s
    return total
