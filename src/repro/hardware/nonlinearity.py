"""Memoryless polynomial nonlinearity.

Transducers and amplifiers are modelled as

    y = a1*x + a2*x^2 + a3*x^3 + ...

acting on a *normalised* input (|x| of order one at full scale). This
is the model the paper family uses analytically: with a two-tone input
``cos(2*pi*f1*t) + cos(2*pi*f2*t)`` the quadratic term contributes
harmonics ``2*f1``, ``2*f2`` and intermodulation products ``f1 +- f2``
— the difference term is the demodulation channel the attack rides on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.signals import Signal
from repro.errors import HardwareModelError


@dataclass(frozen=True)
class PolynomialNonlinearity:
    """A polynomial transfer function ``y = sum_i a_i x^i`` (i >= 1).

    Parameters
    ----------
    coefficients:
        ``(a1, a2, a3, ...)``. ``a1`` is the linear gain and must be
        non-zero; higher orders default to absent. A purely linear
        device is ``PolynomialNonlinearity((1.0,))``.
    """

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise HardwareModelError(
                "at least the linear coefficient a1 is required"
            )
        if self.coefficients[0] == 0.0:
            raise HardwareModelError(
                "the linear coefficient a1 must be non-zero; a device "
                "with no linear response records nothing"
            )
        if any(not np.isfinite(c) for c in self.coefficients):
            raise HardwareModelError("coefficients must be finite")

    @property
    def order(self) -> int:
        """Highest polynomial order present."""
        return len(self.coefficients)

    @property
    def a1(self) -> float:
        """Linear gain."""
        return self.coefficients[0]

    @property
    def a2(self) -> float:
        """Quadratic coefficient (0 if not specified)."""
        return self.coefficients[1] if len(self.coefficients) > 1 else 0.0

    @property
    def a3(self) -> float:
        """Cubic coefficient (0 if not specified)."""
        return self.coefficients[2] if len(self.coefficients) > 2 else 0.0

    def is_linear(self) -> bool:
        """True if every coefficient above a1 vanishes."""
        return all(c == 0.0 for c in self.coefficients[1:])

    def apply_array(self, x: np.ndarray) -> np.ndarray:
        """Apply the polynomial to a raw array (Horner evaluation).

        Shape-agnostic and elementwise: a stacked
        ``(n_trials, n_samples)`` batch produces bitwise the same
        values as applying the polynomial row by row, which is what
        lets the trial pipeline (:mod:`repro.sim.pipeline`) and
        :meth:`~repro.hardware.microphone.Microphone.record` share one
        stacked transducer model — for subclasses too, which must keep
        it elementwise.
        """
        x = np.asarray(x, dtype=np.float64)
        result = np.zeros_like(x)
        for coefficient in reversed(self.coefficients):
            result = (result + coefficient) * x
        return result

    def apply(self, signal: Signal) -> Signal:
        """Apply the polynomial sample-wise to a signal."""
        return signal.replace(samples=self.apply_array(signal.samples))

    def second_order_product_amplitude(
        self, amplitude_a: float, amplitude_b: float
    ) -> float:
        """Predicted amplitude of the ``f1 - f2`` intermodulation tone.

        For inputs ``A cos(2*pi*f1 t)`` and ``B cos(2*pi*f2 t)`` the
        quadratic term ``a2 (A cos + B cos)^2`` contains
        ``a2 * A * B * cos(2*pi*(f1 - f2) t)`` — this helper returns
        ``|a2| * A * B``, used by analytic range estimates and tests.
        """
        if amplitude_a < 0 or amplitude_b < 0:
            raise HardwareModelError("amplitudes must be non-negative")
        return abs(self.a2) * amplitude_a * amplitude_b

    def scaled(self, factor: float) -> "PolynomialNonlinearity":
        """Return a copy with every coefficient multiplied by ``factor``."""
        if factor == 0.0:
            raise HardwareModelError("scaling by zero erases the device")
        return PolynomialNonlinearity(
            tuple(c * factor for c in self.coefficients)
        )

    @staticmethod
    def linear(gain: float = 1.0) -> "PolynomialNonlinearity":
        """A perfectly linear transfer with the given gain."""
        return PolynomialNonlinearity((gain,))
