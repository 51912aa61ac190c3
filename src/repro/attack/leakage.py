"""Attacker-side audible leakage analysis.

When an ultrasonic speaker plays an attack waveform, its driver's own
quadratic term demodulates the signal *inside the transmitter*: the
diaphragm radiates a faint audible copy of the hidden command plus
low-frequency envelope noise. A bystander near the attacker's rig can
hear it once drive power crosses a threshold — the effect that caps
single-speaker attack range.

This module quantifies that leakage: given a speaker model, a drive
waveform and a bystander distance, it computes the audible-band
pressure at the bystander and its audibility margin, and solves for the
maximum drive level that keeps the rig inaudible.
"""

from __future__ import annotations

import numpy as np

from repro.acoustics.propagation import PropagationModel
from repro.dsp.signals import Signal
from repro.hardware.speaker import UltrasonicSpeaker
from repro.psychoacoustics.audibility import (
    AudibilityReport,
    evaluate_audibility,
)
from repro.psychoacoustics.threshold import AUDIBLE_HIGH_HZ
from repro.errors import AttackConfigError

#: The bystander path's default model. One shared instance, so its
#: per-(bin layout, distance) absorption memo serves every probe of
#: a drive-level search instead of starting empty on each.
_BYSTANDER_PROPAGATION = PropagationModel(include_delay=False)


def audible_leakage(
    speaker: UltrasonicSpeaker,
    drive: Signal,
    drive_level: float,
    bystander_distance_m: float = 0.5,
    propagation: PropagationModel | None = None,
) -> Signal:
    """Audible-band pressure waveform reaching a bystander.

    The speaker output (pressure at 1 m) is low-passed to the audible
    band — removing the deliberately ultrasonic content — and then
    propagated to the bystander distance. What remains is exactly the
    leakage a human could hear.
    """
    if bystander_distance_m <= 0:
        raise AttackConfigError(
            f"bystander distance must be positive, got "
            f"{bystander_distance_m}"
        )
    model = propagation or _BYSTANDER_PROPAGATION
    radiated = speaker.play(drive, drive_level)
    # Brick-wall FFT cut rather than an IIR low-pass: the deliberately
    # ultrasonic content is tens of dB stronger than the leakage, so
    # even an order-8 filter's skirts would dwarf the quantity being
    # measured. Zero phase and perfect rejection are exactly right for
    # an analysis (non-causal) path.
    spectrum = np.fft.rfft(radiated.samples)
    freqs = np.fft.rfftfreq(radiated.n_samples, d=1.0 / radiated.sample_rate)
    spectrum[freqs > AUDIBLE_HIGH_HZ] = 0.0
    audible_band = radiated.replace(
        samples=np.fft.irfft(spectrum, n=radiated.n_samples)
    )
    return model.propagate(audible_band, bystander_distance_m)


def leakage_report(
    speaker: UltrasonicSpeaker,
    drive: Signal,
    drive_level: float,
    bystander_distance_m: float = 0.5,
    propagation: PropagationModel | None = None,
) -> AudibilityReport:
    """Audibility analysis of the leakage at the bystander position."""
    leak = audible_leakage(
        speaker, drive, drive_level, bystander_distance_m, propagation
    )
    return evaluate_audibility(leak)


def max_inaudible_drive(
    speaker: UltrasonicSpeaker,
    drive: Signal,
    bystander_distance_m: float = 0.5,
    margin_db: float = 0.0,
    tolerance_db: float = 0.5,
    propagation: PropagationModel | None = None,
) -> float:
    """Largest drive level whose leakage stays inaudible.

    Finds ``g`` in (0, 1] such that the leakage audibility margin at
    the bystander is at most ``-margin_db`` (i.e. ``margin_db`` dB of
    safety below threshold).

    The search exploits the physics: the dominant leakage is the
    quadratic term, whose pressure scales as ``g**2``, so its SPL moves
    at 40 dB per decade of drive. An analytic first guess from the
    full-drive margin is then refined by bisection, which also covers
    regimes where a linear (skirt) component scales at 20 dB/decade.

    Returns
    -------
    float
        Drive level in (0, 1]. If even full drive is inaudible,
        returns 1.0; if no positive drive is inaudible (pathological
        configurations), raises.
    """
    if margin_db < 0:
        raise AttackConfigError(
            f"margin_db must be non-negative, got {margin_db}"
        )
    target = -margin_db

    def margin_at(level: float) -> float:
        return leakage_report(
            speaker, drive, level, bystander_distance_m, propagation
        ).margin_db

    full = margin_at(1.0)
    if full <= target:
        return 1.0
    # Analytic quadratic-scaling guess: margin(g) ~ full + 40*log10(g).
    guess = 10.0 ** ((target - full) / 40.0)
    low, high = guess / 8.0, 1.0
    if margin_at(low) > target:
        # Even the pessimistic end is audible: fall back to a linear
        # scaling bound before declaring failure.
        low = 10.0 ** ((target - full) / 20.0) / 8.0
        if low <= 1e-6 or margin_at(low) > target:
            raise AttackConfigError(
                "no inaudible drive level exists for this speaker and "
                "waveform; its audible-band content does not vanish at "
                "low drive"
            )
    for _ in range(20):
        mid = (low * high) ** 0.5  # geometric bisection on a dB scale
        if margin_at(mid) > target:
            high = mid
        else:
            low = mid
        if abs(20.0 * (high / low - 1.0)) < tolerance_db:
            break
    return float(low)
