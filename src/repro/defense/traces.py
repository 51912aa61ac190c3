"""Low-frequency demodulation trace extraction.

The physics: if the microphone records an attacked signal, its output
(before the device's band limits) is approximately

    a1*(m(t) demodulated voice) + a2*m(t)^2 (squared envelope) + noise

The squared envelope term concentrates below ~50 Hz (speech energy
envelopes move at syllabic rates, a few hertz, and the intra-band
difference frequencies of each spectral chunk extend to the chunk
bandwidth). Its amplitude tracks the instantaneous voice power, so the
sub-50 Hz band is not merely energetic — it is *correlated in time*
with the voice-band envelope. Both properties are measured here.

The measurements are environment-agnostic by design: recordings made
in a reverberant room, under TV interference or against a walking
attacker (any :class:`~repro.sim.spec.ScenarioSpec` environment the
dataset layer records in) flow through the same estimators — a vocal
tract still radiates no coherent sub-50 Hz energy in a living room,
and reflections intermodulate at the diaphragm exactly like direct
waves. :func:`separation_d_prime` quantifies how well a trace feature
separates the classes a given environment produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.filters import band_pass_array
from repro.dsp.framing import frame_count
from repro.dsp.measures import (
    max_cross_correlation,
    power_ratio_to_db,
)
from repro.dsp.signals import Signal, SignalBatch
from repro.dsp.spectrum import band_power_matrix, welch_psd_matrix
from repro.errors import DefenseError

#: The demodulation-trace band, hertz. The lower edge clears the
#: microphone's AC-coupling corner; the upper edge is the paper
#: family's sub-50 Hz region.
TRACE_BAND_HZ = (15.0, 50.0)

#: The voice band used as the reference, hertz.
VOICE_BAND_HZ = (300.0, 3000.0)

#: Welch segment length (samples) of the trace PSD estimate; signals
#: shorter than one segment fall back to a single padded FFT of their
#: own length. The streaming accumulator shares these so its online
#: estimate is the same estimator.
TRACE_SEGMENT_SAMPLES = 8192

#: Welch window of the trace PSD estimate (see the rationale at the
#: call site in :func:`analyze_traces_batch`).
TRACE_WINDOW = "blackman"


def band_envelope(
    signal: Signal,
    low_hz: float,
    high_hz: float,
    frame_s: float = 0.02,
) -> np.ndarray:
    """Frame-RMS envelope of a band-passed version of the signal.

    Returns one RMS value per ``frame_s`` frame — a compact envelope
    representation whose frame rate is high enough (50 Hz) to follow
    syllables but too low to carry voice-band content itself.
    Delegates to :func:`band_envelope_matrix` with a one-row batch, so
    the scalar and batched estimators can never drift apart.
    """
    batch = SignalBatch(
        signal.samples[np.newaxis, :], signal.sample_rate, signal.unit
    )
    return band_envelope_matrix(batch, low_hz, high_hz, frame_s)[0]


def band_envelope_matrix(
    batch: SignalBatch,
    low_hz: float,
    high_hz: float,
    frame_s: float = 0.02,
) -> np.ndarray:
    """Frame-RMS envelopes of every row of a recording batch.

    The batched counterpart of :func:`band_envelope`: the band-pass
    runs along the last axis of the whole stack and the frame RMS
    reduces per frame, one ``(n_signals, n_frames)`` matrix out.
    """
    if batch.duration <= frame_s:
        raise DefenseError(
            f"signal too short ({batch.duration:.3f} s) for envelope "
            f"frames of {frame_s} s"
        )
    # Order 8 keeps the voice fundamental (>= ~100 Hz) from leaking
    # into the trace band through the filter skirts: at 4th order the
    # leaked f0 forms a ~-30 dB floor that buries weak traces.
    banded = band_pass_array(
        batch.samples,
        batch.sample_rate,
        max(low_hz, 1.0),
        min(high_hz, batch.nyquist * 0.99),
        order=8,
    )
    frame_len = int(round(frame_s * batch.sample_rate))
    # Contiguous frames: hop == frame_len, trailing remainder dropped.
    n_frames = frame_count(banded.shape[-1], frame_len, frame_len)
    frames = banded[:, : n_frames * frame_len].reshape(
        batch.n_signals, n_frames, frame_len
    )
    return np.sqrt(np.mean(np.square(frames), axis=-1))


def separation_d_prime(
    genuine: np.ndarray, attacked: np.ndarray
) -> float:
    """Class separation of one trace feature, in pooled-sigma units.

    The d' statistic the defense figures report: mean difference over
    the pooled standard deviation. Zero when the pooled variance
    vanishes (degenerate single-point classes). Used per feature and
    per environment to show which traces carry the detection in which
    scene.
    """
    genuine = np.asarray(genuine, dtype=float)
    attacked = np.asarray(attacked, dtype=float)
    if genuine.size == 0 or attacked.size == 0:
        raise DefenseError(
            "separation_d_prime needs samples from both classes"
        )
    pooled = float(
        np.sqrt(0.5 * (np.var(genuine) + np.var(attacked)))
    )
    if pooled <= 0.0:
        return 0.0
    return float((np.mean(attacked) - np.mean(genuine)) / pooled)


@dataclass(frozen=True)
class TraceAnalysis:
    """Demodulation-trace measurements of one recording.

    Attributes
    ----------
    trace_power_db:
        Power in the trace band relative to total signal power, dB.
    trace_to_voice_db:
        Trace-band power relative to voice-band power, dB.
    envelope_correlation:
        Peak normalised cross-correlation between the trace-band
        envelope and the voice-band envelope (the squared-envelope
        signature; near zero for genuine speech).
    envelope_power_correlation:
        Correlation between the trace-band envelope and the *squared*
        voice-band envelope — sharper for strong attacks because the
        trace literally is the squared message.
    voice_power_db:
        Voice-band power relative to total, dB (context feature that
        lets the classifier normalise for recording loudness).
    """

    trace_power_db: float
    trace_to_voice_db: float
    envelope_correlation: float
    envelope_power_correlation: float
    voice_power_db: float


def analyze_traces(recording: Signal) -> TraceAnalysis:
    """Measure the demodulation traces of a device-rate recording.

    Delegates to :func:`analyze_traces_batch` with a one-row batch —
    one implementation, identical numbers at every batch size.

    Parameters
    ----------
    recording:
        A digital microphone recording (any device rate >= 8 kHz; the
        voice reference band is clipped to the recording's bandwidth).
    """
    batch = SignalBatch(
        recording.samples[np.newaxis, :],
        recording.sample_rate,
        recording.unit,
    )
    return analyze_traces_batch(batch)[0]


def analyze_traces_batch(batch: SignalBatch) -> list[TraceAnalysis]:
    """Trace analyses of a whole recording batch at once.

    The Welch PSDs, band powers and band envelopes of every row
    compute as stacked ``axis=-1`` operations; only the short
    lag-search cross-correlations remain per-row loops, over ~50-frame
    envelopes rather than full recordings. Per-row results are bitwise
    independent of how recordings are grouped into batches.
    """
    # Blackman window: the Hann sidelobe floor (-31 dB first lobe)
    # leaks the speech fundamental into the sub-50 Hz bins and masks
    # weak traces; Blackman's -58 dB sidelobes keep the estimate clean.
    freqs, psd = welch_psd_matrix(
        batch.samples,
        batch.sample_rate,
        segment_length=min(TRACE_SEGMENT_SAMPLES, batch.n_samples),
        window=TRACE_WINDOW,
    )
    return analyses_from_psd(batch, freqs, psd)


def analyses_from_psd(
    batch: SignalBatch, freqs: np.ndarray, psd: np.ndarray
) -> list[TraceAnalysis]:
    """Assemble trace analyses from an already-estimated Welch PSD.

    The back half of :func:`analyze_traces_batch`, split out so the
    streaming guard — which accumulates the same Welch segments online
    as an utterance's chunks arrive — can finish through *the same*
    band-power, envelope and correlation arithmetic and stay bitwise
    identical to the offline path. ``psd``
    must be the ``(n_signals, n_bins)`` matrix a
    :data:`TRACE_WINDOW`-windowed Welch estimate of ``batch`` produces
    (:func:`~repro.dsp.spectrum.welch_psd_matrix` offline,
    :class:`repro.stream.features.WelchAccumulator` online).
    """
    if batch.sample_rate < 8000.0:
        raise DefenseError(
            "trace analysis needs at least an 8 kHz recording, got "
            f"{batch.sample_rate} Hz"
        )
    bin_width = float(freqs[1] - freqs[0]) if len(freqs) > 1 else 0.0
    # Row-wise 1-D sums, matching PowerSpectrum.total_power bitwise
    # (a 2-D axis reduction pairs additions differently by an ulp).
    totals = np.array(
        [max(float(np.sum(row)) * bin_width, 1e-30) for row in psd]
    )
    trace_powers = band_power_matrix(freqs, psd, *TRACE_BAND_HZ)
    voice_high = min(VOICE_BAND_HZ[1], batch.nyquist * 0.95)
    voice_powers = band_power_matrix(freqs, psd, VOICE_BAND_HZ[0], voice_high)
    trace_envs = band_envelope_matrix(batch, *TRACE_BAND_HZ)
    voice_envs = band_envelope_matrix(batch, VOICE_BAND_HZ[0], voice_high)
    n = min(trace_envs.shape[-1], voice_envs.shape[-1])
    analyses = []
    for index in range(batch.n_signals):
        trace_env = trace_envs[index, :n]
        voice_env = voice_envs[index, :n]
        # Allow +-3 frames (60 ms) of lag: the trace and the voice
        # ride through different filter group delays.
        correlation = max_cross_correlation(trace_env, voice_env, max_lag=3)
        power_correlation = max_cross_correlation(
            trace_env, np.square(voice_env), max_lag=3
        )
        total = totals[index]
        trace_power = trace_powers[index]
        voice_power = voice_powers[index]
        analyses.append(
            TraceAnalysis(
                trace_power_db=power_ratio_to_db(
                    max(trace_power, 1e-30) / total
                ),
                trace_to_voice_db=power_ratio_to_db(
                    max(trace_power, 1e-30) / max(voice_power, 1e-30)
                ),
                envelope_correlation=correlation,
                envelope_power_correlation=power_correlation,
                voice_power_db=power_ratio_to_db(
                    max(voice_power, 1e-30) / total
                ),
            )
        )
    return analyses
