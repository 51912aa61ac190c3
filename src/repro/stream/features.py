"""Incremental defense-feature extraction.

The offline defense measures an utterance once it is complete:
:func:`repro.defense.traces.analyze_traces` runs a Welch PSD and band
envelopes over the whole recording. Online, the guard cannot wait —
an utterance arrives as chunks, and the expensive half of the
measurement (the Welch accumulation over acoustic-scale FFT segments)
would otherwise land as one lump of latency at utterance close.

:class:`WelchAccumulator` streams that half: it consumes exactly the
segment sequence :func:`repro.dsp.spectrum.welch_psd_matrix` would
walk — same segment starts, same window, same accumulation order —
as soon as each segment's samples are *committed* (guaranteed to lie
inside the eventual utterance). Because float addition order and the
per-segment arithmetic are identical, the finalized PSD is bitwise
equal to the offline estimate of the closed utterance, which is the
foundation of the streaming guard's parity guarantee. The stream
group (:mod:`repro.stream.kernel`) computes the due segments of a
whole cycle in one batched FFT (:func:`welch_segment_psd`) and folds
the rows back; at close it finishes through
:func:`repro.defense.traces.analyses_from_psd` — the same band-power,
envelope and correlation arithmetic the offline path uses. The band
envelopes are zero-phase (non-causal) filters and are therefore
computed at close over the closed utterance.

Commit semantics: the segmenter only knows an utterance's end
retroactively, after its hangover, so segments are accumulated only
up to a monotone lower bound on the final length.
``finalize(buffer, length)`` then processes the remaining whole
segments below ``length`` and rejects a commit that overran it.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.defense.traces import TRACE_SEGMENT_SAMPLES, TRACE_WINDOW
from repro.dsp import windows as win
from repro.dsp.spectrum import welch_psd_matrix
from repro.errors import StreamError


@functools.lru_cache(maxsize=8)
def _segment_window(window: str, length: int) -> tuple[np.ndarray, float]:
    """A read-only ``length``-point window and its energy, built once
    per process: every utterance's accumulator shares them."""
    values = win.get_window(window, length)
    values.setflags(write=False)
    return values, float(np.sum(np.square(values)))


def welch_segment_psd(
    segments: np.ndarray, window_values: np.ndarray, scale: float
) -> np.ndarray:
    """Per-segment scaled periodograms of a ``(k, n_seg)`` stack.

    The per-segment arithmetic of :meth:`WelchAccumulator.advance` —
    window, rfft, squared magnitude, density scale — as one batched
    op. ``np.fft.rfft`` computes each row of a 2-D input with the
    same plan as a single-row transform, so row ``j`` is bitwise the
    accumulator's :meth:`~WelchAccumulator.advance` contribution for
    that segment; the stream group exploits this by gathering every due segment across a whole
    stream group into one stack and folding the rows back into each
    stream's accumulator in order.
    """
    spectrum = np.fft.rfft(segments * window_values, axis=-1)
    return np.square(np.abs(spectrum)) * scale


class WelchAccumulator:
    """Online Welch PSD, bitwise-matched to the offline estimator.

    Mirrors :func:`repro.dsp.spectrum.welch_psd_matrix` with
    ``segment_length = min(segment_length, n_samples)`` semantics:
    while the signal is at least one segment long, segments start at
    ``0, step, 2*step, ...`` and accumulate in that order; a signal
    shorter than one segment falls back to the matrix estimator's
    single padded FFT at :meth:`finalize`, by calling it.

    ``advance`` accumulates every segment that fits entirely below
    ``committed`` — the caller's promise that those samples are final.
    """

    def __init__(
        self,
        sample_rate: float,
        segment_length: int = TRACE_SEGMENT_SAMPLES,
        overlap: float = 0.5,
        window: str = TRACE_WINDOW,
    ) -> None:
        if segment_length < 2:
            raise StreamError(
                f"segment_length must be >= 2, got {segment_length}"
            )
        if not 0 <= overlap < 1:
            raise StreamError(
                f"overlap must be in [0, 1), got {overlap}"
            )
        self.sample_rate = float(sample_rate)
        self.segment_length = int(segment_length)
        self.overlap = float(overlap)
        self.window = window
        self.step = max(1, int(round(segment_length * (1 - overlap))))
        self._w, energy = _segment_window(window, self.segment_length)
        self._scale = 1.0 / (self.sample_rate * energy)
        self._acc = np.zeros((1, self.segment_length // 2 + 1))
        self._count = 0
        self._next_start = 0

    @property
    def segments_accumulated(self) -> int:
        """Segments folded into the running estimate so far."""
        return self._count

    @property
    def next_start(self) -> int:
        """Start offset of the next segment to be accumulated."""
        return self._next_start

    @property
    def window_values(self) -> np.ndarray:
        """The window applied to every segment (do not mutate)."""
        return self._w

    @property
    def scale(self) -> float:
        """The density scale applied to every periodogram."""
        return float(self._scale)

    def due_starts(self, committed: int) -> list[int]:
        """Start offsets of every whole segment below ``committed``
        not yet accumulated — what :meth:`advance` would consume, in
        order, without consuming them."""
        n_seg = self.segment_length
        starts: list[int] = []
        start = self._next_start
        while start + n_seg <= committed:
            starts.append(start)
            start += self.step
        return starts

    def fold(self, segment_psd: np.ndarray) -> None:
        """Fold one externally-computed segment periodogram.

        ``segment_psd`` must be :func:`welch_segment_psd` of the
        segment at :attr:`next_start` — the kernel batches the FFTs
        across streams and hands each accumulator its rows back in
        segment order, making this the exact addition :meth:`advance`
        would have performed.
        """
        self._acc += segment_psd
        self._count += 1
        self._next_start += self.step

    def advance(self, buffer: np.ndarray, committed: int) -> None:
        """Accumulate every whole segment below ``committed``.

        ``buffer`` is the utterance's contiguous sample prefix (at
        least ``committed`` samples long). Safe to call repeatedly
        with a growing bound; each segment is consumed exactly once,
        in offline order.
        """
        if committed > buffer.shape[0]:
            raise StreamError(
                f"committed {committed} beyond buffered "
                f"{buffer.shape[0]} samples"
            )
        n_seg = self.segment_length
        while self._next_start + n_seg <= committed:
            start = self._next_start
            segment = buffer[np.newaxis, start : start + n_seg]
            self.fold(welch_segment_psd(segment, self._w, self._scale))

    def finalize(
        self, buffer: np.ndarray, length: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(frequencies, psd)`` of the closed ``length``-sample
        utterance, bitwise equal to the offline matrix estimator.

        Signals shorter than one segment delegate wholly to
        :func:`~repro.dsp.spectrum.welch_psd_matrix` (whose segment
        length collapses to the signal length); longer signals finish
        the remaining committed segments here and apply the same
        averaging and one-sided correction.
        """
        if length < 1:
            raise StreamError(
                f"cannot finalize an empty utterance (length {length})"
            )
        if length < self.segment_length:
            if self._count:
                raise StreamError(
                    f"{self._count} segments were committed but the "
                    f"utterance closed at {length} samples — commit() "
                    "overran the close boundary"
                )
            return welch_psd_matrix(
                buffer[np.newaxis, :length],
                self.sample_rate,
                segment_length=min(self.segment_length, length),
                overlap=self.overlap,
                window=self.window,
            )
        n_seg = self.segment_length
        if self._count and self._next_start - self.step + n_seg > length:
            raise StreamError(
                "an accumulated segment extends past the close "
                f"boundary ({length} samples) — commit() overran it"
            )
        self.advance(buffer, length)
        psd = self._acc / self._count
        # One-sided correction, exactly as the offline estimator.
        psd[..., 1:-1] *= 2.0 if n_seg % 2 == 0 else 1.0
        if n_seg % 2 == 1:
            psd[..., 1:] *= 2.0
        freqs = np.fft.rfftfreq(n_seg, d=1.0 / self.sample_rate)
        return freqs, psd
