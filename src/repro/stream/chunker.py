"""The ring-buffer front door of the streaming subsystem.

A live device hands audio to the guard as it arrives — in whatever
chunk sizes its driver produces, never aligned to analysis frames.
:class:`ChunkedStream` absorbs that: arbitrary-sized pushes land in a
power-of-two ring buffer addressed by *absolute* sample index, and the
consumers (the online segmenter, the utterance extractor) read back
absolute ranges and explicitly release what they no longer need.

Two properties matter for the subsystem's bitwise-parity guarantee:

* Sample values are stored and read back exactly — the buffer never
  resamples, scales or windows, so any partition of a recording into
  pushes reconstructs the identical ``float64`` array.
* Frame bookkeeping delegates to :mod:`repro.dsp.framing`, the same
  arithmetic the offline VAD uses, so the online frame grid is the
  offline frame grid.

The buffer grows (doubling) rather than silently dropping samples when
a consumer falls behind; a deployment that wants hard memory bounds
releases aggressively, which the segmenter does.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.framing import (
    frame_count,
    frame_params,
    frame_rms,
    frame_rms_matrix,
)
from repro.errors import StreamError

#: Initial ring capacity in frames (grows on demand).
_MIN_CAPACITY_FRAMES = 8


def _next_pow2(n: int) -> int:
    power = 1
    while power < n:
        power <<= 1
    return power


class ChunkedStream:
    """Absolute-indexed ring buffer over a device's sample stream.

    Parameters
    ----------
    sample_rate:
        The device rate of the incoming audio.
    frame_length_s, hop_length_s:
        The analysis frame grid (defaults match the offline VAD).

    Notes
    -----
    ``head`` is the total number of samples ever pushed; ``tail`` is
    the oldest absolute index still retained. ``read(start, end)``
    returns a fresh contiguous copy of ``[start, end)``; ``release``
    advances ``tail``. :meth:`pending_frame_energies` walks the frame
    grid over newly-complete frames — the hot per-push path of the
    fleet simulator, one vectorised RMS over the new frames.
    """

    def __init__(
        self,
        sample_rate: float,
        frame_length_s: float = 0.02,
        hop_length_s: float = 0.01,
    ) -> None:
        if sample_rate <= 0:
            raise StreamError(
                f"sample_rate must be positive, got {sample_rate}"
            )
        self.sample_rate = float(sample_rate)
        self.frame_len, self.hop = frame_params(
            sample_rate, frame_length_s, hop_length_s
        )
        capacity = _next_pow2(_MIN_CAPACITY_FRAMES * self.frame_len)
        self._buf = np.zeros(capacity, dtype=np.float64)
        self._head = 0  # total samples pushed
        self._tail = 0  # oldest retained absolute index
        self._rebase = 0  # absolute index mapped to ring slot 0
        self._frames_emitted = 0  # frames handed out so far

    # -- introspection -------------------------------------------------

    @property
    def head(self) -> int:
        """Total samples pushed so far (absolute end of stream)."""
        return self._head

    @property
    def tail(self) -> int:
        """Oldest absolute sample index still readable."""
        return self._tail

    @property
    def capacity(self) -> int:
        """Current ring size in samples (power of two, grows)."""
        return int(self._buf.shape[0])

    @property
    def frames_emitted(self) -> int:
        """Frames already returned by :meth:`pending_frame_energies`."""
        return self._frames_emitted

    # -- writing -------------------------------------------------------

    def push(self, samples: np.ndarray) -> int:
        """Append a chunk of samples; returns the new ``head``.

        Chunks of any size are accepted, including empty ones. The
        ring doubles when retained + incoming would not fit, so a push
        never overwrites unreleased samples.
        """
        chunk = np.asarray(samples, dtype=np.float64)
        if chunk.ndim != 1:
            raise StreamError(
                f"push expects a 1-D chunk, got shape {chunk.shape}"
            )
        if chunk.size == 0:
            return self._head
        if not np.all(np.isfinite(chunk)):
            raise StreamError("stream samples must be finite")
        needed = (self._head - self._tail) + chunk.size
        if needed > self.capacity:
            self._grow(needed)
        start = self._index(self._head)
        first = min(chunk.size, self.capacity - start)
        self._buf[start : start + first] = chunk[:first]
        if first < chunk.size:
            self._buf[: chunk.size - first] = chunk[first:]
        self._head += chunk.size
        return self._head

    def _grow(self, needed: int) -> None:
        fresh = np.zeros(_next_pow2(needed), dtype=np.float64)
        retained = self._head - self._tail
        if retained:
            fresh[:retained] = self._linearized(self._tail, self._head)
        # Re-anchor the address space: the old tail now lives at ring
        # slot 0 of the larger buffer.
        self._buf = fresh
        self._rebase = self._tail

    # -- reading -------------------------------------------------------

    def _index(self, absolute: int) -> int:
        return (absolute - self._rebase) & (self.capacity - 1)

    def _linearized(self, start: int, end: int) -> np.ndarray:
        """Contiguous copy of retained ``[start, end)``."""
        n = end - start
        out = np.empty(n, dtype=np.float64)
        i = self._index(start)
        first = min(n, self.capacity - i)
        out[:first] = self._buf[i : i + first]
        if first < n:
            out[first:] = self._buf[: n - first]
        return out

    def read(self, start: int, end: int) -> np.ndarray:
        """Copy of absolute sample range ``[start, end)``.

        Raises :class:`~repro.errors.StreamError` when the range runs
        outside the retained window — silently returning zeros there
        would corrupt an utterance without any signal to the caller.
        """
        if start > end:
            raise StreamError(
                f"read range inverted: [{start}, {end})"
            )
        if start < self._tail or end > self._head:
            raise StreamError(
                f"read [{start}, {end}) outside retained window "
                f"[{self._tail}, {self._head})"
            )
        return self._linearized(start, end)

    def release(self, up_to: int) -> None:
        """Allow samples below ``up_to`` to be overwritten."""
        if up_to > self._head:
            raise StreamError(
                f"cannot release beyond head ({up_to} > {self._head})"
            )
        self._tail = max(self._tail, up_to)

    # -- frame grid ----------------------------------------------------

    def pending_frame_energies(self) -> tuple[int, np.ndarray]:
        """RMS energies of frames completed since the last call.

        Returns ``(first_frame_index, energies)``; the energies are
        computed by :func:`repro.dsp.framing.frame_rms` over the
        buffered samples, so frame ``i`` here equals frame ``i`` of
        the offline :func:`repro.speech.vad.frame_energies` of the
        same stream bitwise. Frames are never re-emitted; the caller
        must not have released past the next frame's start.
        """
        total = frame_count(self._head, self.frame_len, self.hop)
        first = self._frames_emitted
        if total <= first:
            return first, np.empty(0, dtype=np.float64)
        start = first * self.hop
        if start < self._tail:
            raise StreamError(
                f"frame {first} starts at released sample {start} "
                f"(tail {self._tail}); release() ran ahead of the "
                "frame grid"
            )
        span = self._linearized(start, self._head)
        energies = frame_rms(span, self.frame_len, self.hop)
        self._frames_emitted = total
        return first, energies


class ChunkedStreamBatch:
    """One ring buffer shared by a whole group of lockstep streams.

    The structure-of-arrays counterpart of :class:`ChunkedStream` for
    the fleet kernel (:mod:`repro.stream.kernel`): ``n_streams`` rows
    advance with one global ``head`` — every cycle pushes the same
    number of samples to every row (rows that have ended are padded
    by the kernel and masked at the frame level) — so the ring is a
    single ``(n_streams, capacity)`` array and a push is one 2-D
    write instead of ``n_streams`` scalar ones.

    Addressing, growth and the frame grid are :class:`ChunkedStream`'s
    exactly: absolute sample indexing modulo a power-of-two capacity,
    doubling growth that re-anchors ``tail`` to ring slot 0, and
    :meth:`pending_frame_energies` delegating to the shared
    :mod:`repro.dsp.framing` arithmetic — per row bitwise identical
    to the scalar ring (pinned by the kernel unit tests).
    """

    def __init__(
        self,
        n_streams: int,
        sample_rate: float,
        frame_length_s: float = 0.02,
        hop_length_s: float = 0.01,
    ) -> None:
        if n_streams < 1:
            raise StreamError(
                f"n_streams must be >= 1, got {n_streams}"
            )
        if sample_rate <= 0:
            raise StreamError(
                f"sample_rate must be positive, got {sample_rate}"
            )
        self.n_streams = int(n_streams)
        self.sample_rate = float(sample_rate)
        self.frame_len, self.hop = frame_params(
            sample_rate, frame_length_s, hop_length_s
        )
        capacity = _next_pow2(_MIN_CAPACITY_FRAMES * self.frame_len)
        self._buf = np.zeros(
            (self.n_streams, capacity), dtype=np.float64
        )
        self._head = 0
        self._tail = 0
        self._rebase = 0
        self._frames_emitted = 0

    # -- introspection -------------------------------------------------

    @property
    def head(self) -> int:
        """Total samples pushed per row so far."""
        return self._head

    @property
    def tail(self) -> int:
        """Oldest absolute sample index still readable."""
        return self._tail

    @property
    def capacity(self) -> int:
        """Ring size in samples per row (power of two, grows)."""
        return int(self._buf.shape[1])

    @property
    def frames_emitted(self) -> int:
        """Frames already returned by :meth:`pending_frame_energies`."""
        return self._frames_emitted

    # -- writing -------------------------------------------------------

    def push_block(self, block: np.ndarray) -> int:
        """Append one ``(n_streams, k)`` cycle block; returns ``head``.

        Every row advances by ``k`` samples — the kernel's lockstep
        ingestion contract. The ring doubles when retained + incoming
        would not fit, so a push never overwrites unreleased samples.
        """
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[0] != self.n_streams:
            raise StreamError(
                f"push_block expects ({self.n_streams}, k), got "
                f"shape {block.shape}"
            )
        k = block.shape[1]
        if k == 0:
            return self._head
        if not np.all(np.isfinite(block)):
            raise StreamError("stream samples must be finite")
        needed = (self._head - self._tail) + k
        if needed > self.capacity:
            self._grow(needed)
        start = self._index(self._head)
        first = min(k, self.capacity - start)
        self._buf[:, start : start + first] = block[:, :first]
        if first < k:
            self._buf[:, : k - first] = block[:, first:]
        self._head += k
        return self._head

    def _grow(self, needed: int) -> None:
        fresh = np.zeros(
            (self.n_streams, _next_pow2(needed)), dtype=np.float64
        )
        retained = self._head - self._tail
        if retained:
            fresh[:, :retained] = self._linearized_rows(
                self._tail, self._head
            )
        self._buf = fresh
        self._rebase = self._tail

    # -- reading -------------------------------------------------------

    def _index(self, absolute: int) -> int:
        return (absolute - self._rebase) & (self.capacity - 1)

    def _linearized_rows(self, start: int, end: int) -> np.ndarray:
        """Contiguous ``(n_streams, end - start)`` copy of the span."""
        n = end - start
        out = np.empty((self.n_streams, n), dtype=np.float64)
        i = self._index(start)
        first = min(n, self.capacity - i)
        out[:, :first] = self._buf[:, i : i + first]
        if first < n:
            out[:, first:] = self._buf[:, : n - first]
        return out

    def _check_span(self, start: int, end: int) -> None:
        if start > end:
            raise StreamError(
                f"read range inverted: [{start}, {end})"
            )
        if start < self._tail or end > self._head:
            raise StreamError(
                f"read [{start}, {end}) outside retained window "
                f"[{self._tail}, {self._head})"
            )

    def read_row(self, row: int, start: int, end: int) -> np.ndarray:
        """Copy of one row's absolute sample range ``[start, end)``."""
        if not 0 <= row < self.n_streams:
            raise StreamError(
                f"row {row} outside [0, {self.n_streams})"
            )
        self._check_span(start, end)
        n = end - start
        out = np.empty(n, dtype=np.float64)
        i = self._index(start)
        first = min(n, self.capacity - i)
        out[:first] = self._buf[row, i : i + first]
        if first < n:
            out[first:] = self._buf[row, : n - first]
        return out

    def gather_rows(
        self, rows: np.ndarray, starts: np.ndarray, length: int
    ) -> np.ndarray:
        """``(len(rows), length)`` stack of per-row absolute windows.

        The kernel's Welch-segment gather: window ``j`` is
        ``read_row(rows[j], starts[j], starts[j] + length)``, stacked
        so one batched FFT covers every due segment of the cycle.
        """
        out = np.empty((len(rows), length), dtype=np.float64)
        for j, (row, start) in enumerate(zip(rows, starts)):
            out[j] = self.read_row(int(row), int(start), int(start) + length)
        return out

    def release(self, up_to: int) -> None:
        """Allow samples below ``up_to`` to be overwritten (all rows)."""
        if up_to > self._head:
            raise StreamError(
                f"cannot release beyond head ({up_to} > {self._head})"
            )
        self._tail = max(self._tail, up_to)

    # -- frame grid ----------------------------------------------------

    def pending_frame_energies(self) -> tuple[int, np.ndarray]:
        """RMS energies of frames completed since the last call.

        Returns ``(first_frame_index, energies)`` with ``energies`` of
        shape ``(n_streams, n_new)`` — row ``i`` bitwise identical to
        the scalar ring's :meth:`ChunkedStream.pending_frame_energies`
        for the same row's samples, via the shared
        :func:`repro.dsp.framing.frame_rms_matrix` reduction.
        """
        total = frame_count(self._head, self.frame_len, self.hop)
        first = self._frames_emitted
        if total <= first:
            return first, np.empty(
                (self.n_streams, 0), dtype=np.float64
            )
        start = first * self.hop
        if start < self._tail:
            raise StreamError(
                f"frame {first} starts at released sample {start} "
                f"(tail {self._tail}); release() ran ahead of the "
                "frame grid"
            )
        i = self._index(start)
        n = self._head - start
        if i + n <= self.capacity:
            # Unwrapped span: frame straight off the ring storage (the
            # windowed view materialises a fresh contiguous array
            # inside the reduction either way, so the energies are
            # bitwise the linearized copy's).
            span = self._buf[:, i : i + n]
        else:
            span = self._linearized_rows(start, self._head)
        energies = frame_rms_matrix(span, self.frame_len, self.hop)
        self._frames_emitted = total
        return first, energies
