"""Online VAD-gated utterance segmentation.

The offline pipeline trims silence with a *global* statistic (the
95th-percentile frame energy of the whole recording, see
:func:`repro.speech.vad.voice_activity`); a live stream has no whole
recording. The online segmenter replaces the global reference with a
causal one — an exponential moving average of inactive-frame energies
(the noise floor) — and gates with hysteresis:

* **open** when ``open_frames`` consecutive frames exceed
  ``open_factor x floor``;
* while open, a frame is *voiced* when it exceeds the lower
  ``close_factor x floor`` (hysteresis keeps soft phoneme tails in,
  the same concern the offline threshold rationale documents);
* **close** once ``hangover_frames + close_frames`` frames pass with
  no voiced frame — the hangover bridges intra-word dips exactly like
  the offline VAD's, and the extra ``close_frames`` are the price of
  causality (the close decision *is* the guard's detection latency).

Utterance boundaries mirror :func:`~repro.speech.vad.trim_silence`:
``start = first_open_frame * hop - padding`` and
``end = last_voiced_frame * hop + frame_len + padding``.

The segmenter is a pure frame-level state machine over a group of
streams: it consumes each cycle's frame energies (index + one row per
stream) and emits :class:`BatchOpened` / :class:`BatchClosed` events.
It never touches samples — :class:`~repro.stream.kernel.StreamGroup`
composes it with the ring buffer and the Welch accumulators.
:meth:`OnlineSegmenterBatch.open_spans` reports the monotone
in-utterance lower bound that drives the incremental Welch
accumulation: every sample below
``last_voiced * hop + frame_len + padding`` is inside the eventual
utterance whatever happens next, because ``last_voiced`` only grows
and the close formula is exactly that expression.

The machine advances frame by frame, row by row within each frame,
over Python floats and ints. At every group width the program runs —
one row for the always-on guard, up to ``FleetConfig.batch_streams``
(64 by default) for the fleet — that loop is faster than masked
NumPy updates across the rows, whose per-call overhead dominates at
these widths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.framing import frame_params
from repro.errors import StreamError


@dataclass(frozen=True)
class SegmenterConfig:
    """Tuning of the online gate.

    Attributes
    ----------
    frame_length_s, hop_length_s:
        Analysis frame grid (defaults match the offline VAD).
    open_factor:
        A frame is *active* (may open an utterance) above
        ``open_factor x noise_floor``.
    close_factor:
        While open, a frame is *voiced* above
        ``close_factor x noise_floor`` (must be below
        ``open_factor`` — hysteresis).
    open_frames:
        Consecutive active frames required to open.
    hangover_frames:
        Unvoiced frames bridged inside an utterance (intra-word
        dips), matching the offline VAD default.
    close_frames:
        Additional unvoiced frames, beyond the hangover, before the
        close decision fires. ``(hangover_frames + close_frames) x
        hop`` is the deterministic component of detection latency.
    padding_s:
        Context kept on both sides of the voiced span. The default is
        *zero*, deliberately diverging from
        :func:`~repro.speech.vad.trim_silence`'s 50 ms: the detector
        is trained on pipeline recordings that carry no silence
        context, and padded boundaries hand it an utterance on/off
        step that makes the trace- and voice-band envelopes co-move —
        inflating the envelope-correlation features of *genuine*
        speech toward the attack class. Tight boundaries reproduce
        the training distribution; the recogniser re-trims internally
        (its own VAD), so recognition does not need the context
        either.
    floor_alpha:
        EMA coefficient of the noise-floor tracker (updated on
        inactive frames while no utterance is open).
    floor_min:
        Numeric floor of the tracker, so an all-zero lead-in cannot
        drive the thresholds to zero.
    max_utterance_s:
        Force-close bound; a stuck-open gate (e.g. a TV left on near
        the device) must not buffer unbounded audio.
    """

    frame_length_s: float = 0.02
    hop_length_s: float = 0.01
    open_factor: float = 4.0
    close_factor: float = 2.0
    open_frames: int = 2
    hangover_frames: int = 8
    close_frames: int = 15
    padding_s: float = 0.0
    floor_alpha: float = 0.05
    floor_min: float = 1e-8
    max_utterance_s: float = 10.0

    def __post_init__(self) -> None:
        if not 0 < self.close_factor <= self.open_factor:
            raise StreamError(
                "need 0 < close_factor <= open_factor, got "
                f"{self.close_factor} and {self.open_factor}"
            )
        if self.open_frames < 1:
            raise StreamError(
                f"open_frames must be >= 1, got {self.open_frames}"
            )
        if self.hangover_frames < 0 or self.close_frames < 1:
            raise StreamError(
                "need hangover_frames >= 0 and close_frames >= 1, got "
                f"{self.hangover_frames} and {self.close_frames}"
            )
        if not 0 < self.floor_alpha <= 1:
            raise StreamError(
                f"floor_alpha must be in (0, 1], got {self.floor_alpha}"
            )
        if self.floor_min <= 0:
            raise StreamError(
                f"floor_min must be positive, got {self.floor_min}"
            )
        if self.padding_s < 0:
            raise StreamError(
                f"padding_s must be >= 0, got {self.padding_s}"
            )
        if self.max_utterance_s <= 0:
            raise StreamError(
                f"max_utterance_s must be positive, got "
                f"{self.max_utterance_s}"
            )


@dataclass(frozen=True)
class BatchOpened:
    """Utterances began on ``rows`` at (per-row) frame ``frame``.

    All rows opening during the same lockstep cycle share the frame
    index and therefore the start-sample formula, so ``start_sample``
    is one scalar.
    """

    frame: int
    rows: np.ndarray
    start_sample: int


@dataclass(frozen=True)
class BatchClosed:
    """Utterances ended on ``rows`` at frame ``frame``.

    ``end_samples`` carries the per-row uncapped boundary formula (the
    group caps it at the row's head) and ``forced`` the per-row
    ``max_utterance_s`` flags.
    """

    frame: int
    rows: np.ndarray
    start_samples: np.ndarray
    end_samples: np.ndarray
    forced: np.ndarray


class OnlineSegmenterBatch:
    """The causal utterance gate over a group of streams.

    Every per-stream scalar of the state machine is one slot of a
    ``(n_streams,)`` array. Each row sees every frame exactly once, in
    order, whatever the push sizes; within a frame the open-state
    snapshot is taken first, so a row opening at frame ``f`` never
    runs the close branch at ``f``, and vice versa.

    Rows fall out of lockstep only by *length*: the group pads
    shorter timelines, and the per-frame ``valid`` mask (row still has
    real frames) freezes a finished row's state where its own stream
    stopped.
    """

    def __init__(
        self,
        n_streams: int,
        sample_rate: float,
        config: SegmenterConfig | None = None,
    ) -> None:
        if n_streams < 1:
            raise StreamError(
                f"n_streams must be >= 1, got {n_streams}"
            )
        self.config = config or SegmenterConfig()
        self.n_streams = int(n_streams)
        self.sample_rate = float(sample_rate)
        self.frame_len, self.hop = frame_params(
            sample_rate,
            self.config.frame_length_s,
            self.config.hop_length_s,
        )
        self.pad = int(round(self.config.padding_s * sample_rate))
        self.max_samples = int(
            round(self.config.max_utterance_s * sample_rate)
        )
        n = self.n_streams
        self._floor = np.zeros(n, dtype=np.float64)
        self._seen = np.zeros(n, dtype=bool)
        self._consecutive = np.zeros(n, dtype=np.int64)
        self._open = np.zeros(n, dtype=bool)
        self._start = np.zeros(n, dtype=np.int64)
        self._last_voiced = np.zeros(n, dtype=np.int64)
        self._frames_done = 0  # global lockstep frame counter

    # -- state ---------------------------------------------------------

    def open_spans(self, heads: np.ndarray) -> list[tuple[int, int, int]]:
        """``(row, start, bound)`` for every open utterance, in row
        order: its absolute start sample, and how far it certainly
        reaches — the samples below ``bound`` are inside the eventual
        utterance whatever happens next, capped at ``heads[row]``
        (the row's real samples so far)."""
        rows = np.flatnonzero(self._open).tolist()
        if not rows:
            return []
        starts = self._start.tolist()
        last_voiced = self._last_voiced.tolist()
        heads = np.asarray(heads).tolist()
        reach = self.frame_len + self.pad
        spans = []
        for row in rows:
            start = starts[row]
            bound = min(
                last_voiced[row] * self.hop + reach,
                start + self.max_samples,
                heads[row],
            )
            spans.append((row, start, max(bound, start)))
        return spans

    def lookback_sample(self) -> int:
        """Earliest sample a *future* utterance of a row still
        streaming could start at.

        While closed, any utterance opening at a later frame ``f``
        starts no earlier than ``(f - open_frames + 1) * hop - pad``;
        the group uses this to release ring history it can never need
        again. A row that has ended never opens again.
        """
        earliest = self._frames_done - self.config.open_frames + 1
        return max(0, earliest * self.hop - self.pad)

    # -- the state machine --------------------------------------------

    def process_block(
        self,
        first_frame: int,
        energies: np.ndarray,
        valid: np.ndarray,
    ) -> list[BatchOpened | BatchClosed]:
        """Advance all rows over a block of lockstep frames.

        ``energies`` is ``(n_streams, n_new)`` (from the batched ring);
        ``valid[i, j]`` marks whether lockstep frame ``first_frame + j``
        is a *real* frame of row ``i`` (frames over a finished row's
        padding are skipped, freezing that row's state). Because
        every row starts at frame 0 and rows only ever *stop* being
        valid, a valid row's private frame counter always equals the
        lockstep frame index — which is why rows opening together
        share one start-sample value. Per frame, the opened event (if
        any) precedes the closed event (if any).
        """
        if first_frame != self._frames_done:
            raise StreamError(
                f"expected frame {self._frames_done}, got "
                f"{first_frame}; frames must arrive exactly once, in "
                "order"
            )
        energies = np.asarray(energies, dtype=np.float64)
        valid = np.asarray(valid, dtype=bool)
        if energies.shape != valid.shape or energies.shape[0] != self.n_streams:
            raise StreamError(
                f"energies {energies.shape} / valid {valid.shape} must "
                f"both be ({self.n_streams}, n_new)"
            )
        cfg = self.config
        hop, frame_len, pad = self.hop, self.frame_len, self.pad
        max_samples = self.max_samples
        open_factor, close_factor = cfg.open_factor, cfg.close_factor
        decay, alpha = 1.0 - cfg.floor_alpha, cfg.floor_alpha
        floor_min, open_frames = cfg.floor_min, cfg.open_frames
        horizon = cfg.hangover_frames + cfg.close_frames
        floor = self._floor.tolist()
        seen = self._seen.tolist()
        consecutive = self._consecutive.tolist()
        is_open = self._open.tolist()
        start = self._start.tolist()
        last_voiced = self._last_voiced.tolist()
        rows = range(self.n_streams)
        events: list[BatchOpened | BatchClosed] = []
        for f, e_col, v_col in zip(
            range(first_frame, first_frame + energies.shape[1]),
            energies.T.tolist(),
            valid.T.tolist(),
        ):
            opened: list[int] = []
            closed: list[tuple[int, int, int, bool]] = []
            for i in rows:
                if not v_col[i]:
                    continue
                e = e_col[i]
                if not seen[i]:
                    floor[i] = max(e, floor_min)
                    seen[i] = True
                if not is_open[i]:
                    if e > open_factor * floor[i]:
                        consecutive[i] += 1
                    else:
                        consecutive[i] = 0
                        floor[i] = max(
                            decay * floor[i] + alpha * e, floor_min
                        )
                    if consecutive[i] >= open_frames:
                        is_open[i] = True
                        start[i] = max(0, (f - open_frames + 1) * hop - pad)
                        last_voiced[i] = f
                        consecutive[i] = 0
                        opened.append(i)
                else:
                    if e > close_factor * floor[i]:
                        last_voiced[i] = f
                    forced = f * hop + frame_len - start[i] >= max_samples
                    if forced or f - last_voiced[i] >= horizon:
                        end = (
                            start[i] + max_samples
                            if forced
                            else last_voiced[i] * hop + frame_len + pad
                        )
                        closed.append((i, start[i], end, forced))
                        is_open[i] = False
                        consecutive[i] = 0
            if opened:
                events.append(
                    BatchOpened(
                        f,
                        np.array(opened, dtype=np.intp),
                        max(0, (f - open_frames + 1) * hop - pad),
                    )
                )
            if closed:
                columns = list(zip(*closed))
                events.append(
                    BatchClosed(
                        f,
                        np.array(columns[0], dtype=np.intp),
                        np.array(columns[1], dtype=np.int64),
                        np.array(columns[2], dtype=np.int64),
                        np.array(columns[3], dtype=bool),
                    )
                )
        self._frames_done = first_frame + energies.shape[1]
        self._floor[:] = floor
        self._seen[:] = seen
        self._consecutive[:] = consecutive
        self._open[:] = is_open
        self._start[:] = start
        self._last_voiced[:] = last_voiced
        return events

    def flush_open_rows(self, heads: np.ndarray) -> BatchClosed | None:
        """End of stream: close every still-open row naturally.

        Each row's boundary formula is capped at that row's own head
        (at flush the formula may reach past the stream's end). Rows
        are folded into one event whose ``frame`` is the lockstep
        frame count.
        """
        if not self._open.any():
            return None
        rows = np.flatnonzero(self._open)
        heads = np.asarray(heads, dtype=np.int64)
        ends = np.minimum(
            self._last_voiced[rows] * self.hop + self.frame_len + self.pad,
            heads[rows],
        )
        event = BatchClosed(
            int(self._frames_done),
            rows,
            self._start[rows].copy(),
            ends,
            np.zeros(len(rows), dtype=bool),
        )
        self._open[rows] = False
        self._consecutive[rows] = 0
        return event
