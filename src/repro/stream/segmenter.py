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

The segmenter is a pure frame-level state machine: it consumes frame
energies (index + values) and emits :class:`UtteranceOpened` /
:class:`UtteranceClosed` events. It never touches samples — the
:class:`~repro.stream.guard.StreamingGuard` composes it with the ring
buffer and the incremental extractor. :meth:`commit_bound` is the
monotone in-utterance lower bound that drives the extractor's
incremental Welch accumulation: every sample below
``last_voiced * hop + frame_len + padding`` is inside the eventual
utterance whatever happens next, because ``last_voiced`` only grows
and the close formula is exactly that expression.
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
class UtteranceOpened:
    """An utterance began; retain samples from ``start_sample`` on."""

    frame: int
    start_sample: int


@dataclass(frozen=True)
class UtteranceClosed:
    """An utterance ended.

    ``end_sample`` is the uncapped boundary formula (the guard caps
    it at the stream head); ``frame`` is the frame whose processing
    fired the decision; ``forced`` marks a ``max_utterance_s`` cut.
    """

    frame: int
    start_sample: int
    end_sample: int
    forced: bool


class OnlineSegmenter:
    """Causal utterance gate over a stream's frame energies."""

    def __init__(
        self,
        sample_rate: float,
        config: SegmenterConfig | None = None,
    ) -> None:
        self.config = config or SegmenterConfig()
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
        self._floor: float | None = None
        self._frames_seen = 0
        self._consecutive_active = 0
        self._open = False
        self._start = 0
        self._last_voiced = 0

    # -- state ---------------------------------------------------------

    @property
    def in_utterance(self) -> bool:
        """Whether an utterance is currently open."""
        return self._open

    @property
    def utterance_start(self) -> int:
        """Absolute start sample of the open utterance."""
        if not self._open:
            raise StreamError("no utterance is open")
        return self._start

    @property
    def noise_floor(self) -> float:
        """Current noise-floor estimate (after at least one frame)."""
        if self._floor is None:
            raise StreamError("no frames processed yet")
        return self._floor

    def commit_bound(self, head: int) -> int:
        """Samples certainly inside the open utterance, capped at
        ``head`` (what has actually been pushed)."""
        if not self._open:
            raise StreamError("no utterance is open")
        bound = self._last_voiced * self.hop + self.frame_len + self.pad
        bound = min(bound, self._start + self.max_samples, head)
        return max(bound, self._start)

    def lookback_sample(self) -> int:
        """Earliest sample a *future* utterance could start at.

        While closed, any utterance opening at a later frame ``f``
        starts no earlier than
        ``(f - open_frames + 1) * hop - pad``; the guard uses this to
        release ring-buffer history it can never need again.
        """
        earliest_open = self._frames_seen - self.config.open_frames + 1
        return max(0, earliest_open * self.hop - self.pad)

    # -- the state machine --------------------------------------------

    def process(
        self, first_frame: int, energies: np.ndarray
    ) -> list[UtteranceOpened | UtteranceClosed]:
        """Advance over newly-completed frames, emitting events.

        ``first_frame`` must equal the number of frames already
        processed — the chunker's contract — so the segmenter sees
        every frame exactly once, in order, whatever the push sizes.
        """
        if first_frame != self._frames_seen:
            raise StreamError(
                f"expected frame {self._frames_seen}, got "
                f"{first_frame}; frames must arrive exactly once, in "
                "order"
            )
        cfg = self.config
        events: list[UtteranceOpened | UtteranceClosed] = []
        for energy in np.asarray(energies, dtype=np.float64):
            f = self._frames_seen
            energy = float(energy)
            if self._floor is None:
                self._floor = max(energy, cfg.floor_min)
            if not self._open:
                if energy > cfg.open_factor * self._floor:
                    self._consecutive_active += 1
                else:
                    self._consecutive_active = 0
                    self._floor = max(
                        (1.0 - cfg.floor_alpha) * self._floor
                        + cfg.floor_alpha * energy,
                        cfg.floor_min,
                    )
                if self._consecutive_active >= cfg.open_frames:
                    open_first = f - cfg.open_frames + 1
                    self._open = True
                    self._start = max(0, open_first * self.hop - self.pad)
                    self._last_voiced = f
                    self._consecutive_active = 0
                    events.append(UtteranceOpened(f, self._start))
            else:
                if energy > cfg.close_factor * self._floor:
                    self._last_voiced = f
                quiet_for = f - self._last_voiced
                frame_end = f * self.hop + self.frame_len
                if frame_end - self._start >= self.max_samples:
                    events.append(self._close(f, forced=True))
                elif quiet_for >= cfg.hangover_frames + cfg.close_frames:
                    events.append(self._close(f, forced=False))
            self._frames_seen += 1
        return events

    def _close(self, frame: int, forced: bool) -> UtteranceClosed:
        if forced:
            end = self._start + self.max_samples
        else:
            end = (
                self._last_voiced * self.hop + self.frame_len + self.pad
            )
        start = self._start
        self._open = False
        self._consecutive_active = 0
        return UtteranceClosed(frame, start, end, forced)

    def flush(self, head: int) -> UtteranceClosed | None:
        """End of stream: close any open utterance at its natural
        boundary, capped at ``head`` (the samples actually pushed —
        mid-stream closes leave the cap to the guard, but at flush
        the boundary formula may reach past the stream's end).
        """
        if not self._open:
            return None
        event = self._close(self._frames_seen, forced=False)
        return UtteranceClosed(
            frame=event.frame,
            start_sample=event.start_sample,
            end_sample=min(event.end_sample, head),
            forced=event.forced,
        )


@dataclass(frozen=True)
class BatchOpened:
    """Utterances began on ``rows`` at (per-row) frame ``frame``.

    All rows opening during the same lockstep cycle share the frame
    index and therefore the start-sample formula, so ``start_sample``
    is one scalar — identical to what each row's scalar segmenter
    would have emitted.
    """

    frame: int
    rows: np.ndarray
    start_sample: int


@dataclass(frozen=True)
class BatchClosed:
    """Utterances ended on ``rows`` at frame ``frame``.

    ``end_samples`` carries the per-row uncapped boundary formula and
    ``forced`` the per-row ``max_utterance_s`` flags — elementwise the
    fields of the scalar :class:`UtteranceClosed` events.
    """

    frame: int
    rows: np.ndarray
    start_samples: np.ndarray
    end_samples: np.ndarray
    forced: np.ndarray


class OnlineSegmenterBatch:
    """Structure-of-arrays :class:`OnlineSegmenter` over many streams.

    The scalar state machine is one Python branch per (stream, frame);
    this batch form keeps every per-stream scalar as one slot of a
    ``(n_streams,)`` array and advances all streams through a frame
    with a handful of masked vector ops. Per row it is *bitwise* the
    scalar machine: the EMA update, the threshold comparisons and the
    boundary formulas are the same float64 elementwise operations the
    scalar code performs on Python floats, applied in the same
    in-frame order (open-state snapshot first, so a row opening at
    frame ``f`` never runs the close branch at ``f``, and vice versa).

    Rows fall out of lockstep only by *length*: the kernel pads
    shorter timelines, and the per-frame ``valid`` mask (row still has
    real frames) freezes a finished row's state exactly where its
    scalar counterpart stopped.
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
        self._frames_seen = np.zeros(n, dtype=np.int64)
        self._consecutive = np.zeros(n, dtype=np.int64)
        self._open = np.zeros(n, dtype=bool)
        self._start = np.zeros(n, dtype=np.int64)
        self._last_voiced = np.zeros(n, dtype=np.int64)
        self._frames_done = 0  # global lockstep frame counter

    # -- state ---------------------------------------------------------

    @property
    def in_utterance(self) -> np.ndarray:
        """Boolean mask of rows with an open utterance (a copy)."""
        return self._open.copy()

    @property
    def utterance_starts(self) -> np.ndarray:
        """Per-row absolute start samples (valid where open)."""
        return self._start.copy()

    def commit_bounds(self, heads: np.ndarray) -> np.ndarray:
        """Per-row in-utterance commit bounds, elementwise the scalar
        :meth:`OnlineSegmenter.commit_bound` formula.

        ``heads`` is each row's true stream head (its timeline length
        capped at the lockstep head). Values are meaningful only where
        :attr:`in_utterance` — the kernel masks by the open rows.
        """
        bound = self._last_voiced * self.hop + self.frame_len + self.pad
        bound = np.minimum(bound, self._start + self.max_samples)
        bound = np.minimum(bound, np.asarray(heads, dtype=np.int64))
        return np.maximum(bound, self._start)

    def lookback_samples(self) -> np.ndarray:
        """Per-row earliest start of any *future* utterance,
        elementwise :meth:`OnlineSegmenter.lookback_sample`."""
        earliest = self._frames_seen - self.config.open_frames + 1
        return np.maximum(0, earliest * self.hop - self.pad)

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
        share one start-sample value.
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
        events: list[BatchOpened | BatchClosed] = []
        for j in range(energies.shape[1]):
            f = first_frame + j
            e = energies[:, j]
            v = valid[:, j]
            if not v.any():
                self._frames_done += 1
                continue
            # First real frame of a row seeds its noise floor.
            newly = v & ~self._seen
            if newly.any():
                self._floor[newly] = np.maximum(e[newly], cfg.floor_min)
                self._seen |= newly
            # Snapshot the open state *at frame entry*: a row opening
            # this frame must not also run the close branch, and a row
            # closing this frame must not run the open branch.
            inut = v & self._open
            gated = v & ~self._open
            if gated.any():
                active = e > cfg.open_factor * self._floor
                inc = gated & active
                dec = gated & ~active
                self._consecutive[inc] += 1
                self._consecutive[dec] = 0
                if dec.any():
                    self._floor[dec] = np.maximum(
                        (1.0 - cfg.floor_alpha) * self._floor[dec]
                        + cfg.floor_alpha * e[dec],
                        cfg.floor_min,
                    )
                opening = gated & (self._consecutive >= cfg.open_frames)
                if opening.any():
                    open_first = f - cfg.open_frames + 1
                    start = max(0, open_first * self.hop - self.pad)
                    self._open |= opening
                    self._start[opening] = start
                    self._last_voiced[opening] = f
                    self._consecutive[opening] = 0
                    events.append(
                        BatchOpened(f, np.flatnonzero(opening), start)
                    )
            if inut.any():
                voiced = inut & (e > cfg.close_factor * self._floor)
                self._last_voiced[voiced] = f
                frame_end = f * self.hop + self.frame_len
                forced = inut & (
                    frame_end - self._start >= self.max_samples
                )
                natural = (
                    inut
                    & ~forced
                    & (
                        f - self._last_voiced
                        >= cfg.hangover_frames + cfg.close_frames
                    )
                )
                closing = forced | natural
                if closing.any():
                    rows = np.flatnonzero(closing)
                    ends = np.where(
                        forced[rows],
                        self._start[rows] + self.max_samples,
                        self._last_voiced[rows] * self.hop
                        + self.frame_len
                        + self.pad,
                    )
                    events.append(
                        BatchClosed(
                            f,
                            rows,
                            self._start[rows].copy(),
                            ends,
                            forced[rows].copy(),
                        )
                    )
                    self._open[closing] = False
                    self._consecutive[closing] = 0
            self._frames_seen[v] += 1
            self._frames_done += 1
        return events

    def flush_open_rows(self, heads: np.ndarray) -> BatchClosed | None:
        """End of stream: close every still-open row naturally.

        Mirrors :meth:`OnlineSegmenter.flush` per row — the boundary
        formula capped at that row's own head, fired at that row's own
        frame count (rows whose timelines ended early froze at their
        scalar counterpart's frame count). Rows closing at different
        frames are folded into one event; the kernel orders flush
        outcomes per row, so the shared ``frame`` field is reported as
        each row's own count via ``frames_seen_of``.
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

    def frames_seen_of(self, row: int) -> int:
        """Row ``row``'s private frame count (== its scalar
        segmenter's ``_frames_seen``)."""
        return int(self._frames_seen[row])
