"""The streaming guard's one implementation: a group of streams per loop.

A whole *group* of device streams (:class:`StreamGroup`) advances in
lockstep, and each cycle's work runs as ``(n_streams, ...)`` NumPy ops
— the RVH/Harmonia shape of online classification, where the per-chunk
arithmetic is identical across streams and only the data differs:

* chunk ingestion is one 2-D write into a shared ring
  (:class:`~repro.stream.chunker.ChunkedStreamBatch`) and one
  ``frame_rms_matrix`` reduction;
* the segmenter state machine advances all rows per frame
  (:class:`~repro.stream.segmenter.OnlineSegmenterBatch`; narrow
  groups take its per-frame Python-float path);
* Welch accumulation gathers every *due* segment across every open
  utterance into one stack and runs a single batched FFT
  (:func:`~repro.stream.features.welch_segment_psd`), folding rows
  back per accumulator in order;
* every utterance that closed in the cycle is decided before
  :meth:`StreamGroup.push` returns (:func:`decide`): recognition
  batches the closes through the anti-diagonal DTW slab
  (:meth:`~repro.speech.recognizer.KeywordRecognizer.recognize_many`)
  and detection batches the trace analyses by utterance length.

The group is push-based, the way a device microphone delivers audio:
:meth:`StreamGroup.push` takes one ``(n_streams, k)`` block per cycle
and returns the verdicts of the utterances it closed;
:meth:`StreamGroup.flush` ends the streams and decides the utterances
still open. The group holds only what it must remember — each row's
open utterance and lookback — not how much input has gone past or how
many utterances it has decided. The always-on
:class:`~repro.stream.guard.StreamingGuard` is a group of one, and
:func:`drive_stream_group` is the fleet's caller: it draws each
cycle's block from the streams'
:class:`~repro.stream.fleet.TimelineSource` objects on demand.

Per-stream scalar work survives only at boundary events — an utterance
closing (its samples are copied out and its Welch tail segments finish
in its accumulator) and ring growth — the cheap-fast-path /
expensive-rare-boundary split the online classification literature
prescribes.

Every per-utterance outcome is bitwise the offline
:class:`~repro.defense.guard.GuardedVoiceAssistant`'s on the same
samples, and every per-stream digest is the same for any grouping of
streams: each vectorised stage is row-wise bitwise its one-row
counterpart (batched FFT rows, matrix frame RMS, elementwise float64
state updates, band-masked DTW slabs), rows never exchange
information, and the lockstep padding of rows that have ended is
masked out of every decision.

The kernel reports its timing through trace spans only: with no
tracer active it records nothing, and under one each stage window is
a span under the group's ``stream-group`` span, which
:meth:`~repro.sim.pipeline.StageProfile.from_spans` folds into the
per-stage breakdown.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.defense.detector import InaudibleVoiceDetector
from repro.defense.features import features_from_analysis
from repro.defense.guard import GuardedOutcome, guard_outcome
from repro.defense.traces import analyses_from_psd
from repro.dsp.signals import Signal, SignalBatch
from repro.errors import DefenseError, StreamError
from repro.obs.trace import current_tracer
from repro.speech.recognizer import KeywordRecognizer
from repro.stream.chunker import ChunkedStreamBatch
from repro.stream.features import WelchAccumulator, welch_segment_psd
from repro.stream.fleet import (
    FleetConfig,
    StreamResult,
    TimelineSource,
    UtteranceDigest,
)
from repro.stream.segmenter import (
    BatchClosed,
    BatchOpened,
    OnlineSegmenterBatch,
    SegmenterConfig,
)


@dataclass(frozen=True)
class UtteranceOutcome:
    """One gated utterance's verdict, with its stream bookkeeping.

    Attributes
    ----------
    outcome:
        The guard's decision, shaped exactly like the offline
        assistant's.
    start_sample, end_sample:
        Absolute utterance boundaries in the stream.
    emitted_at_sample:
        Stream head when the verdict was emitted. The gap to
        ``end_sample`` is the detection latency in *stream time* —
        deterministic for a given chunking, unlike wall clock.
    forced:
        Whether the segmenter force-closed at ``max_utterance_s``.
    """

    outcome: GuardedOutcome
    start_sample: int
    end_sample: int
    emitted_at_sample: int
    forced: bool

    def latency_s(self, sample_rate: float) -> float:
        """Detection latency in stream seconds (audio time)."""
        return (self.emitted_at_sample - self.end_sample) / sample_rate


def check_guard(recognizer: KeywordRecognizer, rate: float) -> None:
    """Reject a guard that could never decide: no enrolled commands,
    or a stream too slow for the trace analysis."""
    if not recognizer.commands:
        raise DefenseError(
            "the recogniser has no enrolled commands; enroll "
            "before installing the guard"
        )
    if rate < 8000.0:
        raise StreamError(
            "the guard needs at least an 8 kHz stream, got "
            f"{rate} Hz"
        )


def decide(
    recognizer: KeywordRecognizer,
    detector: InaudibleVoiceDetector,
    rate: float,
    closed: list[tuple[np.ndarray, WelchAccumulator, str]],
    stage: Callable[[str, float], float] | None = None,
) -> list[GuardedOutcome]:
    """Decide closed utterances, each given as ``(samples, welch,
    unit)``: one recognition slab, then one detect pass per
    utterance length over the accepted ones.

    The detector is consulted only when recognition accepts
    (:func:`~repro.defense.guard.guard_outcome`'s laziness); the Welch
    estimate of a rejected utterance is never finished. ``stage``, if
    given, closes the ``recognize`` and ``detect`` windows.
    """
    started = time.perf_counter()
    recognitions = (
        recognizer.recognize_many(
            [Signal(samples, rate, unit) for samples, _, unit in closed]
        )
        if closed
        else []
    )
    if stage is not None:
        stage("recognize", started)

    started = time.perf_counter()
    groups: dict[tuple[int, str], list[int]] = {}
    for i, (samples, _, unit) in enumerate(closed):
        if recognitions[i].accepted:
            groups.setdefault((samples.shape[0], unit), []).append(i)
    detections = {}
    for (length, unit), members in groups.items():
        finalized = [
            closed[i][1].finalize(closed[i][0], length) for i in members
        ]
        analyses = analyses_from_psd(
            SignalBatch.adopt(
                np.stack([closed[i][0] for i in members]), rate, unit
            ),
            finalized[0][0],
            np.concatenate([psd for _, psd in finalized], axis=0),
        )
        for i, analysis in zip(members, analyses):
            vector = features_from_analysis(
                analysis, subset=detector.feature_subset
            )
            detections[i] = detector.classify_features(vector)
    if stage is not None:
        stage("detect", started)
    return [
        guard_outcome(recognition, lambda i=i: detections[i])
        for i, recognition in enumerate(recognitions)
    ]


@dataclass
class _Close:
    """One utterance closed this cycle, awaiting its verdict."""

    row: int
    start: int
    end: int
    forced: bool
    samples: np.ndarray
    welch: WelchAccumulator


class StreamGroup:
    """A group of device streams advancing in lockstep, fed one
    ``(n_streams, k)`` block per cycle.

    Push-based, like a device microphone: :meth:`push` runs one
    cycle (ingest, segment, close, Welch, release, decide) over the
    block it is handed and returns the verdicts of the utterances
    that closed, and :meth:`flush` ends every stream (closing and
    deciding still open utterances). The group holds only what it
    must remember — each row's open utterance and its lookback —
    never a row's audio history or its past utterances.

    Rows end independently. The caller says how many leading samples
    of each row's block are real; the rest is padding (any finite
    values) that the group masks out of every decision, and once a
    row has come up short it must stay silent (zero real samples)
    until :meth:`flush`.

    Under an ambient tracer every stage window is recorded as one
    span under the group's ``stream-group`` span, which
    :meth:`flush` closes; a caller times its own windows (the fleet's
    ``assemble``) into the same span through :meth:`stage`.
    """

    def __init__(
        self,
        detector: InaudibleVoiceDetector,
        segmenter_config: SegmenterConfig | None,
        indices: list[int],
        rate: float,
        recognizer: KeywordRecognizer,
        units: list[str],
    ) -> None:
        if len(indices) != len(units):
            raise StreamError(
                "group indices and units must be parallel, got "
                f"lengths {len(indices)}/{len(units)}"
            )
        check_guard(recognizer, rate)
        self.detector = detector
        self.recognizer = recognizer
        self.rate = rate
        self.indices = [int(index) for index in indices]
        self.units = list(units)
        n_group = len(self.indices)
        self._tracer = current_tracer()
        if self._tracer is not None:
            # The group span's id is needed *before* its children are
            # recorded; allocate it now, record the span itself at
            # flush with the id and parent pinned here.
            self._group_id: int | None = self._tracer.new_id()
            self._group_parent = self._tracer.current_parent()
            self._group_started = time.perf_counter()
        else:
            self._group_id = None
        seg_cfg = segmenter_config or SegmenterConfig()
        self._ring = ChunkedStreamBatch(
            n_group, rate, seg_cfg.frame_length_s, seg_cfg.hop_length_s
        )
        self._segmenter = OnlineSegmenterBatch(n_group, rate, seg_cfg)
        #: Real samples seen per row so far — the row's own head.
        self.lengths = np.zeros(n_group, dtype=np.int64)
        #: Whether any row has ended: until then every row's length is
        #: the ring head, and every new frame is real.
        self._ragged = False
        self._open_welch: list[WelchAccumulator | None] = [None] * n_group

    def stage(self, name: str, started: float) -> None:
        """Close one stage window opened at ``started`` (a span under
        the group span when tracing)."""
        if self._tracer is not None:
            self._tracer.record(
                name, started, time.perf_counter(), parent_id=self._group_id
            )

    def push(
        self, block: np.ndarray, real: np.ndarray
    ) -> list[list[UtteranceOutcome]]:
        """One lockstep cycle over ``block`` (``(n_streams, k)``).

        ``real[b]`` is the number of leading samples of row ``b`` that
        are audio; a row with fewer than ``k`` has ended. Returns, per
        row in stream order, the verdicts of the utterances this
        cycle closed.
        """
        ring, segmenter = self._ring, self._segmenter
        real = np.asarray(real, dtype=np.int64)
        k = block.shape[-1]
        counts = real.tolist() if real.shape == self.lengths.shape else None
        if counts is None or not 0 <= min(counts) <= max(counts) <= k:
            raise StreamError(
                f"real sample counts must be {self.lengths.shape[0]} "
                f"values in [0, {k}], got {real}"
            )
        if self._ragged and np.any((self.lengths < ring.head) & (real > 0)):
            raise StreamError("a stream that ended cannot resume")
        self._ragged = self._ragged or min(counts) < k

        # -- ingest: one lockstep push, one matrix frame-RMS --------
        started = time.perf_counter()
        ring.push_block(block)
        self.lengths += real
        heads = self.lengths
        first, energies = ring.pending_frame_energies()
        self.stage("ingest", started)

        # -- segment: the state machine over the new frames ----------
        started = time.perf_counter()
        n_new = energies.shape[1]
        if n_new:
            if self._ragged:
                # frame_count per row: complete frames in its real
                # samples.
                n_frames = (heads - ring.frame_len) // ring.hop + 1
                frame_idx = first + np.arange(n_new)
                valid = frame_idx[np.newaxis, :] < n_frames[:, np.newaxis]
            else:
                valid = np.ones(energies.shape, dtype=bool)
            events = segmenter.process_block(first, energies, valid)
        else:
            events = []
        self.stage("segment", started)

        # -- boundary events: the per-stream scalar fallback ---------
        started = time.perf_counter()
        closes: list[_Close] = []
        for event in events:
            if isinstance(event, BatchOpened):
                for row in event.rows.tolist():
                    self._open_welch[row] = WelchAccumulator(self.rate)
            elif isinstance(event, BatchClosed):
                for row, start, end, forced in zip(
                    event.rows.tolist(),
                    event.start_samples.tolist(),
                    event.end_samples.tolist(),
                    event.forced.tolist(),
                ):
                    end = min(end, int(heads[row]))
                    closes.append(self._close(row, start, end, forced))
        self.stage("close", started)

        # -- welch: every due segment of the cycle in one FFT --------
        started = time.perf_counter()
        # Ring history to keep: the frame grid, the lookback of rows
        # still streaming, and every open utterance from its start.
        keep = min(
            ring.frames_emitted * ring.hop, segmenter.lookback_sample()
        )
        gather_rows: list[int] = []
        gather_starts: list[int] = []
        owners: list[WelchAccumulator] = []
        for row, start, bound in segmenter.open_spans(heads):
            keep = min(keep, start)
            welch = self._open_welch[row]
            for rel in welch.due_starts(bound - start):
                gather_rows.append(row)
                gather_starts.append(start + rel)
                owners.append(welch)
        if owners:
            slab = ring.gather_rows(
                gather_rows, gather_starts, owners[0].segment_length
            )
            psd_rows = welch_segment_psd(
                slab, owners[0].window_values, owners[0].scale
            )
            for welch, psd_row in zip(owners, psd_rows):
                welch.fold(psd_row)
        self.stage("welch", started)

        ring.release(keep)

        if not closes:
            return [[] for _ in self.indices]
        return self._decide(closes)

    def _close(
        self, row: int, start: int, end: int, forced: bool
    ) -> _Close:
        welch = self._open_welch[row]
        self._open_welch[row] = None
        return _Close(
            row=row,
            start=start,
            end=end,
            forced=forced,
            samples=self._ring.read_row(row, start, end),
            welch=welch,
        )

    def _decide(
        self, closes: list[_Close]
    ) -> list[list[UtteranceOutcome]]:
        """Verdicts for ``closes``, per row in close order; each is
        emitted at its row's current length."""
        decided = decide(
            self.recognizer,
            self.detector,
            self.rate,
            [(c.samples, c.welch, self.units[c.row]) for c in closes],
            self.stage,
        )
        outcomes: list[list[UtteranceOutcome]] = [
            [] for _ in self.indices
        ]
        for c, outcome in zip(closes, decided):
            outcomes[c.row].append(
                UtteranceOutcome(
                    outcome=outcome,
                    start_sample=c.start,
                    end_sample=c.end,
                    emitted_at_sample=int(self.lengths[c.row]),
                    forced=c.forced,
                )
            )
        tracer = self._tracer
        if tracer is not None:
            # Utterance spans are decision *markers*: zero wall width
            # at the decide instant, with the stream-time latency, the
            # stream that produced them and the decision in the
            # attributes — the reporter's percentile section reads the
            # latency, and accepted/vetoed give the reject, veto and
            # execute counts (executed = accepted and not vetoed).
            decided_at = time.perf_counter()
            for c, outcome in zip(closes, decided):
                tracer.record(
                    "utterance",
                    decided_at,
                    decided_at,
                    parent_id=self._group_id,
                    stream=self.indices[c.row],
                    latency_s=(int(self.lengths[c.row]) - c.end)
                    / self.rate,
                    accepted=bool(outcome.recognition.accepted),
                    vetoed=bool(outcome.vetoed),
                    forced=c.forced,
                )
        return outcomes

    def flush(self) -> list[list[UtteranceOutcome]]:
        """End every stream: close still-open rows at their own ends
        and decide them, per row in stream order."""
        started = time.perf_counter()
        closes: list[_Close] = []
        flush_event = self._segmenter.flush_open_rows(self.lengths)
        if flush_event is not None:
            for row, start, end in zip(
                flush_event.rows.tolist(),
                flush_event.start_samples.tolist(),
                flush_event.end_samples.tolist(),
            ):
                closes.append(self._close(row, start, end, False))
        self.stage("close", started)
        outcomes = self._decide(closes)
        if self._tracer is not None:
            self._tracer.record(
                "stream-group",
                self._group_started,
                time.perf_counter(),
                parent_id=self._group_parent,
                span_id=self._group_id,
                streams=len(self.indices),
            )
        return outcomes


def drive_stream_group(
    config: FleetConfig,
    detector: InaudibleVoiceDetector,
    segmenter_config: SegmenterConfig | None,
    indices: list[int],
    rate: float,
    recognizer: KeywordRecognizer,
    recordings_by_stream: list[list[Signal]],
    attack_by_stream: list[np.ndarray],
    seed_seqs: list[np.random.SeedSequence],
) -> list[StreamResult]:
    """Drive a group of streams in lockstep through their timelines.

    ``indices`` are the global stream indices of the group, and entry
    ``b`` of the per-stream lists is that stream's utterance
    recordings, slot attack flags and seed sequence.

    Each cycle draws one ``(n_streams, chunk)`` block from the
    streams' :class:`~repro.stream.fleet.TimelineSource` objects and
    pushes it, collecting the verdicts as utterances close, so the
    group's working set is one block plus what the group must
    remember, whatever the timelines' length or utterance count.

    Under an ambient tracer every stage window (``assemble`` — each
    cycle's draw —, ``ingest``, ``segment``, ``close``, ``welch``,
    ``recognize``, ``detect``) is recorded as one span under the
    group's ``stream-group`` span;
    :meth:`~repro.sim.pipeline.StageProfile.from_spans` folds them into
    the per-stage breakdown.

    Returns one :class:`~repro.stream.fleet.StreamResult` per stream,
    in group order.
    """
    n_group = len(indices)
    if not (
        n_group
        == len(recordings_by_stream)
        == len(attack_by_stream)
        == len(seed_seqs)
    ):
        raise StreamError(
            "kernel group fields must be parallel, got lengths "
            f"{n_group}/{len(recordings_by_stream)}/"
            f"{len(attack_by_stream)}/{len(seed_seqs)}"
        )
    group = StreamGroup(
        detector,
        segmenter_config,
        indices,
        rate,
        recognizer,
        [recordings[0].unit for recordings in recordings_by_stream],
    )
    started = time.perf_counter()
    sources = [
        TimelineSource(config, rate, recordings, np.random.default_rng(seq))
        for recordings, seq in zip(recordings_by_stream, seed_seqs)
    ]
    lengths = [source.length for source in sources]
    max_len = max(lengths)
    chunk = max(1, int(round(config.chunk_s * rate)))
    block = np.zeros((n_group, chunk), dtype=np.float64)
    real = np.zeros(n_group, dtype=np.int64)
    digests: list[list[UtteranceDigest]] = [[] for _ in range(n_group)]
    group.stage("assemble", started)
    for head in range(0, max_len, chunk):
        started = time.perf_counter()
        cycle = block[:, : min(chunk, max_len - head)]
        for b, source in enumerate(sources):
            # An ended row's tail keeps whatever the block last held:
            # the group never reads past a row's real samples.
            real[b] = source.read_into(cycle[b])
        group.stage("assemble", started)
        for b, closed in enumerate(group.push(cycle, real)):
            digests[b].extend(map(UtteranceDigest.of, closed))
    for b, closed in enumerate(group.flush()):
        digests[b].extend(map(UtteranceDigest.of, closed))
    return [
        StreamResult(
            index=int(indices[b]),
            is_attack=tuple(bool(flag) for flag in attack_by_stream[b]),
            duration_s=lengths[b] / rate,
            utterances=tuple(digests[b]),
        )
        for b in range(n_group)
    ]
