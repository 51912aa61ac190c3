"""Structure-of-arrays fleet kernel: one group of streams per loop.

:func:`~repro.stream.fleet.drive_stream` advances one device through
its timeline with per-chunk Python work — ring push, frame energies,
segmenter branches, Welch segments — repeated for every stream. At
fleet scale that per-stream interpreter overhead dominates: the
arithmetic is identical across streams, only the data differs. This
module is the RVH/Harmonia-shaped rewrite of that hot loop: a whole
*group* of streams (:class:`StreamGroup`) advances in lockstep, and
each cycle's work runs as ``(n_streams, ...)`` NumPy ops —

* chunk ingestion is one 2-D write into a shared ring
  (:class:`~repro.stream.chunker.ChunkedStreamBatch`) and one
  ``frame_rms_matrix`` reduction;
* the segmenter state machine advances all rows per frame with masked
  vector ops (:class:`~repro.stream.segmenter.OnlineSegmenterBatch`);
* Welch accumulation gathers every *due* segment across every open
  utterance into one stack and runs a single batched FFT
  (:func:`~repro.stream.features.welch_segment_psd`), folding rows
  back per accumulator in order;
* at group end, recognition batches all closed utterances through the
  anti-diagonal DTW slab
  (:meth:`~repro.speech.recognizer.KeywordRecognizer.recognize_many`)
  and detection batches the trace analyses by utterance length.

The group is push-based, the way a device microphone delivers audio:
:meth:`StreamGroup.push` takes one ``(n_streams, k)`` block per cycle
and :meth:`StreamGroup.flush` ends the streams. No stream's whole
timeline is ever assembled — the RVH model of online classification,
whose state is bounded by what it must remember (open utterances, a
lookback, closed utterances awaiting the decide phase), not by how
much input has gone past. :func:`drive_stream_group` is the fleet's
caller: it draws each cycle's block from the streams'
:class:`~repro.stream.fleet.TimelineSource` objects on demand.

Per-stream *scalar* work survives only at boundary events — an
utterance closing (its samples are copied out and its Welch tail
segments finish in the scalar accumulator) and ring growth — exactly
the cheap-fast-path / expensive-rare-boundary split the online
classification literature prescribes.

The contract is the fleet's usual one, extended: every per-stream
digest is **bitwise identical** to :func:`drive_stream`'s for any
grouping of streams into kernel batches. Each vectorised stage is
row-wise bitwise equal to its scalar counterpart (batched FFT rows,
matrix frame RMS, elementwise float64 state updates, band-masked DTW
slabs), rows never exchange information, and the lockstep padding
of rows that have ended is masked out of every decision — the
kernel digest property in ``tests/stream/test_stream_kernel.py``
pins this over arbitrary stream counts and groupings.

The kernel reports its timing through trace spans only: with no
tracer active it records nothing, and under one each stage window is
a span under the group's ``stream-group`` span, which
:meth:`~repro.sim.pipeline.StageProfile.from_spans` folds into the
per-stage breakdown.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.defense.detector import InaudibleVoiceDetector
from repro.defense.features import features_from_analysis
from repro.defense.guard import guard_outcome
from repro.defense.traces import analyses_from_psd
from repro.dsp.signals import Signal, SignalBatch
from repro.errors import DefenseError, StreamError
from repro.obs.trace import current_tracer
from repro.speech.recognizer import KeywordRecognizer
from repro.stream.chunker import ChunkedStreamBatch
from repro.stream.features import WelchAccumulator, welch_segment_psd
from repro.stream.fleet import (
    FleetConfig,
    RawStreamRun,
    TimelineSource,
)
from repro.stream.guard import UtteranceOutcome
from repro.stream.segmenter import (
    BatchClosed,
    BatchOpened,
    OnlineSegmenterBatch,
    SegmenterConfig,
)

@dataclass
class _Pending:
    """One closed utterance awaiting the batched decide phase."""

    start: int
    end: int
    emitted_at: int
    forced: bool
    samples: np.ndarray
    welch: WelchAccumulator
    unit: str


class StreamGroup:
    """A group of device streams advancing in lockstep, fed one
    ``(n_streams, k)`` block per cycle.

    Push-based, like a device microphone: :meth:`push` runs one
    cycle (ingest, segment, close, Welch, release) over the block
    it is handed, and :meth:`flush` ends every stream (closing still
    open utterances, then the batched recognition and detection). The
    group holds only what it must remember — each row's open
    utterance, its lookback and its closed utterances — never a
    row's audio history.

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
        self._open_welch: list[WelchAccumulator | None] = [None] * n_group
        self._pending: list[list[_Pending]] = [[] for _ in range(n_group)]

    def stage(self, name: str, started: float) -> float:
        """Close one stage window opened at ``started``; returns its
        seconds (a span under the group span when tracing)."""
        ended = time.perf_counter()
        if self._tracer is not None:
            self._tracer.record(
                name, started, ended, parent_id=self._group_id
            )
        return ended - started

    def push(self, block: np.ndarray, real: np.ndarray) -> None:
        """One lockstep cycle over ``block`` (``(n_streams, k)``).

        ``real[b]`` is the number of leading samples of row ``b`` that
        are audio; a row with fewer than ``k`` has ended.
        """
        ring, segmenter = self._ring, self._segmenter
        real = np.asarray(real, dtype=np.int64)
        k = block.shape[-1]
        if real.shape != self.lengths.shape or np.any(
            (real < 0) | (real > k)
        ):
            raise StreamError(
                f"real sample counts must be {self.lengths.shape[0]} "
                f"values in [0, {k}], got {real}"
            )
        if np.any((self.lengths < ring.head) & (real > 0)):
            raise StreamError("a stream that ended cannot resume")

        # -- ingest: one lockstep push, one matrix frame-RMS --------
        started = time.perf_counter()
        ring.push_block(block)
        self.lengths += real
        heads = self.lengths
        first, energies = ring.pending_frame_energies()
        self.stage("ingest", started)

        # -- segment: vectorised state machine over the new frames --
        started = time.perf_counter()
        n_new = energies.shape[1]
        if n_new:
            # frame_count per row: complete frames in its real samples.
            n_frames = (heads - ring.frame_len) // ring.hop + 1
            frame_idx = first + np.arange(n_new)
            valid = frame_idx[np.newaxis, :] < n_frames[:, np.newaxis]
            events = segmenter.process_block(first, energies, valid)
        else:
            events = []
        self.stage("segment", started)

        # -- boundary events: the per-stream scalar fallback ---------
        started = time.perf_counter()
        for event in events:
            if isinstance(event, BatchOpened):
                for row in event.rows:
                    self._open_welch[int(row)] = WelchAccumulator(
                        self.rate
                    )
            elif isinstance(event, BatchClosed):
                for row, start, end_u, forced in zip(
                    event.rows,
                    event.start_samples,
                    event.end_samples,
                    event.forced,
                ):
                    row, start = int(row), int(start)
                    end = min(int(end_u), int(heads[row]))
                    self._close(row, start, end, bool(forced))
        self.stage("close", started)

        # -- welch: every due segment of the cycle in one FFT --------
        started = time.perf_counter()
        open_mask = segmenter.in_utterance
        if open_mask.any():
            bounds = segmenter.commit_bounds(heads)
            starts = segmenter.utterance_starts
            gather_rows: list[int] = []
            gather_starts: list[int] = []
            owners: list[WelchAccumulator] = []
            for row in np.flatnonzero(open_mask):
                welch = self._open_welch[row]
                start = int(starts[row])
                committed = int(bounds[row]) - start
                for rel in welch.due_starts(committed):
                    gather_rows.append(int(row))
                    gather_starts.append(start + rel)
                    owners.append(welch)
            if owners:
                slab = ring.gather_rows(
                    np.asarray(gather_rows),
                    np.asarray(gather_starts),
                    owners[0].segment_length,
                )
                psd_rows = welch_segment_psd(
                    slab, owners[0].window_values, owners[0].scale
                )
                for welch, psd_row in zip(owners, psd_rows):
                    welch.fold(psd_row)
        self.stage("welch", started)

        # -- release: retain open starts, the frame grid, lookback ---
        next_frame_start = ring.frames_emitted * ring.hop
        per_row_keep = np.where(
            open_mask,
            segmenter.utterance_starts,
            segmenter.lookback_samples(),
        )
        keep = min(next_frame_start, int(per_row_keep.min()))
        ring.release(max(ring.tail, keep))

    def _close(
        self, row: int, start: int, end: int, forced: bool
    ) -> None:
        welch = self._open_welch[row]
        self._open_welch[row] = None
        self._pending[row].append(
            _Pending(
                start=start,
                end=end,
                emitted_at=int(self.lengths[row]),
                forced=forced,
                samples=self._ring.read_row(row, start, end),
                welch=welch,
                unit=self.units[row],
            )
        )

    def flush(self) -> list[list[UtteranceOutcome]]:
        """End every stream: close still-open rows at their own ends,
        then recognise, detect and fold the outcomes, per row in
        stream order."""
        rate = self.rate
        n_group = len(self.indices)

        # -- flush: close still-open rows at their own stream ends ---
        started = time.perf_counter()
        flush_event = self._segmenter.flush_open_rows(self.lengths)
        if flush_event is not None:
            for row, start, end in zip(
                flush_event.rows,
                flush_event.start_samples,
                flush_event.end_samples,
            ):
                self._close(int(row), int(start), int(end), False)
        self.stage("close", started)

        # -- recognize: all closed utterances through the DTW slab ---
        started = time.perf_counter()
        flat = [
            (row, p) for row in range(n_group) for p in self._pending[row]
        ]
        recognitions = self.recognizer.recognize_many(
            [Signal(p.samples, rate, p.unit) for _, p in flat]
        )
        self.stage("recognize", started)

        # -- detect: batched trace analyses for *accepted* utterances
        # The guard consults the detector only when recognition
        # accepts (guard_outcome's laziness); computing the PSD of a
        # rejected utterance could even raise where the scalar path
        # would not.
        started = time.perf_counter()
        accepted = [
            i for i, result in enumerate(recognitions) if result.accepted
        ]
        finalized = {}
        for i in accepted:
            p = flat[i][1]
            finalized[i] = p.welch.finalize(p.samples, p.samples.shape[0])
        groups: dict[tuple[int, str], list[int]] = {}
        for i in accepted:
            p = flat[i][1]
            groups.setdefault((p.samples.shape[0], p.unit), []).append(i)
        detections = {}
        for (_, unit), members in groups.items():
            stack = np.stack([flat[i][1].samples for i in members])
            freqs = finalized[members[0]][0]
            psd = np.concatenate(
                [finalized[i][1] for i in members], axis=0
            )
            analyses = analyses_from_psd(
                SignalBatch(stack, rate, unit), freqs, psd
            )
            for i, analysis in zip(members, analyses):
                vector = features_from_analysis(
                    analysis, subset=self.detector.feature_subset
                )
                detections[i] = self.detector.classify_features(vector)
        self.stage("detect", started)

        outcomes: list[list[UtteranceOutcome]] = [[] for _ in range(n_group)]
        for i, (row, p) in enumerate(flat):
            detection = detections.get(i)
            outcome = guard_outcome(
                recognitions[i], lambda detection=detection: detection
            )
            outcomes[row].append(
                UtteranceOutcome(
                    outcome=outcome,
                    start_sample=p.start,
                    end_sample=p.end,
                    emitted_at_sample=p.emitted_at,
                    forced=p.forced,
                )
            )

        tracer = self._tracer
        if tracer is not None:
            group_ended = time.perf_counter()
            # Utterance spans are decision *markers*: zero wall width
            # at the decide instant, with the stream-time latency (and
            # the stream that produced them) in the attributes — that
            # is what the reporter's percentile section reads.
            for i, (row, p) in enumerate(flat):
                tracer.record(
                    "utterance",
                    group_ended,
                    group_ended,
                    parent_id=self._group_id,
                    stream=self.indices[row],
                    latency_s=(p.emitted_at - p.end) / rate,
                    accepted=bool(recognitions[i].accepted),
                    forced=p.forced,
                )
            tracer.record(
                "stream-group",
                self._group_started,
                group_ended,
                parent_id=self._group_parent,
                span_id=self._group_id,
                streams=n_group,
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
) -> tuple[list[RawStreamRun], float]:
    """Drive a group of streams in lockstep; per-stream results are
    bitwise :func:`~repro.stream.fleet.drive_stream`'s.

    Parameters mirror ``drive_stream`` with the stream axis pluralised:
    ``indices`` are the global stream indices of the group, and entry
    ``b`` of the per-stream lists is that stream's utterance
    recordings, slot attack flags and seed sequence.

    The whole-timeline caller of :class:`StreamGroup`: each cycle
    draws one ``(n_streams, chunk)`` block from the streams'
    :class:`~repro.stream.fleet.TimelineSource` objects and pushes
    it, so the group's working set is one block plus what the group
    must remember, whatever the timelines' length.

    Under an ambient tracer every stage window (``assemble`` — each
    cycle's draw —, ``ingest``, ``segment``, ``close``, ``welch``,
    ``recognize``, ``detect``) is recorded as one span under the
    group's ``stream-group`` span;
    :meth:`~repro.sim.pipeline.StageProfile.from_spans` folds them into
    the per-stage breakdown.

    Returns ``(runs, assemble_seconds)`` — the second element is the
    summed wall time of the ``assemble`` windows, which the fleet
    accounts as *prepare* (workload generation), not streaming wall:
    a deployment receives its audio, it does not draw it from a
    generator.
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
    assemble_seconds = group.stage("assemble", started)
    for head in range(0, max_len, chunk):
        started = time.perf_counter()
        cycle = block[:, : min(chunk, max_len - head)]
        for b, source in enumerate(sources):
            # An ended row's tail keeps whatever the block last held:
            # the group never reads past a row's real samples.
            real[b] = source.read_into(cycle[b])
        assemble_seconds += group.stage("assemble", started)
        group.push(cycle, real)
    outcomes = group.flush()
    return [
        RawStreamRun(
            index=int(indices[b]),
            is_attack=tuple(bool(flag) for flag in attack_by_stream[b]),
            duration_s=lengths[b] / rate,
            outcomes=outcomes[b],
        )
        for b in range(n_group)
    ], assemble_seconds
