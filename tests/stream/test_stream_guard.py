"""Streaming guard parity and segmenter behaviour.

The headline properties: for *any* chunk-size partition of a
recording, the gateless streaming guard's verdict, score, features
and recognition result are **bitwise identical** to the offline
:class:`~repro.defense.guard.GuardedVoiceAssistant` on the same
recording — for the attack and the genuine probe alike; and for any
chunking of a multi-utterance timeline, the gated guard finds the
same utterances and decides each one exactly as the offline guard
decides its samples. The ``FUZZ_EXAMPLES`` environment variable
scales the gated property (CI's fuzz job widens it).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import chunk_partitions
from repro.defense.guard import GuardedVoiceAssistant
from repro.dsp.signals import Signal
from repro.errors import StreamError
from repro.experiments.s1_streaming import train_detector
from repro.sim.spec import scenario_names
from repro.stream.fleet import synthesize_utterances
from repro.stream.guard import StreamingGuard
from repro.stream.segmenter import (
    BatchOpened,
    OnlineSegmenterBatch,
    SegmenterConfig,
)

FUZZ_EXAMPLES = int(os.environ.get("FUZZ_EXAMPLES", "6"))


def _assert_outcomes_bitwise(online, offline):
    assert online.executed_command == offline.executed_command
    assert online.vetoed == offline.vetoed
    assert online.recognition.accepted == offline.recognition.accepted
    assert online.recognition.command == offline.recognition.command
    assert online.recognition.distance == offline.recognition.distance
    assert online.recognition.distances == offline.recognition.distances
    assert (online.detection is None) == (offline.detection is None)
    if online.detection is not None:
        assert online.detection.score == offline.detection.score
        assert online.detection.is_attack == offline.detection.is_attack
        assert np.array_equal(
            online.detection.features, offline.detection.features
        )


class TestChunkedParity:
    @pytest.mark.parametrize("probe_index", [0, 1], ids=["attack", "genuine"])
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_any_partition_bitwise_identical(
        self, probe_index, stream_detector, stream_probes, data
    ):
        recordings, recognizer = stream_probes
        recording = recordings[probe_index]
        offline = GuardedVoiceAssistant(
            recognizer, stream_detector
        ).process(recording)
        partition = data.draw(
            chunk_partitions(recording.n_samples, max_parts=6)
        )
        guard = StreamingGuard(
            recognizer,
            stream_detector,
            recording.sample_rate,
            unit=recording.unit,
            gated=False,
        )
        cursor = 0
        samples = recording.samples
        for size in partition:
            assert guard.push(samples[cursor : cursor + size]) == []
            cursor += size
        online = guard.end_utterance()
        _assert_outcomes_bitwise(online, offline)

    def test_fixed_chunk_convenience_matches(
        self, stream_detector, stream_probes
    ):
        recordings, recognizer = stream_probes
        for recording in recordings:
            offline = GuardedVoiceAssistant(
                recognizer, stream_detector
            ).process(recording)
            for chunk in (1024, recording.n_samples):
                guard = StreamingGuard(
                    recognizer,
                    stream_detector,
                    recording.sample_rate,
                    unit=recording.unit,
                    gated=False,
                )
                online = guard.process_recording(recording, chunk)
                _assert_outcomes_bitwise(online, offline)


def _embed(recordings, seed):
    """Ambient lead-in, then each recording followed by an ambient
    gap: a short multi-utterance device timeline."""
    rate = recordings[0].sample_rate
    rng = np.random.default_rng(seed)
    background = 0.1 * np.mean([r.rms() for r in recordings])
    pieces = [rng.normal(size=int(0.4 * rate)) * background]
    for recording in recordings:
        pieces.append(recording.samples)
        pieces.append(rng.normal(size=int(0.6 * rate)) * background)
    return np.concatenate(pieces)


class TestGatedPartition:
    """The gated guard's oracle is the offline guard: any chunking of
    a timeline gives the same utterances, each decided bitwise as the
    offline assistant decides its samples."""

    @pytest.fixture(scope="class", params=["free_field", "living_room"])
    def gated_case(self, request, stream_detector, stream_probes):
        scenario = request.param
        if scenario == "free_field":
            detector = stream_detector
            recordings, recognizer = stream_probes
        else:
            detector = train_detector(scenario, seed=0, n_trials=2)
            rngs = [
                np.random.default_rng(child)
                for child in np.random.SeedSequence(1).spawn(2)
            ]
            recordings, recognizer = synthesize_utterances(
                scenario,
                "ok_google",
                None,
                rngs,
                np.array([True, False]),
                voice_seed=0,
            )
        return {
            "detector": detector,
            "recognizer": recognizer,
            "rate": recordings[0].sample_rate,
            "unit": recordings[0].unit,
            "timeline": _embed(recordings, seed=5),
            "offline": GuardedVoiceAssistant(recognizer, detector),
            "references": {},
        }

    @staticmethod
    def _stream(case, sizes, config):
        guard = StreamingGuard(
            case["recognizer"],
            case["detector"],
            case["rate"],
            unit=case["unit"],
            gated=True,
            segmenter_config=config,
        )
        timeline, outcomes, cursor = case["timeline"], [], 0
        for size in sizes:
            outcomes.extend(guard.push(timeline[cursor : cursor + size]))
            cursor += size
        assert cursor == timeline.shape[0]
        return outcomes + guard.flush()

    @given(data=st.data())
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    def test_any_chunking_decides_like_the_offline_guard(
        self, gated_case, data
    ):
        case = gated_case
        n = case["timeline"].shape[0]
        # A 0.7 s cap force-closes inside each utterance, and the
        # rest of its speech reopens a new one.
        max_utterance_s = data.draw(st.sampled_from([10.0, 0.7]))
        config = SegmenterConfig(max_utterance_s=max_utterance_s)
        if max_utterance_s not in case["references"]:
            whole = self._stream(case, [n], config)
            case["references"][max_utterance_s] = [
                (
                    (u.start_sample, u.end_sample, u.forced),
                    case["offline"].process(
                        Signal(
                            case["timeline"][u.start_sample : u.end_sample],
                            case["rate"],
                            case["unit"],
                        )
                    ),
                )
                for u in whole
            ]
        references = case["references"][max_utterance_s]
        assert len(references) >= 2
        if max_utterance_s < 1.0:
            assert any(forced for (_, _, forced), _ in references)
        if data.draw(st.booleans()):
            sizes = data.draw(chunk_partitions(n, max_parts=8))
        else:
            size = data.draw(st.integers(min_value=200, max_value=20000))
            sizes = [size] * (n // size) + ([n % size] if n % size else [])
        online = self._stream(case, sizes, config)
        assert [
            (u.start_sample, u.end_sample, u.forced) for u in online
        ] == [span for span, _ in references]
        for utterance, (_, offline) in zip(online, references):
            assert utterance.emitted_at_sample >= utterance.end_sample
            _assert_outcomes_bitwise(utterance.outcome, offline)


class TestEveryScenario:
    @pytest.mark.parametrize("scenario", scenario_names())
    def test_parity_holds_in_every_registered_environment(
        self, scenario
    ):
        """The bitwise guarantee is environment-independent: rooms,
        interference, motion and weather all stream identically."""
        from repro.experiments.s1_streaming import train_detector
        from repro.stream.fleet import synthesize_utterances

        detector = train_detector(scenario, seed=0, n_trials=2)
        rngs = [
            np.random.default_rng(child)
            for child in np.random.SeedSequence(2).spawn(2)
        ]
        recordings, recognizer = synthesize_utterances(
            scenario,
            "ok_google",
            None,
            rngs,
            np.array([True, False]),
            voice_seed=0,
        )
        for recording in recordings:
            offline = GuardedVoiceAssistant(
                recognizer, detector
            ).process(recording)
            for chunk in (977, recording.n_samples):
                guard = StreamingGuard(
                    recognizer,
                    detector,
                    recording.sample_rate,
                    unit=recording.unit,
                    gated=False,
                )
                online = guard.process_recording(recording, chunk)
                _assert_outcomes_bitwise(online, offline)


class TestGuardModes:
    def test_gated_guard_rejects_gateless_calls(
        self, stream_detector, stream_probes
    ):
        _, recognizer = stream_probes
        guard = StreamingGuard(
            recognizer, stream_detector, 16000.0, gated=True
        )
        with pytest.raises(StreamError):
            guard.end_utterance()
        guard_free = StreamingGuard(
            recognizer, stream_detector, 16000.0, gated=False
        )
        with pytest.raises(StreamError):
            guard_free.flush()

    def test_gateless_without_samples_raises(
        self, stream_detector, stream_probes
    ):
        recordings, recognizer = stream_probes
        guard = StreamingGuard(
            recognizer, stream_detector, 16000.0, gated=False
        )
        with pytest.raises(StreamError):
            guard.end_utterance()
        guard.push(np.zeros(0))
        with pytest.raises(StreamError):
            guard.end_utterance()
        # Each close starts a fresh utterance: nothing carries over.
        recording = recordings[1]
        guard = StreamingGuard(
            recognizer,
            stream_detector,
            recording.sample_rate,
            unit=recording.unit,
            gated=False,
        )
        first = guard.process_recording(recording, 4096)
        with pytest.raises(StreamError):
            guard.end_utterance()
        _assert_outcomes_bitwise(
            guard.process_recording(recording, 977), first
        )

    def test_chunks_must_be_one_dimensional(
        self, stream_detector, stream_probes
    ):
        _, recognizer = stream_probes
        for gated in (True, False):
            guard = StreamingGuard(
                recognizer, stream_detector, 16000.0, gated=gated
            )
            with pytest.raises(StreamError):
                guard.push(np.zeros((2, 2)))
            with pytest.raises(StreamError):
                guard.push(np.float64(1.0))

    def test_rate_mismatch_rejected(
        self, stream_detector, stream_probes
    ):
        recordings, recognizer = stream_probes
        guard = StreamingGuard(
            recognizer, stream_detector, 16000.0, gated=False
        )
        with pytest.raises(StreamError):
            guard.process_recording(recordings[0], 1024)
        with pytest.raises(StreamError):
            guard.process_recording(
                recordings[0].replace(sample_rate=16000.0), 0
            )

    def test_construction_validation(
        self, stream_detector, stream_probes
    ):
        _, recognizer = stream_probes
        from repro.stream.segmenter import SegmenterConfig

        with pytest.raises(StreamError):
            StreamingGuard(
                recognizer, stream_detector, 4000.0, gated=False
            )
        with pytest.raises(StreamError):
            StreamingGuard(
                recognizer,
                stream_detector,
                16000.0,
                gated=False,
                segmenter_config=SegmenterConfig(),
            )

    def test_gated_segments_and_decides_an_embedded_utterance(
        self, stream_detector, stream_probes
    ):
        """A lead-in/gap-wrapped recording yields exactly one verdict
        whose boundaries cover the embedded speech."""
        recordings, recognizer = stream_probes
        recording = recordings[1]  # genuine
        rate = recording.sample_rate
        rng = np.random.default_rng(5)
        background = 0.1 * recording.rms()
        lead = rng.normal(size=int(0.4 * rate)) * background
        gap = rng.normal(size=int(0.6 * rate)) * background
        samples = np.concatenate([lead, recording.samples, gap])
        guard = StreamingGuard(
            recognizer,
            stream_detector,
            rate,
            unit=recording.unit,
            gated=True,
        )
        outcomes = []
        chunk = int(0.05 * rate)
        for start in range(0, samples.shape[0], chunk):
            outcomes.extend(guard.push(samples[start : start + chunk]))
        outcomes.extend(guard.flush())
        assert len(outcomes) == 1
        utterance = outcomes[0]
        speech_start = len(lead)
        speech_end = len(lead) + recording.n_samples
        # Boundaries within a frame-grid tolerance of the true span.
        tolerance = int(0.1 * rate)
        assert abs(utterance.start_sample - speech_start) <= tolerance
        assert abs(utterance.end_sample - speech_end) <= tolerance
        assert not utterance.forced
        assert utterance.latency_s(rate) > 0
        assert utterance.outcome.executed_command == "ok_google"


def _events(events):
    """Segmenter events as plain tuples (their array fields compared
    by value): ``("open", frame, start)`` or
    ``("close", frame, start, end, forced)`` per row."""
    flat = []
    for event in events:
        if isinstance(event, BatchOpened):
            for _ in event.rows.tolist():
                flat.append(("open", event.frame, event.start_sample))
        else:
            for start, end, forced in zip(
                event.start_samples.tolist(),
                event.end_samples.tolist(),
                event.forced.tolist(),
            ):
                flat.append(("close", event.frame, start, end, forced))
    return flat


def _process(seg, first, energies):
    energies = np.asarray(energies, dtype=np.float64)[np.newaxis, :]
    return _events(
        seg.process_block(first, energies, np.ones(energies.shape, bool))
    )


class TestSegmenterStateMachine:
    """The gate's state machine on one stream: a segmenter group of
    one row."""

    CFG = SegmenterConfig(
        open_factor=4.0,
        close_factor=2.0,
        open_frames=2,
        hangover_frames=3,
        close_frames=4,
    )

    def _run(self, energies, config=None):
        seg = OnlineSegmenterBatch(1, 16000.0, config or self.CFG)
        return seg, _process(seg, 0, energies)

    def test_opens_after_consecutive_active_frames(self):
        quiet, loud = 1.0, 10.0
        seg, events = self._run([quiet] * 10 + [loud] * 3)
        # Second consecutive loud frame (index 11) opens; the run
        # began at frame 10.
        assert events == [("open", 11, 10 * seg.hop)]

    def test_single_spike_does_not_open(self):
        quiet, loud = 1.0, 10.0
        _, events = self._run([quiet] * 10 + [loud] + [quiet] * 10)
        assert events == []

    def test_closes_after_hangover_plus_close_frames(self):
        quiet, loud = 1.0, 10.0
        seg, events = self._run(
            [quiet] * 10 + [loud] * 5 + [quiet] * 12
        )
        closed = [e for e in events if e[0] == "close"]
        assert len(closed) == 1
        last_voiced = 14  # frames 10..14 are loud
        _, frame, _, end, forced = closed[0]
        assert frame == last_voiced + 3 + 4
        assert end == last_voiced * seg.hop + seg.frame_len + seg.pad
        assert not forced

    def test_hysteresis_keeps_soft_tail_voiced(self):
        quiet, loud, soft = 1.0, 10.0, 3.0  # soft > close_factor*floor
        seg, events = self._run(
            [quiet] * 10 + [loud] * 3 + [soft] * 5 + [quiet] * 12
        )
        closed = [e for e in events if e[0] == "close"]
        assert len(closed) == 1
        assert closed[0][3] == 17 * seg.hop + seg.frame_len + seg.pad

    def test_forced_close_at_max_utterance(self):
        config = SegmenterConfig(
            open_frames=2,
            hangover_frames=3,
            close_frames=4,
            max_utterance_s=0.5,
        )
        seg, events = self._run([1.0] * 10 + [10.0] * 100, config)
        closed = [e for e in events if e[0] == "close"]
        assert closed and closed[0][4]
        assert closed[0][3] - closed[0][2] == seg.max_samples

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_forced_close_on_a_chunk_boundary_matches_offline(
        self, data
    ):
        """An utterance that hits ``max_utterance_s`` exactly at a
        chunk boundary yields the same event trace as the offline
        (single-call) path.

        The forcing frame is the nastiest place to cut the energy
        stream: the close fires on the last frame of one chunk or the
        first frame of the next, and either way the trace — open and
        close frames, sample boundaries, the ``forced`` flag — must be
        identical to processing every frame in one call.
        """
        config = SegmenterConfig(
            open_frames=2,
            hangover_frames=3,
            close_frames=4,
            max_utterance_s=0.5,
        )
        n_quiet = data.draw(st.integers(min_value=3, max_value=12))
        energies = np.asarray([1.0] * n_quiet + [10.0] * 80)
        offline_seg, offline_events = self._run(energies, config)
        closed = [e for e in offline_events if e[0] == "close"]
        assert closed and closed[0][4]
        # The span is capped at exactly max_samples (0.5 s lands on
        # the frame grid: 8000 samples = 48 hops past the opening
        # frame), so the boundary below cuts at the precise frame
        # where the cap trips.
        assert closed[0][3] - closed[0][2] == offline_seg.max_samples
        force_frame = closed[0][1]
        assert force_frame < len(energies) - 1
        cuts = data.draw(
            st.sets(
                st.integers(min_value=1, max_value=len(energies) - 1),
                max_size=5,
            )
        )
        # Pin one cut to the forcing frame itself (close fires as the
        # first frame of a chunk) or one past it (as the last frame).
        cuts.add(
            data.draw(st.sampled_from([force_frame, force_frame + 1]))
        )
        edges = [0] + sorted(cuts) + [len(energies)]
        streamed_seg = OnlineSegmenterBatch(1, 16000.0, config)
        streamed_events = []
        for start, end in zip(edges, edges[1:]):
            streamed_events.extend(
                _process(streamed_seg, start, energies[start:end])
            )
        assert streamed_events == offline_events

    def test_out_of_order_frames_rejected(self):
        seg = OnlineSegmenterBatch(1, 16000.0, self.CFG)
        _process(seg, 0, np.ones(5))
        with pytest.raises(StreamError):
            _process(seg, 3, np.ones(5))

    def test_commit_bound_monotone_and_capped(self):
        quiet, loud = 1.0, 10.0
        seg, _ = self._run([quiet] * 10 + [loud] * 3)
        head = 13 * seg.hop + seg.frame_len
        [(row, start, bound)] = seg.open_spans(np.array([head]))
        assert row == 0 and start <= bound <= head
        assert seg.open_spans(np.array([head + 100]))[0][2] >= bound
        assert seg.open_spans(np.array([start]))[0][2] == start

    def test_flush_closes_open_utterance(self):
        quiet, loud = 1.0, 10.0
        seg, _ = self._run([quiet] * 10 + [loud] * 5)
        head = 15 * seg.hop + seg.frame_len
        event = seg.flush_open_rows(np.array([head]))
        end = 14 * seg.hop + seg.frame_len + seg.pad  # last voiced 14
        assert _events([event]) == [("close", 15, 10 * seg.hop, end, False)]
        assert seg.flush_open_rows(np.array([0])) is None
