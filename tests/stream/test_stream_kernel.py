"""Stream groups: digest parity, decide on close, bounded working set,
the segmenter's two paths and the shared ring.

The kernel's contract (:mod:`repro.stream.kernel`) is that grouping
streams into lockstep batches is pure plumbing — every per-stream
digest is bitwise the one each stream gets in a group of its own
(``FleetConfig(vectorized=False)``), for *any* grouping of streams
into kernel batches. A hypothesis property pins it over arbitrary
partitions (non-contiguous, unordered — strictly wider than the
contiguous ``batch_streams`` splits production uses), a second
property walks the public ``batch_streams`` knob itself, a third pins
the segmenter's narrow-group row loop to its vector path, and unit
tests nail the shared ring
(:class:`~repro.stream.chunker.ChunkedStreamBatch`): exact
reconstruction, doubling growth, wraparound reuse and the
row-for-row frame-energy equivalence with rings of one row.

The ``FUZZ_EXAMPLES`` environment variable scales the segmenter
property (CI's fuzz job widens it).
"""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from strategies import chunk_partitions, index_partitions

from repro.errors import StreamError
from repro.experiments.s1_streaming import train_detector
from repro.speech.recognizer import KeywordRecognizer
from repro.stream import kernel
from repro.stream.chunker import ChunkedStreamBatch
from repro.stream.fleet import (
    FleetConfig,
    FleetSimulator,
    TimelineSource,
    UtteranceDigest,
    check_fleet_rate,
    fleet_seed_plan,
    synthesize_utterances,
)
from repro.stream.segmenter import (
    BatchOpened,
    OnlineSegmenterBatch,
    SegmenterConfig,
)

FUZZ_EXAMPLES = int(os.environ.get("FUZZ_EXAMPLES", "6"))

#: One small fleet, shared by every kernel comparison in this file.
CONFIG = FleetConfig(
    n_streams=5,
    utterances_per_stream=1,
    attack_fraction=0.5,
    seed=9,
)


@pytest.fixture(scope="module")
def per_stream_report(stream_detector):
    """The reference: the same fleet, each stream in a group of its
    own."""
    config = FleetConfig(
        n_streams=CONFIG.n_streams,
        utterances_per_stream=CONFIG.utterances_per_stream,
        attack_fraction=CONFIG.attack_fraction,
        seed=CONFIG.seed,
        vectorized=False,
    )
    return FleetSimulator(stream_detector, config).run()


@pytest.fixture(scope="module")
def fleet_inputs():
    """(recordings, recognizer, attack_mask, stream_seqs, rate) for
    CONFIG, synthesised once and streamed many times by the
    properties."""
    attack_mask, trial_seqs, stream_seqs = fleet_seed_plan(CONFIG)
    trial_rngs = [
        np.random.default_rng(child) for child in trial_seqs
    ]
    recordings, recognizer = synthesize_utterances(
        CONFIG.scenario,
        CONFIG.command,
        CONFIG.distance_m,
        trial_rngs,
        attack_mask,
        voice_seed=CONFIG.seed,
    )
    rate = check_fleet_rate(recordings)
    return recordings, recognizer, attack_mask, stream_seqs, rate


class TestKernelDigestParity:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(partition=index_partitions(CONFIG.n_streams))
    def test_any_grouping_matches_the_scalar_digest(
        self, stream_detector, per_stream_report, fleet_inputs, partition
    ):
        """Arbitrary stream-to-group assignment — non-contiguous,
        unordered, any group sizes — merges to the groups-of-one
        digest bitwise."""
        recordings, recognizer, attack_mask, stream_seqs, rate = (
            fleet_inputs
        )
        per = CONFIG.utterances_per_stream
        results = []
        for group in partition:
            results += kernel.drive_stream_group(
                CONFIG,
                stream_detector,
                None,
                [int(pos) for pos in group],
                rate,
                recognizer,
                [
                    recordings[pos * per : (pos + 1) * per]
                    for pos in group
                ],
                [
                    attack_mask[pos * per : (pos + 1) * per]
                    for pos in group
                ],
                [stream_seqs[pos] for pos in group],
            )
        merged = sorted(results, key=lambda result: result.index)
        reference = per_stream_report.digest()
        assert (
            tuple(
                (s.index, s.is_attack, s.duration_s, s.utterances)
                for s in merged
            )
            == reference
        )

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        batch_streams=st.integers(
            min_value=1, max_value=CONFIG.n_streams + 1
        )
    )
    def test_any_batch_streams_matches_the_scalar_digest(
        self, stream_detector, per_stream_report, batch_streams
    ):
        """The public knob: every lockstep group width produces the
        identical fleet digest through the full simulator."""
        config = FleetConfig(
            n_streams=CONFIG.n_streams,
            utterances_per_stream=CONFIG.utterances_per_stream,
            attack_fraction=CONFIG.attack_fraction,
            seed=CONFIG.seed,
            vectorized=True,
            batch_streams=batch_streams,
        )
        report = FleetSimulator(stream_detector, config).run()
        assert report.digest() == per_stream_report.digest()

    def test_multi_utterance_streams_match(self, stream_detector):
        """Two utterances per stream: open/close/reopen boundary
        events inside one lockstep group still match groups of
        one."""
        reports = {}
        for vectorized in (False, True):
            config = FleetConfig(
                n_streams=3,
                utterances_per_stream=2,
                attack_fraction=0.5,
                seed=11,
                vectorized=vectorized,
                batch_streams=2,
            )
            reports[vectorized] = FleetSimulator(
                stream_detector, config
            ).run()
        assert reports[True].digest() == reports[False].digest()

    @pytest.mark.parametrize(
        "scenario, n_streams, shards",
        [
            ("free_field", 8, 1),
            ("random:11", 8, 1),
            ("free_field", 13, 2),
        ],
    )
    def test_s1_fleet_configs_match_per_stream(
        self, stream_detector, scenario, n_streams, shards
    ):
        """S1's quick fleet configs — the free field, a generated
        environment, and a sharded fleet — give the same results as
        groups of one, stream by stream."""
        detector = (
            stream_detector
            if scenario == "free_field"
            else train_detector(scenario, 0, n_trials=2)
        )
        reports = {}
        for vectorized in (True, False):
            config = FleetConfig(
                scenario=scenario,
                n_streams=n_streams,
                utterances_per_stream=1,
                attack_fraction=0.5,
                seed=2,
                shards=shards if vectorized else 1,
                vectorized=vectorized,
            )
            reports[vectorized] = FleetSimulator(detector, config).run()
        kernel_streams = reports[True].streams
        loop_streams = reports[False].streams
        assert len(kernel_streams) == len(loop_streams) == n_streams
        for a, b in zip(kernel_streams, loop_streams):
            assert a == b, f"stream {a.index} differs"


class TestStreamGroup:
    def test_working_set_does_not_grow_with_the_timeline(
        self, stream_detector, stream_probes
    ):
        """The group draws each cycle's block on demand: quadrupling
        the ambient gaps adds megabytes of timeline per stream but
        (almost) nothing to the group's peak traced allocation —
        NumPy reports its buffers to ``tracemalloc``."""
        recordings, recognizer = stream_probes
        rate = check_fleet_rate(recordings)
        n_group = 16
        seqs = np.random.SeedSequence(4).spawn(n_group)
        by_stream = [[recordings[b % 2]] for b in range(n_group)]
        flags = [np.array([b % 2 == 0]) for b in range(n_group)]
        peaks, timeline_bytes = {}, {}
        for gap_s in (6.0, 24.0):
            config = FleetConfig(n_streams=n_group, gap_s=gap_s)
            timeline_bytes[gap_s] = 8 * sum(
                TimelineSource(
                    config, rate, stream, np.random.default_rng(seq)
                ).length
                for stream, seq in zip(by_stream, seqs)
            )
            tracemalloc.start()
            try:
                runs = kernel.drive_stream_group(
                    config,
                    stream_detector,
                    None,
                    list(range(n_group)),
                    rate,
                    recognizer,
                    by_stream,
                    flags,
                    seqs,
                )
                peaks[gap_s] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(runs) == n_group
        extra = timeline_bytes[24.0] - timeline_bytes[6.0]
        assert extra > 30e6
        assert peaks[24.0] - peaks[6.0] < 0.1 * extra

    def test_push_validation(self, stream_detector, stream_probes):
        recordings, recognizer = stream_probes
        rate = check_fleet_rate(recordings)
        group = kernel.StreamGroup(
            stream_detector, None, [0, 1], rate, recognizer, ["Pa", "Pa"]
        )
        block = np.zeros((2, 4))
        with pytest.raises(StreamError):
            group.push(block, [4, 5])  # more real samples than the block
        with pytest.raises(StreamError):
            group.push(block, [4])  # one count per row
        group.push(block, [4, 2])  # row 1 ends
        assert group.lengths.tolist() == [4, 2]
        with pytest.raises(StreamError):
            group.push(block, [4, 1])  # an ended row cannot resume
        group.push(block, [4, 0])
        assert group.flush() == [[], []]
        with pytest.raises(StreamError):
            kernel.StreamGroup(
                stream_detector, None, [0, 1], rate, recognizer, ["Pa"]
            )


    def test_push_returns_the_outcomes_it_closed(
        self, stream_detector, stream_probes
    ):
        """Each verdict comes back from the push whose cycle closed
        the utterance, emitted at the row's length after that push;
        flush returns only what was still open."""
        recordings, recognizer = stream_probes
        rate = check_fleet_rate(recordings)
        rng = np.random.default_rng(3)
        background = 0.1 * recordings[1].rms()
        lead = rng.normal(size=int(0.4 * rate)) * background
        gap = rng.normal(size=int(0.6 * rate)) * background
        timeline = np.concatenate(
            [lead, recordings[0].samples, gap, recordings[1].samples, gap]
        )
        # Row 1 stops right after the second utterance: its close is
        # left to flush.
        cut = len(lead) + recordings[0].n_samples + len(gap)
        cut += recordings[1].n_samples
        group = kernel.StreamGroup(
            stream_detector,
            None,
            [0, 1],
            rate,
            recognizer,
            [recordings[0].unit] * 2,
        )
        chunk = int(0.05 * rate)
        block = np.zeros((2, chunk))
        closed_by_push = [[], []]
        for start in range(0, timeline.shape[0], chunk):
            piece = timeline[start : start + chunk]
            block[0, : piece.shape[0]] = piece
            block[1, : piece.shape[0]] = piece
            real = [piece.shape[0], max(0, min(piece.shape[0], cut - start))]
            outcomes = group.push(block[:, : piece.shape[0]], real)
            assert len(outcomes) == 2
            for row in range(2):
                for outcome in outcomes[row]:
                    assert outcome.emitted_at_sample == group.lengths[row]
                    assert outcome.end_sample <= group.lengths[row]
                    closed_by_push[row].append(outcome)
        flushed = group.flush()
        assert len(closed_by_push[0]) == 2 and flushed[0] == []
        assert len(closed_by_push[1]) == 1 and len(flushed[1]) == 1
        assert flushed[1][0].emitted_at_sample == cut
        # The shared first utterance got the same verdict on both rows.
        assert UtteranceDigest.of(closed_by_push[0][0]) == (
            UtteranceDigest.of(closed_by_push[1][0])
        )

    def test_working_set_does_not_grow_with_the_utterance_count(
        self, stream_detector, stream_probes
    ):
        """Verdicts leave the group as utterances close: eight times
        the utterances per stream add (almost) nothing to the group's
        peak traced allocation, though the extra closed utterances'
        samples alone run to tens of megabytes."""
        recordings, recognizer = stream_probes
        rate = check_fleet_rate(recordings)
        n_group = 16
        seqs = np.random.SeedSequence(5).spawn(n_group)
        peaks, utterance_bytes = {}, {}
        for per in (2, 16):
            config = FleetConfig(n_streams=n_group, utterances_per_stream=per)
            by_stream = [
                [recordings[(b + k) % 2] for k in range(per)]
                for b in range(n_group)
            ]
            flags = [
                np.array([(b + k) % 2 == 0 for k in range(per)])
                for b in range(n_group)
            ]
            utterance_bytes[per] = 8 * sum(
                recording.n_samples for stream in by_stream for recording in stream
            )
            tracemalloc.start()
            try:
                runs = kernel.drive_stream_group(
                    config,
                    stream_detector,
                    None,
                    list(range(n_group)),
                    rate,
                    recognizer,
                    by_stream,
                    flags,
                    seqs,
                )
                peaks[per] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert [len(run.utterances) for run in runs] == [per] * n_group
        extra = utterance_bytes[16] - utterance_bytes[2]
        assert extra > 50e6
        assert peaks[16] - peaks[2] < 0.1 * extra


def _segmenter_events(events):
    """Events as comparable tuples, array fields by value and dtype."""
    flat = []
    for event in events:
        fields = [type(event).__name__, event.frame]
        if isinstance(event, BatchOpened):
            arrays = [event.rows]
            fields.append(event.start_sample)
        else:
            arrays = [
                event.rows, event.start_samples, event.end_samples,
                event.forced,
            ]
        for array in arrays:
            fields.append((array.dtype.str, array.tolist()))
        flat.append(tuple(fields))
    return flat


def _segmenter_state(seg):
    return [
        getattr(seg, name).tolist()
        for name in (
            "_floor", "_seen", "_consecutive", "_open",
            "_start", "_last_voiced",
        )
    ] + [seg._frames_done]


def _row_events(events, row):
    """One row's share of a group's events, row index dropped."""
    out = []
    for event in events:
        hits = np.flatnonzero(event.rows == row)
        if not len(hits):
            continue
        (k,) = hits
        if isinstance(event, BatchOpened):
            out.append(("open", event.frame, event.start_sample))
        else:
            out.append((
                "close",
                event.frame,
                int(event.start_samples[k]),
                int(event.end_samples[k]),
                bool(event.forced[k]),
            ))
    return out


class TestSegmenterInvariants:
    #: Quiet, hysteresis-band and loud levels against an EMA floor
    #: near 1, plus exact zeros (the floor clamp) and arbitrary values.
    LEVELS = st.one_of(
        st.sampled_from([0.0, 1.0, 1.0, 3.0, 10.0, 40.0]),
        st.floats(min_value=0.0, max_value=50.0),
    )

    def draw_case(self, data):
        """Energies, validity (rows that end early) and a gate tuning
        that reaches forced closes and the hysteresis band."""
        n_rows = data.draw(st.integers(min_value=1, max_value=6))
        n_frames = data.draw(st.integers(min_value=1, max_value=80))
        energies = np.array(
            data.draw(
                st.lists(
                    st.lists(
                        self.LEVELS, min_size=n_frames, max_size=n_frames
                    ),
                    min_size=n_rows,
                    max_size=n_rows,
                )
            ),
            dtype=np.float64,
        ).reshape(n_rows, n_frames)
        ends = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n_frames),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
        valid = np.arange(n_frames)[np.newaxis, :] < np.array(ends)[:, np.newaxis]
        config = SegmenterConfig(
            open_frames=data.draw(st.integers(min_value=1, max_value=3)),
            hangover_frames=data.draw(st.integers(min_value=0, max_value=3)),
            close_frames=data.draw(st.integers(min_value=1, max_value=4)),
            max_utterance_s=data.draw(st.sampled_from([0.1, 0.2, 10.0])),
        )
        return energies, valid, config

    @settings(max_examples=FUZZ_EXAMPLES * 5, deadline=None)
    @given(data=st.data())
    def test_any_block_cut_matches_one_call(self, data):
        """Cutting the frames into arbitrary blocks gives the events
        and leaves the state of one uncut ``process_block`` call."""
        energies, valid, config = self.draw_case(data)
        n_rows, n_frames = energies.shape
        cuts = data.draw(
            st.sets(st.integers(min_value=1, max_value=n_frames), max_size=4)
        )
        edges = [0] + sorted(cuts - {n_frames}) + [n_frames]
        whole = OnlineSegmenterBatch(n_rows, 16000.0, config)
        uncut = whole.process_block(0, energies, valid)
        blocked = OnlineSegmenterBatch(n_rows, 16000.0, config)
        cut_events = []
        for lo, hi in zip(edges, edges[1:]):
            cut_events.extend(
                blocked.process_block(
                    lo, energies[:, lo:hi], valid[:, lo:hi]
                )
            )
        assert _segmenter_events(cut_events) == _segmenter_events(uncut)
        assert _segmenter_state(blocked) == _segmenter_state(whole)

    @settings(max_examples=FUZZ_EXAMPLES * 5, deadline=None)
    @given(data=st.data())
    def test_each_row_matches_a_group_of_one(self, data):
        """Rows never exchange information: each row's events and
        state slots equal that row's run as a group of one."""
        energies, valid, config = self.draw_case(data)
        n_rows = energies.shape[0]
        group = OnlineSegmenterBatch(n_rows, 16000.0, config)
        events = group.process_block(0, energies, valid)
        state = _segmenter_state(group)
        for row in range(n_rows):
            alone = OnlineSegmenterBatch(1, 16000.0, config)
            alone_events = alone.process_block(
                0, energies[row : row + 1], valid[row : row + 1]
            )
            assert _row_events(events, row) == _row_events(alone_events, 0)
            alone_state = _segmenter_state(alone)
            assert [slots[row] for slots in state[:-1]] == [
                slots[0] for slots in alone_state[:-1]
            ]
            assert state[-1] == alone_state[-1]


class TestRecognizeMany:
    @staticmethod
    def fields(result):
        return (
            result.accepted,
            result.command,
            result.distance,
            result.distances,
        )

    def test_batch_partition_is_invisible(self, stream_probes):
        """Recognising the probes together equals recognising each one
        alone, field by field, including every command's distance. A
        truncated copy mixes lengths inside the slab."""
        recordings, recognizer = stream_probes
        genuine = recordings[1]
        recordings = list(recordings) + [
            genuine.replace(samples=genuine.samples[: genuine.n_samples // 2])
        ]
        together = recognizer.recognize_many(recordings)
        assert len(together) == len(recordings)
        for recording, result in zip(recordings, together):
            alone = recognizer.recognize_many([recording])[0]
            assert self.fields(result) == self.fields(alone)

    def test_slab_composition_is_invisible(
        self, stream_probes, monkeypatch
    ):
        """A one-pair slab budget forces one DTW slab per recording;
        results are the single-slab ones exactly."""
        recordings, recognizer = stream_probes
        whole = recognizer.recognize_many(recordings)
        monkeypatch.setattr(KeywordRecognizer, "MAX_SLAB_CELLS", 1)
        sliced = recognizer.recognize_many(recordings)
        for a, b in zip(whole, sliced):
            assert self.fields(a) == self.fields(b)


def _random_rows(rows: int, n: int, seed: int = 7) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(rows, n))


class TestBatchRing:
    def test_roundtrip_exact(self):
        ring = ChunkedStreamBatch(3, 16000.0)
        waves = _random_rows(3, 5000)
        ring.push_block(waves[:, :1234])
        ring.push_block(waves[:, 1234:])
        assert ring.head == 5000
        for row in range(3):
            assert np.array_equal(
                ring.read_row(row, 0, 5000), waves[row]
            )

    @given(partition=chunk_partitions(4096, max_parts=7))
    @settings(max_examples=25, deadline=None)
    def test_any_partition_reconstructs(self, partition):
        ring = ChunkedStreamBatch(2, 16000.0)
        waves = _random_rows(2, 4096)
        cursor = 0
        for size in partition:
            ring.push_block(waves[:, cursor : cursor + size])
            cursor += size
        for row in range(2):
            assert np.array_equal(
                ring.read_row(row, 0, 4096), waves[row]
            )

    def test_growth_preserves_retained_rows(self):
        ring = ChunkedStreamBatch(3, 16000.0)
        small = ring.capacity
        waves = _random_rows(3, 4 * small)
        ring.push_block(waves)  # forces at least two doublings
        assert ring.capacity >= 4 * small
        for row in range(3):
            assert np.array_equal(
                ring.read_row(row, 0, waves.shape[1]), waves[row]
            )

    def test_wraparound_after_release(self):
        ring = ChunkedStreamBatch(2, 16000.0)
        capacity = ring.capacity
        first = _random_rows(2, capacity - 10, seed=1)
        ring.push_block(first)
        ring.release(capacity - 10)
        second = _random_rows(2, capacity - 10, seed=2)
        ring.push_block(second)  # wraps inside the same allocation
        assert ring.capacity == capacity
        for row in range(2):
            got = ring.read_row(
                row, capacity - 10, 2 * (capacity - 10)
            )
            assert np.array_equal(got, second[row])

    def test_energies_match_the_scalar_ring_bitwise(self):
        """Row i of the batch ring's frame energies equals a ring of
        one row fed row i's samples — through both the unwrapped-span
        fast path and the wrapped (linearized) path."""
        rate = 16000.0
        rows = 3
        waves = _random_rows(rows, int(1.0 * rate))
        batch = ChunkedStreamBatch(rows, rate)
        singles = [ChunkedStreamBatch(1, rate) for _ in range(rows)]
        batch_energies = []
        single_energies = [[] for _ in range(rows)]
        for start in range(0, waves.shape[1], 333):
            block = waves[:, start : start + 333]
            batch.push_block(block)
            first, energies = batch.pending_frame_energies()
            assert first == len(batch_energies)
            batch_energies.extend(energies.T)
            # Aggressive release forces the ring to wrap well before
            # the stream ends, covering the wrapped span path too.
            keep = batch.frames_emitted * batch.hop
            batch.release(min(keep, batch.head))
            for row, single in enumerate(singles):
                single.push_block(block[row : row + 1])
                _, row_energies = single.pending_frame_energies()
                single_energies[row].extend(row_energies[0])
                single.release(min(keep, single.head))
        stacked = np.asarray(batch_energies).T
        for row in range(rows):
            assert np.array_equal(
                stacked[row], np.asarray(single_energies[row])
            )

    def test_gather_rows_stacks_read_row(self):
        ring = ChunkedStreamBatch(3, 16000.0)
        waves = _random_rows(3, 2000)
        ring.push_block(waves)
        rows = np.array([2, 0, 2])
        starts = np.array([100, 700, 1500])
        slab = ring.gather_rows(rows, starts, 256)
        for j, (row, start) in enumerate(zip(rows, starts)):
            assert np.array_equal(
                slab[j],
                ring.read_row(int(row), int(start), int(start) + 256),
            )

    def test_validation(self):
        ring = ChunkedStreamBatch(2, 16000.0)
        with pytest.raises(StreamError):
            ChunkedStreamBatch(0, 16000.0)
        with pytest.raises(StreamError):
            ring.push_block(np.zeros(5))  # 1-D
        with pytest.raises(StreamError):
            ring.push_block(np.zeros((3, 5)))  # wrong row count
        with pytest.raises(StreamError):
            ring.push_block(np.array([[1.0, np.nan], [0.0, 0.0]]))
        ring.push_block(_random_rows(2, 100))
        ring.release(50)
        with pytest.raises(StreamError):
            ring.read_row(0, 0, 60)  # released
        with pytest.raises(StreamError):
            ring.read_row(0, 50, 101)  # beyond head
        with pytest.raises(StreamError):
            ring.read_row(0, 80, 70)  # inverted
        with pytest.raises(StreamError):
            ring.read_row(2, 50, 60)  # no such row
        with pytest.raises(StreamError):
            ring.release(101)
