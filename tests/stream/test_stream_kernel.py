"""Structure-of-arrays fleet kernel: digest parity and ring units.

The kernel's contract (:mod:`repro.stream.kernel`) is that grouping
streams into lockstep batches is pure plumbing — every per-stream
digest is bitwise the scalar :func:`~repro.stream.fleet.drive_stream`
loop's, for *any* grouping of streams into kernel batches. A
hypothesis property pins it over arbitrary partitions (non-contiguous,
unordered — strictly wider than the contiguous ``batch_streams``
splits production uses), a second property walks the public
``batch_streams`` knob itself, and unit tests nail the shared ring
(:class:`~repro.stream.chunker.ChunkedStreamBatch`): exact
reconstruction, doubling growth, wraparound reuse and the
row-for-row frame-energy equivalence with the scalar ring.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from strategies import chunk_partitions, index_partitions

from repro.errors import StreamError
from repro.experiments.s1_streaming import train_detector
from repro.speech.recognizer import KeywordRecognizer
from repro.stream import kernel
from repro.stream.chunker import ChunkedStream, ChunkedStreamBatch
from repro.stream.fleet import (
    FleetConfig,
    FleetSimulator,
    check_fleet_rate,
    fleet_seed_plan,
    synthesize_utterances,
)
from repro.stream.shard import ShardedFleetSimulator

#: One small fleet, shared by every kernel comparison in this file.
CONFIG = FleetConfig(
    n_streams=5,
    utterances_per_stream=1,
    attack_fraction=0.5,
    seed=9,
    workers=1,
)


@pytest.fixture(scope="module")
def scalar_report(stream_detector):
    """The reference: the same fleet through the scalar loop."""
    config = FleetConfig(
        n_streams=CONFIG.n_streams,
        utterances_per_stream=CONFIG.utterances_per_stream,
        attack_fraction=CONFIG.attack_fraction,
        seed=CONFIG.seed,
        workers=CONFIG.workers,
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
        self, stream_detector, scalar_report, fleet_inputs, partition
    ):
        """Arbitrary stream-to-group assignment — non-contiguous,
        unordered, any group sizes — merges to the scalar loop's
        digest bitwise."""
        recordings, recognizer, attack_mask, stream_seqs, rate = (
            fleet_inputs
        )
        per = CONFIG.utterances_per_stream
        raw_runs = []
        for group in partition:
            runs, _ = kernel.drive_stream_group(
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
            raw_runs.extend(runs)
        merged = [
            raw.commit()
            for raw in sorted(raw_runs, key=lambda raw: raw.index)
        ]
        reference = scalar_report.digest()
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
        self, stream_detector, scalar_report, batch_streams
    ):
        """The public knob: every lockstep group width produces the
        identical fleet digest through the full simulator."""
        config = FleetConfig(
            n_streams=CONFIG.n_streams,
            utterances_per_stream=CONFIG.utterances_per_stream,
            attack_fraction=CONFIG.attack_fraction,
            seed=CONFIG.seed,
            workers=CONFIG.workers,
            vectorized=True,
            batch_streams=batch_streams,
        )
        report = FleetSimulator(stream_detector, config).run()
        assert report.digest() == scalar_report.digest()

    def test_multi_utterance_streams_match(self, stream_detector):
        """Two utterances per stream: open/close/reopen boundary
        events inside one lockstep group still match the scalar
        loop."""
        reports = {}
        for vectorized in (False, True):
            config = FleetConfig(
                n_streams=3,
                utterances_per_stream=2,
                attack_fraction=0.5,
                seed=11,
                workers=1,
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
        environment, and a sharded fleet — give the per-stream loop's
        results stream by stream."""
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
                workers=2,
                shards=shards if vectorized else 1,
                vectorized=vectorized,
            )
            simulator = (
                ShardedFleetSimulator if config.shards > 1 else FleetSimulator
            )
            reports[vectorized] = simulator(detector, config).run()
        kernel_streams = reports[True].streams
        loop_streams = reports[False].streams
        assert len(kernel_streams) == len(loop_streams) == n_streams
        for a, b in zip(kernel_streams, loop_streams):
            assert a == b, f"stream {a.index} differs"


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
        monkeypatch.setattr(KeywordRecognizer, "MAX_PAIRS", 1)
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
        """Row i of the batch ring's frame energies equals the scalar
        ring's for row i's samples — through both the unwrapped-span
        fast path and the wrapped (linearized) path."""
        rate = 16000.0
        rows = 3
        waves = _random_rows(rows, int(1.0 * rate))
        batch = ChunkedStreamBatch(rows, rate)
        scalars = [ChunkedStream(rate) for _ in range(rows)]
        batch_energies = []
        scalar_energies = [[] for _ in range(rows)]
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
            for row in range(rows):
                scalars[row].push(block[row])
                _, row_energies = scalars[row].pending_frame_energies()
                scalar_energies[row].extend(row_energies)
                scalars[row].release(
                    min(keep, scalars[row].head)
                )
        stacked = np.asarray(batch_energies).T
        for row in range(rows):
            assert np.array_equal(
                stacked[row], np.asarray(scalar_energies[row])
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
