"""Fleet simulator: shard-count determinism, report integrity, wall
accounting and the block-by-block timeline source.

The ``FUZZ_EXAMPLES`` environment variable scales the source's
partition property (CI's fuzz job widens it).
"""

from __future__ import annotations

import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import chunk_partitions

from repro.errors import StreamError
from repro.obs.trace import Tracer, activate
from repro.stream.fleet import (
    FleetConfig,
    FleetSimulator,
    TimelineSource,
    assemble_timeline,
)

FUZZ_EXAMPLES = int(os.environ.get("FUZZ_EXAMPLES", "6"))


@pytest.fixture(scope="module")
def fleet_reports(stream_detector):
    """The same small fleet run at several shard counts."""
    reports = {}
    for shards in (1, 3):
        config = FleetConfig(
            n_streams=4,
            utterances_per_stream=2,
            attack_fraction=0.5,
            seed=9,
            shards=shards,
        )
        reports[shards] = FleetSimulator(stream_detector, config).run()
    return reports


class TestDeterminism:
    def test_worker_count_never_changes_results(self, fleet_reports):
        """Verdicts, boundaries and latencies are identical for every
        worker-process (shard) count — processes change wall clock,
        not science."""
        assert (
            fleet_reports[1].digest() == fleet_reports[3].digest()
        )

    def test_rerun_is_reproducible(self, stream_detector, fleet_reports):
        config = FleetConfig(
            n_streams=4,
            utterances_per_stream=2,
            attack_fraction=0.5,
            seed=9,
        )
        again = FleetSimulator(stream_detector, config).run()
        assert again.digest() == fleet_reports[1].digest()


class TestReport:
    def test_every_utterance_is_segmented(self, fleet_reports):
        report = fleet_reports[1]
        assert report.n_utterances == 4 * 2
        for stream in report.streams:
            assert len(stream.utterances) == 2
            assert len(stream.is_attack) == 2

    def test_dispositions_partition_the_utterances(self, fleet_reports):
        report = fleet_reports[1]
        assert (
            report.n_vetoed + report.n_executed + report.n_rejected
            == report.n_utterances
        )

    def test_latencies_are_positive_and_bounded(self, fleet_reports):
        report = fleet_reports[1]
        latencies = report.latencies_s()
        assert len(latencies) == report.n_utterances
        # Close horizon (hangover 8 + close 15 frames = 230 ms) plus
        # chunk granularity; generous upper bound for drift.
        assert all(0.0 < latency < 1.0 for latency in latencies)

    def test_stream_time_accounting(self, fleet_reports):
        report = fleet_reports[1]
        assert report.audio_seconds > 0
        for stream in report.streams:
            for utterance in stream.utterances:
                assert (
                    0
                    <= utterance.start_sample
                    < utterance.end_sample
                    <= utterance.emitted_at_sample
                )

    def test_detection_separates_classes(self, fleet_reports):
        """Attack slots veto (or fail recognition); genuine execute.

        This is the end-to-end claim of the fleet: online
        segmentation plus incremental features reproduce the
        defense's discrimination, not just its plumbing."""
        report = fleet_reports[1]
        for stream in report.streams:
            for is_attack, utterance in zip(
                stream.is_attack, stream.utterances
            ):
                if is_attack:
                    assert utterance.executed_command is None
                else:
                    assert not utterance.vetoed


class TestWallAccounting:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_wall_seconds_is_inside_the_outer_wall(
        self, stream_detector, shards
    ):
        """The headline wall is the streaming phase's own wall clock:
        positive, and never more than a wall timed around the whole
        run, whatever the shard count (groups of one, long idle gaps,
        so timeline draws are a large share of every group's time)."""
        config = FleetConfig(
            n_streams=4,
            utterances_per_stream=1,
            gap_s=10.0,
            seed=9,
            shards=shards,
            batch_streams=1,
        )
        started = time.perf_counter()
        report = FleetSimulator(stream_detector, config).run()
        outer = time.perf_counter() - started
        assert 0 < report.wall_seconds <= outer
        assert 0 < report.prepare_seconds <= outer
        assert len(report.shard_wall_seconds) == shards
        if shards == 1:
            assert report.wall_seconds + report.prepare_seconds <= outer


def _table(report):
    """What the S1 table prints of a fleet: dispositions, latency
    statistics and the digest."""
    stats = report.latency_stats()
    return (
        report.n_vetoed,
        report.n_executed,
        report.n_rejected,
        stats.mean,
        stats.quantile(0.5),
        stats.quantile(0.99),
        stats.max,
        report.digest_hex(),
    )


class TestStreamBlocks:
    def test_block_width_and_shard_count_never_change_results(
        self, stream_detector
    ):
        """Each shard synthesises and streams one block of
        ``batch_streams`` streams at a time; blocks of one, uneven
        blocks and one whole-fleet block, over 1, 2 and 4 shards, all
        give the same digest and table."""
        n_streams = 5
        reports = {}
        for batch_streams in (1, 3, n_streams):
            for shards in (1, 2, 4):
                config = FleetConfig(
                    n_streams=n_streams,
                    utterances_per_stream=2,
                    seed=13,
                    shards=shards,
                    batch_streams=batch_streams,
                )
                reports[batch_streams, shards] = FleetSimulator(
                    stream_detector, config
                ).run()
        reference = reports[n_streams, 1]
        for key, report in reports.items():
            assert report.digest() == reference.digest(), key
            assert _table(report) == _table(reference), key

    def test_one_synthesis_per_block(self, stream_detector):
        """A shard's synthesis spans are its blocks, in order."""
        config = FleetConfig(
            n_streams=5, utterances_per_stream=2, seed=13, batch_streams=2
        )
        tracer = Tracer()
        with activate(tracer):
            FleetSimulator(stream_detector, config).run()
        assert [
            span.attrs["slots"]
            for span in tracer.spans
            if span.name == "synthesize"
        ] == [4, 4, 2]

    def test_working_set_does_not_grow_with_the_fleet(
        self, stream_detector, stream_probes
    ):
        """At a fixed block width, 8 blocks peak no higher than 2:
        only one block's recordings and synthesis stacks are alive at
        a time, so twelve more streams' recordings add (almost)
        nothing to the run's peak traced allocation."""

        def config(n_streams):
            return FleetConfig(n_streams=n_streams, seed=5, batch_streams=2)

        # Fill the process caches (voice, emissions, device, contexts).
        FleetSimulator(stream_detector, config(2)).run()
        peaks = {}
        for n_streams in (4, 16):
            tracemalloc.start()
            try:
                report = FleetSimulator(
                    stream_detector, config(n_streams)
                ).run()
                peaks[n_streams] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(report.streams) == n_streams
        recordings, _ = stream_probes
        extra = 12 * recordings[0].samples.nbytes
        assert peaks[16] - peaks[4] < 0.25 * extra


class TestConfigValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(StreamError):
            FleetConfig(n_streams=0)
        with pytest.raises(StreamError):
            FleetConfig(attack_fraction=1.5)
        with pytest.raises(StreamError):
            FleetConfig(chunk_s=0.0)
        with pytest.raises(StreamError):
            FleetConfig(background_ratio=0.0)
        with pytest.raises(StreamError):
            FleetConfig(workers=0)
        # workers survives only as the constant 1: the fleet's one
        # parallelism is shards.
        with pytest.raises(StreamError, match="shards"):
            FleetConfig(workers=2)
        with pytest.raises(StreamError):
            FleetConfig(shards=0)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(Exception):
            FleetConfig(scenario="no_such_place")


def reference_timeline(config, rate, recordings, rng):
    """The timeline written out whole: lead-in noise, then each
    recording followed by its gap noise, all from one generator."""
    mean_rms = float(np.mean([r.rms() for r in recordings]))
    background = config.background_ratio * max(mean_rms, 1e-12)
    pieces = [
        rng.normal(0.0, 1.0, int(round(config.lead_in_s * rate)))
        * background
    ]
    for recording in recordings:
        pieces.append(recording.samples)
        pieces.append(
            rng.normal(0.0, 1.0, int(round(config.gap_s * rate)))
            * background
        )
    return np.concatenate(pieces)


class TestTimelineSource:
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    @given(
        lead_in_s=st.sampled_from([0.0, 0.013, 0.4]),
        gap_s=st.sampled_from([0.0, 0.021, 0.5]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    def test_any_block_partition_concatenates_to_the_timeline(
        self, stream_probes, lead_in_s, gap_s, seed, data
    ):
        """Reading the source in any blocks — across ambient pieces,
        recordings and zero-length gaps — gives the inline reference
        bitwise, and so does ``assemble_timeline``."""
        recordings, _ = stream_probes
        rate = recordings[0].sample_rate
        config = FleetConfig(lead_in_s=lead_in_s, gap_s=gap_s)
        reference = reference_timeline(
            config, rate, recordings, np.random.default_rng(seed)
        )
        whole = assemble_timeline(
            config, rate, recordings, np.random.default_rng(seed)
        )
        assert np.array_equal(whole, reference)

        source = TimelineSource(
            config, rate, recordings, np.random.default_rng(seed)
        )
        assert source.length == reference.shape[0]
        blocks = [
            source.read(size)
            for size in data.draw(
                chunk_partitions(source.length, max_parts=12)
            )
        ]
        assert source.position == source.length
        assert source.read(7).shape == (0,)
        assert np.array_equal(np.concatenate(blocks), reference)
