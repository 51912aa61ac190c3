"""Fleet simulator: worker-count determinism, report integrity and
the block-by-block timeline source.

The ``FUZZ_EXAMPLES`` environment variable scales the source's
partition property (CI's fuzz job widens it).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import chunk_partitions

from repro.errors import StreamError
from repro.stream.fleet import (
    FleetConfig,
    FleetSimulator,
    TimelineSource,
    assemble_timeline,
)

FUZZ_EXAMPLES = int(os.environ.get("FUZZ_EXAMPLES", "6"))


@pytest.fixture(scope="module")
def fleet_reports(stream_detector):
    """The same small fleet run at several worker counts."""
    reports = {}
    for workers in (1, 3):
        config = FleetConfig(
            n_streams=4,
            utterances_per_stream=2,
            attack_fraction=0.5,
            seed=9,
            workers=workers,
        )
        reports[workers] = FleetSimulator(stream_detector, config).run()
    return reports


class TestDeterminism:
    def test_worker_count_never_changes_results(self, fleet_reports):
        """Verdicts, boundaries and latencies are identical for every
        worker count — threads change wall clock, not science."""
        assert (
            fleet_reports[1].digest() == fleet_reports[3].digest()
        )

    def test_rerun_is_reproducible(self, stream_detector, fleet_reports):
        config = FleetConfig(
            n_streams=4,
            utterances_per_stream=2,
            attack_fraction=0.5,
            seed=9,
            workers=2,
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
