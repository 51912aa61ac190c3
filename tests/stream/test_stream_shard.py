"""Sharded fleet: partition invariance, planning and merging.

The core claim of the fleet's sharding is that it is pure plumbing —
*any* partition of the fleet's streams into shards, run through the
per-shard synthesis + streaming loop and merged by the accumulator,
is bitwise identical to the fleet run as one shard. A hypothesis
property pins it over random partitions (non-contiguous, unordered),
a single-shard test pins the inline run
:class:`~repro.stream.fleet.FleetSimulator` makes at ``shards=1``, a
process-pool test pins the real executor path, and unit tests nail
the accumulator's double-count/missing-stream validation.
"""

from __future__ import annotations

import multiprocessing

import pytest
from hypothesis import HealthCheck, given, settings
from strategies import index_partitions

from repro.errors import StreamError
from repro.stream.fleet import (
    FleetConfig,
    FleetSimulator,
    ShardAccumulator,
    ShardResult,
    ShardTask,
    plan_shards,
    run_shard,
)

#: One small fleet, shared by every sharding comparison in this file.
CONFIG = FleetConfig(
    n_streams=4,
    utterances_per_stream=1,
    attack_fraction=0.5,
    seed=9,
)


@pytest.fixture(scope="module")
def unsharded_report(stream_detector):
    """The reference: the same fleet run as one shard."""
    return FleetSimulator(stream_detector, CONFIG).run()


def _dispositions(report):
    return (
        report.n_vetoed,
        report.n_executed,
        report.n_rejected,
        report.n_utterances,
    )


class TestPartitionInvariance:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(partition=index_partitions(CONFIG.n_streams))
    def test_any_partition_merges_to_the_unsharded_digest(
        self, stream_detector, unsharded_report, partition
    ):
        """Arbitrary stream-to-shard assignment — non-contiguous,
        unordered — yields the identical fleet digest and disposition
        counts."""
        accumulator = ShardAccumulator(CONFIG.n_streams)
        tasks = plan_shards(
            stream_detector, CONFIG, partitions=partition
        )
        for task in tasks:
            accumulator.add(run_shard(task))
        merged = accumulator.report(CONFIG)
        assert merged.digest() == unsharded_report.digest()
        assert merged.digest_hex() == unsharded_report.digest_hex()
        assert _dispositions(merged) == _dispositions(
            unsharded_report
        )

    def test_single_shard_simulator_matches(
        self, stream_detector, unsharded_report
    ):
        """shards=1 (the inline degenerate case, no executor) is
        bitwise equal to the one-shard plan run and merged by hand,
        and reports exactly one shard wall clock."""
        accumulator = ShardAccumulator(CONFIG.n_streams)
        (task,) = plan_shards(stream_detector, CONFIG)
        accumulator.add(run_shard(task))
        merged = accumulator.report(CONFIG)
        assert unsharded_report.digest() == merged.digest()
        assert _dispositions(unsharded_report) == _dispositions(merged)
        assert len(unsharded_report.shard_wall_seconds) == 1

    def test_process_pool_matches(
        self, stream_detector, unsharded_report
    ):
        """The real executor path: two worker processes, same digest,
        per-shard wall clocks reported."""
        config = FleetConfig(
            n_streams=4,
            utterances_per_stream=1,
            attack_fraction=0.5,
            seed=9,
            shards=2,
        )
        report = FleetSimulator(stream_detector, config).run()
        assert report.digest() == unsharded_report.digest()
        assert len(report.shard_wall_seconds) == 2
        assert all(w > 0 for w in report.shard_wall_seconds)

    def test_temporary_pool_leaves_no_process_behind(
        self, stream_detector
    ):
        """With no engine given, the fleet owns a pool for the run
        and shuts it down before returning."""
        config = FleetConfig(
            n_streams=4,
            utterances_per_stream=1,
            attack_fraction=0.5,
            seed=9,
            shards=2,
        )
        before = {child.pid for child in multiprocessing.active_children()}
        FleetSimulator(stream_detector, config).run()
        after = {child.pid for child in multiprocessing.active_children()}
        assert after <= before


class TestPlan:
    def test_default_plan_covers_the_fleet(self, stream_detector):
        config = FleetConfig(n_streams=5, seed=3, shards=2)
        tasks = plan_shards(stream_detector, config)
        assert len(tasks) == 2
        covered = sorted(
            index for task in tasks for index in task.stream_indices
        )
        assert covered == list(range(5))

    def test_plan_never_exceeds_streams(self, stream_detector):
        config = FleetConfig(n_streams=2, seed=3, shards=8)
        tasks = plan_shards(stream_detector, config)
        assert len(tasks) == 2  # at most one shard per stream

    def test_task_validation(self, stream_detector):
        tasks = plan_shards(stream_detector, CONFIG)
        task = tasks[0]
        with pytest.raises(StreamError):
            ShardTask(
                config=task.config,
                shard_index=0,
                stream_indices=(),
                stream_seqs=(),
                slot_seqs=(),
                slot_attacks=(),
                detector=task.detector,
                segmenter_config=None,
            )
        with pytest.raises(StreamError):
            ShardTask(
                config=task.config,
                shard_index=0,
                stream_indices=task.stream_indices,
                stream_seqs=task.stream_seqs[:-1],
                slot_seqs=task.slot_seqs,
                slot_attacks=task.slot_attacks,
                detector=task.detector,
                segmenter_config=None,
            )


class TestAccumulator:
    def _result(self, shard_index, streams, rate=48000.0):
        return ShardResult(
            shard_index=shard_index,
            sample_rate=rate,
            streams=streams,
            prepare_seconds=0.1,
            wall_seconds=0.2,
        )

    def test_overlapping_partition_rejected(self, unsharded_report):
        streams = unsharded_report.streams
        accumulator = ShardAccumulator(4)
        accumulator.add(self._result(0, streams[:2]))
        with pytest.raises(StreamError, match="two shards"):
            accumulator.add(self._result(1, streams[1:3]))

    def test_out_of_range_stream_rejected(self, unsharded_report):
        accumulator = ShardAccumulator(2)
        with pytest.raises(StreamError, match="outside"):
            accumulator.add(
                self._result(0, unsharded_report.streams[2:])
            )

    def test_missing_streams_rejected_at_report(
        self, unsharded_report
    ):
        accumulator = ShardAccumulator(4)
        accumulator.add(self._result(0, unsharded_report.streams[:2]))
        with pytest.raises(StreamError, match="missing"):
            accumulator.report(CONFIG)

    def test_rate_mismatch_rejected(self, unsharded_report):
        streams = unsharded_report.streams
        accumulator = ShardAccumulator(4)
        accumulator.add(self._result(0, streams[:2], rate=48000.0))
        with pytest.raises(StreamError, match="device rate"):
            accumulator.add(self._result(1, streams[2:], rate=44100.0))

    def test_merge_is_completion_order_insensitive(
        self, unsharded_report
    ):
        streams = unsharded_report.streams
        accumulator = ShardAccumulator(4)
        accumulator.add(self._result(1, streams[2:]))
        accumulator.add(self._result(0, streams[:2]))
        merged = accumulator.report(CONFIG)
        assert [s.index for s in merged.streams] == [0, 1, 2, 3]
        assert merged.digest() == unsharded_report.digest()
        # wall: slowest shard; per-shard walls in shard order
        assert merged.shard_wall_seconds == (0.2, 0.2)
        assert merged.wall_seconds == 0.2

