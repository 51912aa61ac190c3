"""Observability in the streaming stack: inert, complete, merged.

Three contracts from the ``repro.obs`` integration:

* **bitwise inertness** — running a fleet under an active tracer
  produces the identical digest to an untraced run, in wide groups
  and in groups of one, and the trace's decision markers agree with
  the report's reject/veto/execute counts;
* **completeness** — the trace carries every stream-kernel stage and
  one utterance marker per segmented utterance;
* **shard-boundary attribution** — the shards cross the one process
  boundary, :meth:`~repro.sim.engine.ExperimentEngine.map`; spans
  recorded inside pool-worker shards come home through it and merge
  under the coordinator's ``fleet`` span with non-overlapping ids and
  intact nesting.
"""

from __future__ import annotations

import pytest

from repro.obs.trace import Tracer, activate
from repro.sim.engine import ExperimentEngine, _traced_call
from repro.sim.pipeline import StageProfile
from repro.stream.fleet import (
    FleetConfig,
    FleetSimulator,
    ShardAccumulator,
    ShardResult,
    plan_shards,
    run_shard,
)

KERNEL_STAGES = {
    "assemble", "ingest", "segment", "close", "welch",
    "recognize", "detect",
}


def small_config(**overrides) -> FleetConfig:
    defaults = dict(
        n_streams=2,
        utterances_per_stream=2,
        attack_fraction=0.5,
        seed=9,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def spans_by_name(spans):
    index = {}
    for span in spans:
        index.setdefault(span.name, []).append(span)
    return index


@pytest.fixture(scope="module")
def untraced_digest(stream_detector):
    return (
        FleetSimulator(stream_detector, small_config()).run().digest()
    )


class TestBitwiseInertness:
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_tracing_never_changes_the_fleet_digest(
        self, stream_detector, untraced_digest, vectorized
    ):
        tracer = Tracer()
        config = small_config(vectorized=vectorized)
        with activate(tracer):
            report = FleetSimulator(stream_detector, config).run()
        assert report.digest() == untraced_digest
        # The trace alone yields the report's decision counts: each
        # utterance marker carries accepted/vetoed, and executed is
        # accepted and not vetoed.
        markers = [
            span.attrs
            for span in tracer.spans
            if span.name == "utterance"
        ]
        assert len(markers) == report.n_utterances == 4
        assert (
            sum(not m["accepted"] for m in markers),
            sum(m["vetoed"] for m in markers),
            sum(m["accepted"] and not m["vetoed"] for m in markers),
        ) == (report.n_rejected, report.n_vetoed, report.n_executed)

    def test_sharded_run_matches_untraced_unsharded(
        self, stream_detector, untraced_digest
    ):
        tracer = Tracer()
        config = small_config(shards=2)
        with activate(tracer):
            report = FleetSimulator(stream_detector, config).run()
        assert report.digest() == untraced_digest


class TestCompleteness:
    def test_trace_covers_every_kernel_stage_and_utterance(
        self, stream_detector
    ):
        tracer = Tracer()
        with activate(tracer):
            report = FleetSimulator(
                stream_detector, small_config()
            ).run()
        names = spans_by_name(tracer.spans)
        roots = [span for span in tracer.spans if span.parent_id is None]
        assert [(root.name, root.attrs["shards"]) for root in roots] == [
            ("fleet", 1)
        ]
        assert KERNEL_STAGES <= set(names)
        utterances = names["utterance"]
        assert len(utterances) == report.n_utterances
        latencies = sorted(
            span.attrs["latency_s"] for span in utterances
        )
        assert latencies == sorted(report.latencies_s())
        assert {span.attrs["stream"] for span in utterances} == {0, 1}

    def test_stage_profile_folds_each_group_into_one_call(
        self, stream_detector
    ):
        # Three streams in groups of two: two groups, 2 + 1 streams.
        tracer = Tracer()
        with activate(tracer):
            FleetSimulator(
                stream_detector,
                small_config(n_streams=3, batch_streams=2),
            ).run()
        rows = [
            row
            for row in StageProfile.from_spans(tracer.spans).as_rows()
            if row["mode"] == "stream"
        ]
        assert [row["stage"] for row in rows] == [
            "assemble", "ingest", "segment", "close", "welch",
            "recognize", "detect",
        ]
        groups = {
            span.span_id
            for span in tracer.spans
            if span.name == "stream-group"
        }
        children = [
            span
            for span in tracer.spans
            if span.parent_id in groups and span.name != "utterance"
        ]
        assert sum(row["seconds"] for row in rows) == pytest.approx(
            sum(span.duration_s for span in children)
        )
        for row in rows:
            assert (row["calls"], row["trials"]) == (2, 3)

    def test_scalar_path_emits_stream_and_utterance_spans(
        self, stream_detector
    ):
        """With ``vectorized=False`` every stream runs in a group of
        its own: one ``stream-group`` span per stream, and each
        utterance marker sits under its own stream's group span."""
        tracer = Tracer()
        with activate(tracer):
            report = FleetSimulator(
                stream_detector, small_config(vectorized=False)
            ).run()
        names = spans_by_name(tracer.spans)
        groups = names["stream-group"]
        assert [span.attrs["streams"] for span in groups] == [1, 1]
        group_ids = {span.span_id for span in groups}
        by_group = {}
        for utterance in names["utterance"]:
            assert utterance.parent_id in group_ids
            by_group.setdefault(utterance.parent_id, set()).add(
                utterance.attrs["stream"]
            )
        assert sorted(by_group.values(), key=min) == [{0}, {1}]
        assert len(names["utterance"]) == report.n_utterances


class TestShardBoundary:
    def test_untraced_task_ships_no_spans(
        self, stream_detector, untraced_digest
    ):
        """With no tracer the pool runs ``run_shard`` itself: bare
        shard results come home and merge to the inline digest."""
        config = small_config(shards=2)
        tasks = plan_shards(stream_detector, config)
        with ExperimentEngine(jobs=2) as engine:
            results = engine.map(run_shard, tasks)
        assert all(type(result) is ShardResult for result in results)
        accumulator = ShardAccumulator(config.n_streams)
        for result in results:
            accumulator.add(result)
        assert accumulator.report(config).digest() == untraced_digest

    def test_traced_task_ships_its_spans_home(self, stream_detector):
        """The pool side of a traced map: the shard runs under a
        worker-local tracer and its spans travel with the result."""
        task = plan_shards(stream_detector, small_config())[0]
        result, spans = _traced_call(run_shard, task)
        assert isinstance(result, ShardResult)
        names = spans_by_name(spans)
        shard_span = names["shard"][0]
        assert shard_span.parent_id is None
        assert shard_span.attrs == {"shard": 0, "streams": 2}
        assert "synthesize" in names
        assert KERNEL_STAGES <= set(names)

    def test_pool_worker_spans_merge_under_the_coordinator(
        self, stream_detector
    ):
        """Two real pool processes; their locally-rooted spans arrive
        re-based with fresh, non-overlapping ids, shard spans under
        the one ``fleet`` root, kernel stages under their own shard."""
        tracer = Tracer()
        config = small_config(shards=2)
        with activate(tracer):
            report = FleetSimulator(stream_detector, config).run()
        spans = tracer.spans
        assert len({span.span_id for span in spans}) == len(spans)
        names = spans_by_name(spans)
        [fleet] = names["fleet"]
        assert fleet.parent_id is None
        assert fleet.attrs["shards"] == 2
        shards = names["shard"]
        assert sorted(s.attrs["shard"] for s in shards) == [0, 1]
        assert {s.parent_id for s in shards} == {fleet.span_id}
        shard_ids = {s.span_id for s in shards}
        for name in ("synthesize", "stream-group"):
            for span in names[name]:
                assert span.parent_id in shard_ids
        utterances = names["utterance"]
        assert len(utterances) == report.n_utterances
