"""Span tracing: nesting, adoption, serialization, the ambient hook.

The structural contracts the instrumented layers lean on:

* ``span()`` context managers nest through a per-thread stack, so a
  stage recorded inside an open span lands under it without explicit
  parent plumbing;
* ``adopt()`` re-bases a worker tracer's spans with fresh ids — the
  merge step that keeps multi-shard traces one consistent tree with
  non-overlapping span ids;
* ``attached()`` carries a parent across threads (the fleet's thread
  pool dispatch);
* JSONL round-trips bit-exactly enough for the reporter.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs.trace import (
    Span,
    Tracer,
    activate,
    current_tracer,
    maybe_span,
    read_trace,
    tracing_active,
)


def by_name(spans, name):
    return [span for span in spans if span.name == name]


class TestNesting:
    def test_context_manager_spans_nest(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.record("leaf", 0.0, 1.0, n=3)
        spans = tracer.spans
        outer = by_name(spans, "outer")[0]
        inner = by_name(spans, "inner")[0]
        leaf = by_name(spans, "leaf")[0]
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert leaf.parent_id == inner.span_id
        assert leaf.attrs == {"n": 3}
        assert inner.start_s <= inner.end_s
        assert outer.start_s <= inner.start_s

    def test_explicit_parent_and_preallocated_id(self):
        tracer = Tracer()
        group_id = tracer.new_id()
        child = tracer.record("child", 0.0, 1.0, parent_id=group_id)
        group = tracer.record(
            "group", 0.0, 2.0, parent_id=None, span_id=group_id
        )
        assert child.parent_id == group.span_id == group_id
        assert len({span.span_id for span in tracer.spans}) == 2

    def test_attached_carries_a_parent_across_threads(self):
        tracer = Tracer()
        recorded = []

        def worker(parent_id):
            with tracer.attached(parent_id):
                recorded.append(tracer.record("work", 0.0, 1.0))

        with tracer.span("dispatch") as dispatch_id:
            thread = threading.Thread(target=worker, args=(dispatch_id,))
            thread.start()
            thread.join()
        assert recorded[0].parent_id == dispatch_id

    def test_annotate_adds_attributes_to_an_open_span(self):
        tracer = Tracer()
        with tracer.span("experiment", experiment="F3") as span_id:
            tracer.annotate(span_id, cache_misses=2)
        (span,) = tracer.spans
        assert span.attrs == {"experiment": "F3", "cache_misses": 2}
        with pytest.raises(KeyError):
            tracer.annotate(span_id, late=True)  # already closed

    def test_thread_stacks_are_independent(self):
        tracer = Tracer()
        seen = {}

        def worker():
            seen["parent"] = tracer.current_parent()

        with tracer.span("outer"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["parent"] is None


class TestAdoption:
    def test_adopt_rebases_ids_and_preserves_structure(self):
        worker = Tracer()
        with worker.span("shard", shard=1):
            worker.record("stage", 0.0, 1.0)
        parent = Tracer()
        with parent.span("fleet") as fleet_id:
            adopted = parent.adopt(worker.spans, parent_id=fleet_id)
        merged = parent.spans
        # Fresh, non-overlapping ids across the merged trace.
        assert len({span.span_id for span in merged}) == len(merged)
        shard = by_name(adopted, "shard")[0]
        stage = by_name(adopted, "stage")[0]
        assert shard.parent_id == fleet_id
        assert stage.parent_id == shard.span_id
        assert shard.attrs == {"shard": 1}

    def test_two_workers_with_colliding_ids_merge_cleanly(self):
        workers = []
        for shard in range(2):
            worker = Tracer()
            with worker.span("shard", shard=shard):
                worker.record("stage", 0.0, 1.0)
            workers.append(worker)
        # Both worker tracers allocated the same local ids.
        assert {s.span_id for s in workers[0].spans} == {
            s.span_id for s in workers[1].spans
        }
        parent = Tracer()
        with parent.span("fleet") as fleet_id:
            for worker in workers:
                parent.adopt(worker.spans, parent_id=fleet_id)
        merged = parent.spans
        assert len({span.span_id for span in merged}) == len(merged)
        shards = by_name(merged, "shard")
        assert sorted(s.attrs["shard"] for s in shards) == [0, 1]
        for stage in by_name(merged, "stage"):
            assert stage.parent_id in {s.span_id for s in shards}

    def test_adoption_inherits_the_open_span_by_default(self):
        worker = Tracer()
        worker.record("w", 0.0, 1.0, parent_id=None)
        parent = Tracer()
        with parent.span("root") as root_id:
            adopted = parent.adopt(worker.spans)
        assert adopted[0].parent_id == root_id


class TestSerialization:
    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", kind="test"):
            tracer.record("leaf", 1.25, 2.5, stream=4, latency_s=0.27)
        path = tmp_path / "trace.jsonl"
        assert tracer.write_jsonl(path) == 2
        loaded = read_trace(path)
        assert loaded == tracer.spans
        leaf = by_name(loaded, "leaf")[0]
        assert leaf.attrs["latency_s"] == 0.27
        assert leaf.duration_s == 1.25

    def test_span_dict_roundtrip_without_attrs(self):
        span = Span(1, None, "s", 0.0, 1.0)
        row = span.as_dict()
        assert "attrs" not in row
        assert Span.from_dict(row) == span


class TestAmbientHook:
    def test_inactive_by_default(self):
        assert current_tracer() is None
        assert not tracing_active()

    def test_activate_scopes_and_restores(self):
        tracer = Tracer()
        with activate(tracer):
            assert current_tracer() is tracer
            inner = Tracer()
            with activate(inner):
                assert current_tracer() is inner
            assert current_tracer() is tracer
        assert current_tracer() is None

    def test_maybe_span_is_a_noop_when_inactive(self):
        with maybe_span("anything") as span_id:
            assert span_id is None

    def test_maybe_span_records_when_active(self):
        tracer = Tracer()
        before = time.perf_counter()
        with activate(tracer):
            with maybe_span("block", n=1) as span_id:
                assert isinstance(span_id, int)
        block = tracer.spans[0]
        assert block.name == "block"
        assert block.span_id == span_id
        assert block.start_s >= before


class TestPoolWorkerIsolation:
    def test_worker_spans_survive_pickling(self):
        import pickle

        tracer = Tracer()
        with tracer.span("shard", shard=0):
            tracer.record("stage", 0.0, 1.0, trials=2)
        assert pickle.loads(pickle.dumps(tracer.spans)) == tracer.spans


@pytest.mark.parametrize("bad", ["not json at all"])
def test_read_trace_rejects_garbage(tmp_path, bad):
    path = tmp_path / "trace.jsonl"
    path.write_text(bad + "\n")
    with pytest.raises(ValueError):
        read_trace(path)
