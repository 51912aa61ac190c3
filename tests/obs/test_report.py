"""The reporter: stage tree, latency percentiles, breakdowns, CLI."""

from __future__ import annotations

import json

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.report import (
    render_report,
    render_stage_tree,
    summarize,
)
from repro.obs.trace import Tracer, read_trace


def synthetic_trace() -> Tracer:
    """A miniature two-shard trace with utterance latency markers."""
    tracer = Tracer()
    with tracer.span("experiment", experiment="S1"):
        with tracer.span("fleet", shards=2):
            for shard in range(2):
                with tracer.span(
                    "shard", shard=shard, streams=2
                ) as shard_id:
                    tracer.record(
                        "welch", 0.0, 0.25, parent_id=shard_id
                    )
                    for stream in range(2):
                        tracer.record(
                            "utterance",
                            0.5,
                            0.5,
                            parent_id=shard_id,
                            stream=2 * shard + stream,
                            latency_s=0.1 * (2 * shard + stream + 1),
                        )
    return tracer


class TestStageTree:
    def test_same_named_siblings_aggregate(self):
        tree = render_stage_tree(synthetic_trace().spans)
        # Two shard spans collapse into one aggregated row.
        assert tree.count("shard ") == 1
        assert "2x" in tree

    def test_empty_trace_renders_placeholder(self):
        assert render_stage_tree([]) == "(empty trace)"

    def test_orphan_parents_render_as_roots(self):
        tracer = Tracer()
        tracer.record("lonely", 0.0, 1.0, parent_id=999)
        assert "lonely" in render_stage_tree(tracer.spans)


class TestReport:
    def test_all_sections_render(self):
        report = render_report(synthetic_trace().spans)
        assert "== stage tree" in report
        assert "== stream-time detection latency" in report
        assert "== shards" in report
        assert "== streams" in report
        for label in ("p50", "p90", "p99", "p99.9"):
            assert label in report

    def test_latency_section_absent_without_utterances(self):
        tracer = Tracer()
        tracer.record("stage", 0.0, 1.0)
        report = render_report(tracer.spans)
        assert "detection latency" not in report


class TestSummary:
    def test_summary_structure(self):
        summary = summarize(synthetic_trace().spans)
        assert summary["schema_version"] == 1
        assert summary["span_count"] == 10
        assert summary["spans_by_name"]["utterance"]["count"] == 4
        latency = summary["utterance_latency_s"]
        assert latency["count"] == 4
        assert latency["max"] == 0.4
        assert len(summary["shards"]) == 2
        assert summary["shards"][0]["shard"] == 0


class TestCli:
    def test_report_command(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        synthetic_trace().write_jsonl(trace_path)
        json_path = tmp_path / "summary.json"
        code = obs_main(
            ["report", str(trace_path), "--json", str(json_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "== stage tree" in out
        assert "p99.9" in out
        payload = json.loads(json_path.read_text())
        assert payload["span_count"] == 10

    def test_missing_trace_is_a_clean_error(self, tmp_path, capsys):
        code = obs_main(["report", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_empty_trace_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        code = obs_main(["report", str(path)])
        assert code == 2
        assert "no spans" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "[1, 2]",
            '{"span_id": 1, "parent_id": null, "name": "a", '
            '"start_s": 0, "end_s": 1, "attrs": 5}',
            '{"span_id": null, "parent_id": null, "name": "a", '
            '"start_s": 0, "end_s": 1}',
        ],
    )
    def test_wrongly_shaped_span_is_a_clean_error(
        self, tmp_path, capsys, line
    ):
        """Well-formed JSON that is not a span: read_trace names the
        file and line, and the CLI exits 2 with one error line."""
        path = tmp_path / "bad.jsonl"
        good = '{"span_id": 1, "name": "ok", "start_s": 0, "end_s": 1}'
        path.write_text(f"{good}\n{line}\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl, line 2"):
            read_trace(path)
        assert obs_main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ")
        assert len(err.splitlines()) == 1

    def test_unwritable_json_path_fails_before_rendering(
        self, tmp_path, capsys
    ):
        trace_path = tmp_path / "trace.jsonl"
        synthetic_trace().write_jsonl(trace_path)
        json_path = tmp_path / "missing" / "s.json"
        code = obs_main(["report", str(trace_path), "--json", str(json_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot write {json_path}: no such directory: "
            f"{json_path.parent}\n"
        )
