"""Self-tests of the benchmark itself (not of the program).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

import layers
import run
import workloads
from repro.obs.trace import Span, Tracer, activate

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- names and units --------------------------------------------------


def test_every_metric_has_a_valid_name_and_unit():
    names = {}
    names.update(run.END_TO_END)
    names.update(run.FIGURE_UNITS)
    names.update({n: layers.metric_unit(n) for n in layers.metric_names()})
    for name, unit in names.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)
    assert len(layers.metric_names()) == len(set(layers.metric_names()))


def test_benchmark_json_matches_the_reported_metrics():
    spec = benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END
    )
    assert [m["name"] for m in spec["per_layer"]] == layers.metric_names()
    for metric in spec["per_layer"]:
        assert metric["unit"] == layers.metric_unit(metric["name"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


# -- references: a corrupted one is a failure ---------------------------


def test_suite_seed0_is_checked_against_the_goldens(tmp_path, monkeypatch):
    suite = workloads.WORKLOADS["suite"]
    golden = ROOT / "tests" / "golden"
    tables = {
        exp: (golden / f"{exp}.txt").read_text()
        for exp in layers.EXPERIMENT_IDS
    }
    copy = tmp_path / "golden"
    shutil.copytree(golden, copy)
    monkeypatch.setattr(workloads, "GOLDEN_DIR", copy)
    state = {"seed": 0}
    outcome = {"tables": tables, "errors": {}}
    assert suite.check(state, outcome, {"suite": {}})["failed"] == 0
    (copy / "T2.txt").write_text(tables["T2"] + "corrupted\n")
    check = suite.check(state, outcome, {"suite": {}})
    assert check["failed"] == 1 and check["failures"] == ["T2"]


def test_suite_corrupted_digest_is_a_failure():
    suite = workloads.WORKLOADS["suite"]
    tables = {exp: f"table {exp}\n" for exp in layers.EXPERIMENT_IDS}
    digests = {exp: workloads.sha(text) for exp, text in tables.items()}
    state = {"seed": 3}
    outcome = {"tables": tables, "errors": {}}
    assert suite.check(state, outcome, {"suite": {"3": digests}})[
        "failed"
    ] == 0
    digests["F8"] = "0" * 64
    assert suite.check(state, outcome, {"suite": {"3": digests}})[
        "failed"
    ] == 1
    # A seed with no recorded digests fails every experiment.
    assert suite.check(state, outcome, {"suite": {}})["failed"] == 16


def test_suite_experiment_that_raises_is_a_failure():
    suite = workloads.WORKLOADS["suite"]
    outcome = {"tables": {}, "errors": {"F1": "ValueError: boom"}}
    check = suite.check({"seed": 2}, outcome, {"suite": {}})
    assert check["failed"] == 16


def _fake_fleet(n: int):
    utterance = SimpleNamespace(
        start_sample=10, end_sample=20, emitted_at_sample=25,
        accepted=True, command="ok_google", vetoed=False,
        executed_command="ok_google", score=0.25, forced=False,
    )
    streams = [
        SimpleNamespace(index=i, is_attack=(False,), duration_s=7.0,
                        utterances=(utterance,))
        for i in range(n)
    ]
    return SimpleNamespace(
        streams=streams, audio_seconds=7.0 * n, n_utterances=n,
        latencies_s=lambda: [0.25] * n,
    )


def test_fleet_corrupted_digest_is_a_failure(monkeypatch):
    monkeypatch.setattr(workloads, "FLEET_STREAMS", 4)
    fleet = workloads.WORKLOADS["fleet_idle"]
    outcome = {"report": _fake_fleet(4)}
    digests = fleet.record(0, outcome)
    state = {"seed": 0}
    assert fleet.check(state, outcome, {"fleet_idle": {"0": digests}})[
        "failed"
    ] == 0
    digests[2] = "f" * 16
    assert fleet.check(state, outcome, {"fleet_idle": {"0": digests}})[
        "failed"
    ] == 1
    assert fleet.check(state, outcome, {"fleet_idle": {}})["failed"] == 4


def test_guard_verdict_comparison_is_bitwise():
    recognition = SimpleNamespace(
        accepted=True, command="alexa", distance=1.5,
        distances={"alexa": 1.5, "ok_google": 2.0},
    )
    detection = SimpleNamespace(
        is_attack=True, score=0.75, features=[1.0, 2.0]
    )
    online = SimpleNamespace(
        executed_command=None, vetoed=True,
        recognition=recognition, detection=detection,
    )
    assert workloads.outcomes_equal(online, online)
    nudged = SimpleNamespace(**vars(detection))
    nudged.score = 0.75 + 1e-16 * 8
    offline = SimpleNamespace(**vars(online))
    offline.detection = nudged
    assert not workloads.outcomes_equal(online, offline)


def test_references_cover_the_recorded_seeds():
    references = workloads.load_references()
    assert sorted(references["suite"], key=int) == [
        str(s) for s in range(1, workloads.SUITE_SEEDS)
    ]
    assert sorted(references["fleet_idle"], key=int) == [
        str(s) for s in range(workloads.FLEET_SEEDS)
    ]
    for digests in references["fleet_idle"].values():
        assert len(digests) == workloads.FLEET_STREAMS


# -- wrappers ---------------------------------------------------------


def test_install_wraps_every_target_and_restore_undoes_it():
    assert layers.wrapped_targets() == []
    patches = layers.install()
    try:
        assert len(layers.wrapped_targets()) == len(layers.TARGETS)
        assert not layers.unpatched(patches)
        from repro.sim import engine
        from repro.speech import commands

        # A by-name import is patched too, not only the defining module.
        assert hasattr(engine.synthesize_command, layers.MARKER)
        assert hasattr(commands.synthesize_command, layers.MARKER)
    finally:
        layers.restore(patches)
    assert layers.unpatched(patches)
    assert layers.wrapped_targets() == []


def test_wrapper_records_a_span_only_when_tracing():
    from repro.speech import commands

    patches = layers.install()
    try:
        tracer = Tracer()
        commands.synthesize_command("alexa", _rng())  # no tracer: no span
        with activate(tracer):
            with layers.span("measure"):
                voice = commands.synthesize_command("alexa", _rng())
    finally:
        layers.restore(patches)
    assert voice.samples.size > 0
    assert [s.name for s in tracer.spans] == ["speech.voice", "measure"]
    metrics = layers.layer_metrics(tracer.spans)
    assert metrics["speech.voice.calls"] == 1


def _rng():
    import numpy as np

    return np.random.default_rng(0)


# -- span-tree arithmetic ---------------------------------------------


def _span(span_id, name, start, end, parent=None, **attrs):
    return Span(span_id, parent, name, float(start), float(end), attrs)


def test_self_time_busy_time_and_unattributed_share():
    spans = [
        _span(1, "measure", 0, 10),
        _span(2, "experiments.F1", 0, 8, 1),
        _span(3, "speech.recognize", 1, 4, 2),
        _span(4, "speech.recognize", 2, 3, 3),  # nested: counted once
        _span(5, "microphone", 5, 7, 2, mode="batch", trials=3),
        _span(6, "stream-group", 8, 9.5, 1),
        _span(7, "ingest", 8, 9, 6),
        _span(8, "utterance", 9, 9, 6),  # zero-width marker: ignored
    ]
    metrics = layers.layer_metrics(spans)
    assert metrics["speech.recognize.calls"] == 1
    assert metrics["speech.recognize.s"] == 3
    assert metrics["speech.recognize.self_s"] == 3  # 2 outer + 1 inner
    assert metrics["pipeline.stage.microphone.self_s"] == 2
    assert metrics["kernel.stage.ingest.self_s"] == 1
    assert metrics["stream-group.self_s"] == 0.5
    # Dark time: measure 0.5 s + experiments.F1 (8 - 3 - 2) s.
    assert metrics["trace.unattributed_frac"] == pytest.approx(3.5 / 10)


def test_idle_push_median_uses_pushes_without_a_verdict():
    spans = [
        _span(1, "measure", 0, 1),
        _span(2, "guard.push", 0.0, 0.1, 1, verdicts=0),
        _span(3, "guard.push", 0.1, 0.4, 1, verdicts=0),
        _span(4, "guard.push", 0.4, 0.9, 1, verdicts=1),
    ]
    metrics = layers.layer_metrics(spans)
    assert metrics["guard.push.calls"] == 3
    assert metrics["guard.push_idle.p50_us"] == pytest.approx(2e5)
