"""Per-stage profiling and the stacked recognise stage.

Two contracts of the trial pipeline's executor:

* **profiling comes from spans** — a run under a
  :class:`~repro.obs.trace.Tracer` records one span per stage call,
  and :meth:`~repro.sim.pipeline.StageProfile.from_spans` attributes
  wall time to every named stage;
* **batched recognition is the scalar one** — the recognise stage's
  stacked sweep gives every trial bitwise the command and DTW
  distance :meth:`~repro.speech.recognizer.KeywordRecognizer.recognize`
  gives its recording alone.
"""

import numpy as np
import pytest

from repro.experiments._emissions import ATTACKER_POSITION, single_full
from repro.obs.trace import Tracer, activate
from repro.sim.engine import EmissionSpec, TrialGroup
from repro.sim.pipeline import StageProfile, build_pipeline
from repro.sim.scenario import Scenario, VictimDevice


@pytest.fixture(scope="module")
def phone_device():
    return VictimDevice.phone(commands=("ok_google",), seed=91)


@pytest.fixture(scope="module")
def scenario():
    return Scenario(
        command="ok_google",
        attacker_position=ATTACKER_POSITION,
        victim_position=ATTACKER_POSITION.translated(2.0, 0.0, 0.0),
    )


@pytest.fixture(scope="module")
def group(scenario, phone_device):
    return TrialGroup(
        scenario,
        phone_device,
        EmissionSpec(single_full, ("ok_google", 5)),
        4,
    )


def _traced_profile(pipeline, ctx, runs, n_trials, chunk_trials=None):
    tracer = Tracer()
    with activate(tracer):
        for _ in range(runs):
            rngs = np.random.default_rng(7).spawn(n_trials)
            pipeline.run_trials(ctx, rngs, chunk_trials=chunk_trials)
    return StageProfile.from_spans(tracer.spans)


class TestStageProfile:
    def test_one_span_per_stage_call(self, scenario, phone_device, group):
        pipeline = build_pipeline(scenario, phone_device)
        ctx = pipeline.context(group.emission.sources())
        profile = _traced_profile(
            pipeline, ctx, 1, group.n_trials, chunk_trials=1
        )
        assert {mode for mode, _ in profile.timings} == {"batch"}
        assert [stage for _, stage in profile.timings] == list(
            pipeline.stage_names()
        )
        for timing in profile.timings.values():
            assert timing.calls == group.n_trials
            assert timing.trials == group.n_trials

    def test_trial_counts_and_rows(self, scenario, phone_device, group):
        pipeline = build_pipeline(scenario, phone_device)
        ctx = pipeline.context(group.emission.sources())
        profile = _traced_profile(pipeline, ctx, 1, group.n_trials)
        rows = profile.as_rows()
        assert all(row["mode"] == "batch" for row in rows)
        assert all(row["trials"] == group.n_trials for row in rows)
        assert all(row["seconds"] >= 0.0 for row in rows)
        assert profile.total_seconds("batch") == pytest.approx(
            sum(row["seconds"] for row in rows)
        )
        rendered = profile.render()
        for row in rows:
            assert row["stage"] in rendered

    def test_profile_accumulates_across_runs(
        self, scenario, phone_device, group
    ):
        pipeline = build_pipeline(scenario, phone_device)
        ctx = pipeline.context(group.emission.sources())
        profile = _traced_profile(pipeline, ctx, 2, group.n_trials)
        for (_, _), timing in profile.timings.items():
            assert timing.trials == 2 * group.n_trials


class TestRecognizeBatch:
    def test_bitwise_equal_to_scalar(self, scenario, phone_device, group):
        pipeline = build_pipeline(scenario, phone_device)
        ctx = pipeline.context(group.emission.sources())
        rngs = np.random.default_rng(11).spawn(6)
        outcomes = pipeline.run_trials(ctx, rngs)
        recognizer = phone_device.recognizer
        for outcome in outcomes:
            # Per-recording recognize() against the stacked sweep the
            # recognize stage ran.
            result = recognizer.recognize(outcome.recording)
            assert result.command == outcome.recognized_command
            assert result.distance == outcome.distance
