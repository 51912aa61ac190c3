"""Precision plumbing, per-stage profiling and the float32 fast path.

Three contracts from the batch-kernel performance work:

* **float64 is the golden mode** — the default precision everywhere;
  ``precision="float32"`` (or ``REPRO_FAST_MATH=1``) is opt-in, and
  even then every pipeline *output* is restored to float64 so
  downstream consumers never see a narrow dtype;
* **the fast path tracks the golden path** — float32 trial outcomes
  and dataset features stay within a small relative tolerance of the
  float64 reference (bitwise equality is explicitly *not* promised;
  chunking invariance in float32 is checked with the scenarios in
  ``tests/sim/test_scenarios.py``);
* **profiling comes from spans** — a run under a
  :class:`~repro.obs.trace.Tracer` records one span per stage call,
  and :meth:`~repro.sim.pipeline.StageProfile.from_spans` attributes
  wall time to every named stage.
"""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments._emissions import ATTACKER_POSITION, single_full
from repro.obs.trace import Tracer, activate
from repro.sim.engine import EmissionSpec, ExperimentEngine, TrialGroup
from repro.sim.pipeline import (
    CHUNK_TRIALS,
    StageProfile,
    build_pipeline,
    resolve_precision,
)
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


class TestResolvePrecision:
    def test_default_is_float64(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAST_MATH", raising=False)
        assert resolve_precision(None) == "float64"

    def test_explicit_values_pass_through(self):
        assert resolve_precision("float64") == "float64"
        assert resolve_precision("float32") == "float32"

    @pytest.mark.parametrize("flag", ["1", "true", "yes", "on", "ON"])
    def test_env_flag_enables_fast_math(self, monkeypatch, flag):
        monkeypatch.setenv("REPRO_FAST_MATH", flag)
        assert resolve_precision(None) == "float32"

    @pytest.mark.parametrize("flag", ["0", "false", "off", ""])
    def test_env_flag_off_values(self, monkeypatch, flag):
        monkeypatch.setenv("REPRO_FAST_MATH", flag)
        assert resolve_precision(None) == "float64"

    def test_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_MATH", "1")
        assert resolve_precision("float64") == "float64"

    def test_unknown_precision_rejected(self):
        with pytest.raises(ExperimentError, match="precision"):
            resolve_precision("float16")

    def test_engine_resolves_once(self, monkeypatch):
        # Workers must compute the way the engine was configured, not
        # the way their environment happens to look at task time.
        monkeypatch.setenv("REPRO_FAST_MATH", "1")
        engine = ExperimentEngine(jobs=1)
        assert engine.precision == "float32"
        monkeypatch.delenv("REPRO_FAST_MATH")
        assert engine.precision == "float32"


class TestFloat32FastPath:
    @pytest.fixture(scope="class")
    def outcomes(self, scenario, phone_device, group):
        results = {}
        for precision in ("float64", "float32"):
            pipeline = build_pipeline(
                scenario, phone_device, precision=precision
            )
            ctx = pipeline.context(group.resolve_sources())
            rngs = np.random.default_rng(7).spawn(group.n_trials)
            results[precision] = pipeline.run_trials(ctx, rngs)
        return results

    def test_outputs_restored_to_float64(self, outcomes):
        for outcome in outcomes["float32"]:
            assert outcome.recording.samples.dtype == np.float64

    def test_decisions_match_golden_mode(self, outcomes):
        for fast, golden in zip(
            outcomes["float32"], outcomes["float64"]
        ):
            assert fast.success == golden.success
            assert fast.recognized_command == golden.recognized_command

    def test_recordings_within_tolerance(self, outcomes):
        # The recordings are post-ADC, so float32 rounding upstream can
        # flip individual samples across a quantization boundary: the
        # honest bound is a few LSBs of absolute error, not a tight
        # relative one.
        for fast, golden in zip(
            outcomes["float32"], outcomes["float64"]
        ):
            reference = golden.recording.samples
            levels = np.unique(np.abs(np.diff(np.sort(reference))))
            lsb = float(levels[levels > 0][0])
            error = np.max(
                np.abs(fast.recording.samples - reference)
            )
            assert error <= 2.0 * lsb

    def test_trace_features_track_float64(self):
        # The satellite property: dataset features computed on the
        # fast path stay within a bounded relative error of the
        # float64 golden numbers.
        from repro.defense.dataset import DatasetConfig, build_dataset

        config = DatasetConfig(
            commands=("ok_google",),
            distances_m=(1.0,),
            n_trials=2,
            attacker_kind="single_full",
            seed=3,
        )
        golden = build_dataset(config, precision="float64").features
        fast = build_dataset(config, precision="float32").features
        assert golden.dtype == np.float64
        assert fast.dtype == np.float64
        scale = np.maximum(np.abs(golden), 1e-9)
        assert np.max(np.abs(fast - golden) / scale) < 1e-2


def _traced_profile(pipeline, ctx, runs, n_trials, chunk_trials=CHUNK_TRIALS):
    tracer = Tracer()
    with activate(tracer):
        for _ in range(runs):
            rngs = np.random.default_rng(7).spawn(n_trials)
            pipeline.run_trials(ctx, rngs, chunk_trials=chunk_trials)
    return StageProfile.from_spans(tracer.spans)


class TestStageProfile:
    def test_one_span_per_stage_call(self, scenario, phone_device, group):
        pipeline = build_pipeline(scenario, phone_device)
        ctx = pipeline.context(group.resolve_sources())
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
        ctx = pipeline.context(group.resolve_sources())
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
        ctx = pipeline.context(group.resolve_sources())
        profile = _traced_profile(pipeline, ctx, 2, group.n_trials)
        for (_, _), timing in profile.timings.items():
            assert timing.trials == 2 * group.n_trials


class TestRecognizeBatch:
    def test_bitwise_equal_to_scalar(self, scenario, phone_device, group):
        pipeline = build_pipeline(scenario, phone_device)
        ctx = pipeline.context(group.resolve_sources())
        rngs = np.random.default_rng(11).spawn(6)
        outcomes = pipeline.run_trials(ctx, rngs)
        recognizer = phone_device.recognizer
        for outcome in outcomes:
            # Per-recording recognize() against the stacked sweep the
            # recognize stage ran.
            result = recognizer.recognize(outcome.recording)
            assert result.command == outcome.recognized_command
            assert result.distance == outcome.distance
