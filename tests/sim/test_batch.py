"""Unit and equivalence tests for the stacked trial pipeline.

The contract under test is strict: a trial's outcome — success, DTW
distance, recorded waveform — does not depend on which chunk it runs
in, whether it runs through the engine or straight through the
scenario's pipeline as a chunk of one, or whether the hardware and
scenario models are stock or subclassed.
"""

import copy
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from differential import outcomes_identical
from repro.dsp.signals import Signal, SignalBatch
from repro.errors import ExperimentError, SignalDomainError
from repro.experiments._emissions import ATTACKER_POSITION, single_full
from repro.hardware.microphone import Microphone
from repro.hardware.nonlinearity import PolynomialNonlinearity
from repro.sim.engine import EmissionSpec, ExperimentEngine, TrialGroup
from repro.sim.pipeline import build_pipeline
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
def emission_spec():
    return EmissionSpec(single_full, ("ok_google", 5))


class TestSignalBatch:
    def test_rejects_one_dimensional_input(self):
        with pytest.raises(SignalDomainError, match="2-D"):
            SignalBatch(np.zeros(8), 100.0)

    def test_signal_rejects_batch_shaped_input(self):
        with pytest.raises(SignalDomainError, match="SignalBatch"):
            Signal(np.zeros((2, 8)), 100.0)

    def test_from_signals_rejects_mixed_lengths(self):
        with pytest.raises(SignalDomainError, match="equal lengths"):
            SignalBatch.from_signals(
                [Signal(np.zeros(8), 100.0), Signal(np.zeros(9), 100.0)]
            )

    def test_from_signals_rejects_mixed_rates(self):
        from repro.errors import SampleRateError

        with pytest.raises(SampleRateError):
            SignalBatch.from_signals(
                [Signal(np.zeros(8), 100.0), Signal(np.zeros(8), 200.0)]
            )

    def test_tiled_rows_round_trip(self):
        source = Signal(np.arange(5, dtype=float), 10.0)
        batch = SignalBatch.tiled(source, 3)
        assert batch.n_signals == 3
        assert batch.n_samples == 5
        for row in batch.signals():
            assert np.array_equal(row.samples, source.samples)
            assert row.sample_rate == source.sample_rate

    def test_row_index_validated(self):
        batch = SignalBatch(np.zeros((2, 4)), 10.0)
        with pytest.raises(SignalDomainError):
            batch.row(2)

    def test_duration_uses_last_axis(self):
        batch = SignalBatch(np.zeros((7, 100)), 50.0)
        assert batch.duration == pytest.approx(2.0)
        assert len(batch) == 7


class TestKernelEquivalence:
    @pytest.fixture(scope="class")
    def pair(self, scenario, phone_device, emission_spec):
        """Three trials one at a time vs as one stacked chunk."""
        pipeline = build_pipeline(scenario, phone_device)
        ctx = pipeline.context(emission_spec.sources())
        one_by_one = [
            pipeline.run_trials(ctx, [rng])[0]
            for rng in np.random.default_rng(5).spawn(3)
        ]
        chunked = pipeline.run_trials(
            ctx, np.random.default_rng(5).spawn(3)
        )
        return one_by_one, chunked

    def test_outcomes_bitwise_identical(self, pair):
        one_by_one, chunked = pair
        assert outcomes_identical(one_by_one, chunked)

    def test_batch_of_one_is_exactly_scalar(
        self, scenario, phone_device, emission_spec
    ):
        """The engine's one-trial group == the pipeline's one trial."""
        group = TrialGroup(scenario, phone_device, emission_spec, 1)
        pipeline = build_pipeline(scenario, phone_device)
        # The engine spawns one child per group, then one per trial.
        (group_rng,) = np.random.default_rng(11).spawn(1)
        (trial_rng,) = group_rng.spawn(1)
        (single,) = pipeline.run_trials(
            pipeline.context(emission_spec.sources()), [trial_rng]
        )
        with ExperimentEngine(jobs=1) as engine:
            (engined,) = engine.run_trial_groups(
                [group], np.random.default_rng(11)
            )[0]
        assert outcomes_identical([single], [engined])

    def test_keep_recordings_false_strips_only_waveforms(
        self, scenario, phone_device, emission_spec
    ):
        group = TrialGroup(scenario, phone_device, emission_spec, 3)
        with ExperimentEngine(jobs=1) as engine:
            kept = engine.run_trial_groups(
                [group], np.random.default_rng(5)
            )[0]
            stripped = engine.run_trial_groups(
                [group], np.random.default_rng(5), keep_recordings=False
            )[0]
        assert all(o.recording is None for o in stripped)
        assert outcomes_identical(kept, stripped, compare_recordings=False)

    def test_empty_generator_list_rejected(
        self, scenario, phone_device, emission_spec
    ):
        pipeline = build_pipeline(scenario, phone_device)
        ctx = pipeline.context(list(emission_spec.sources()))
        with pytest.raises(ExperimentError, match=">= 1"):
            pipeline.run_trials(ctx, [])


class _TracingMicrophone(Microphone):
    """A microphone subclass whose ``record`` logs every call."""

    def __init__(self, config):
        super().__init__(config)
        self.calls = []

    def record(self, pressure, rng=None):
        self.calls.append((pressure, rng, copy.deepcopy(rng)))
        return super().record(pressure, rng)


class _TaggedNonlinearity(PolynomialNonlinearity):
    pass


class _TaggedScenario(Scenario):
    pass


def _run(scenario, device, sources, seed=9, n_trials=3):
    pipeline = build_pipeline(scenario, device)
    rngs = np.random.default_rng(seed).spawn(n_trials)
    return pipeline, rngs, pipeline.run_trials(
        pipeline.context(sources), rngs
    )


class TestSubclassedModels:
    """Overrides run on the stacked chain, with per-trial semantics."""

    def test_tracing_microphone_runs_once_per_trial(
        self, scenario, phone_device, emission_spec
    ):
        microphone = _TracingMicrophone(phone_device.microphone.config)
        device = VictimDevice(
            name="custom",
            microphone=microphone,
            recognizer=phone_device.recognizer,
        )
        sources = list(emission_spec.sources())
        pipeline, rngs, traced = _run(scenario, device, sources)
        assert "record" in pipeline.stage_names()
        assert len(microphone.calls) == len(rngs)
        stock = Microphone(phone_device.microphone.config)
        for (pressure, rng, fresh), trial_rng, outcome in zip(
            microphone.calls, rngs, traced
        ):
            # That trial's own generator, and per-row record() output.
            assert rng is trial_rng
            expected = stock.record(pressure, fresh)
            assert np.array_equal(
                outcome.recording.samples, expected.samples
            )
        _, _, reference = _run(scenario, phone_device, sources)
        assert outcomes_identical(traced, reference)

    def test_engine_runs_subclassed_microphone_per_row(
        self, scenario, phone_device, emission_spec
    ):
        device = VictimDevice(
            name="custom",
            microphone=_TracingMicrophone(
                phone_device.microphone.config
            ),
            recognizer=phone_device.recognizer,
        )

        def run(victim):
            group = TrialGroup(scenario, victim, emission_spec, 2)
            with ExperimentEngine(jobs=1) as engine:
                return engine.run_trial_groups(
                    [group], np.random.default_rng(9)
                )[0]

        assert outcomes_identical(run(device), run(phone_device))

    def test_subclassed_nonlinearity_runs_batched(
        self, scenario, phone_device, emission_spec
    ):
        stock = phone_device.microphone.config.nonlinearity
        config = dc_replace(
            phone_device.microphone.config,
            nonlinearity=_TaggedNonlinearity(stock.coefficients),
        )
        device = VictimDevice(
            name="custom",
            microphone=Microphone(config),
            recognizer=phone_device.recognizer,
        )
        sources = list(emission_spec.sources())
        pipeline, _, tagged = _run(scenario, device, sources)
        assert "microphone" in pipeline.stage_names()
        _, _, reference = _run(scenario, phone_device, sources)
        assert outcomes_identical(tagged, reference)

    def test_subclassed_scenario_runs_batched(
        self, scenario, phone_device, emission_spec
    ):
        from repro.sim.spec import get_scenario

        # A walking attacker: the motion stage calls the subclass's
        # trial_gain once per generator.
        stock = get_scenario("walking_attacker").build("ok_google", 2.0)
        tagged = _TaggedScenario(
            **{
                name: getattr(stock, name)
                for name in stock.__dataclass_fields__
            }
        )
        sources = list(emission_spec.sources())
        _, _, from_tagged = _run(tagged, phone_device, sources)
        _, _, reference = _run(stock, phone_device, sources)
        assert outcomes_identical(from_tagged, reference)
