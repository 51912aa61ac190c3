"""Unit tests for the sim package (scenario, trials, results)."""

import pytest

from repro.acoustics.geometry import Position, Room
from repro.sim.results import ResultTable
from repro.experiments._emissions import single_full
from repro.sim.engine import EmissionSpec, ExperimentEngine, TrialGroup
from repro.sim.pipeline import build_pipeline
from repro.sim.scenario import Scenario, VictimDevice
from repro.errors import ExperimentError


@pytest.fixture(scope="module")
def phone_device():
    return VictimDevice.phone(commands=("ok_google", "alexa"), seed=31)


@pytest.fixture(scope="module")
def base_scenario():
    return Scenario(
        command="ok_google",
        attacker_position=Position(0.0, 2.0, 1.0),
        victim_position=Position(2.0, 2.0, 1.0),
    )


class TestScenario:
    def test_distance(self, base_scenario):
        assert base_scenario.distance_m == pytest.approx(2.0)

    def test_at_distance(self, base_scenario):
        moved = base_scenario.at_distance(5.0)
        assert moved.distance_m == pytest.approx(5.0)
        assert moved.command == base_scenario.command

    def test_unknown_command_rejected(self):
        with pytest.raises(ExperimentError):
            Scenario(
                command="fire_the_missiles",
                attacker_position=Position(0, 0, 0),
                victim_position=Position(1, 0, 0),
            )

    def test_positions_validated_against_room(self):
        with pytest.raises(Exception):
            Scenario(
                command="alexa",
                attacker_position=Position(0, 0, 0),
                victim_position=Position(50, 0, 0),
                room=Room.meeting_room(),
            )

    def test_negative_distance_rejected(self, base_scenario):
        with pytest.raises(ExperimentError):
            base_scenario.at_distance(-1.0)


class TestVictimDevice:
    def test_phone_and_echo_presets(self):
        phone = VictimDevice.phone(seed=1)
        echo = VictimDevice.echo(seed=1)
        assert phone.microphone.config.device_rate == 48000.0
        assert echo.microphone.config.device_rate == 16000.0
        assert "ok_google" in phone.recognizer.commands
        assert "alexa" in echo.recognizer.commands


class TestRunner:
    """Trials through the scenario's pipeline, one generator each."""

    def test_trial_outcome_fields(
        self, base_scenario, phone_device, attack_emission, rng
    ):
        pipeline = build_pipeline(base_scenario, phone_device)
        (outcome,) = pipeline.run_trials(
            pipeline.context(attack_emission.sources), [rng]
        )
        assert outcome.recognized_command in phone_device.recognizer.commands
        assert outcome.recording.sample_rate == 48000.0
        assert isinstance(outcome.success, bool)

    def test_full_drive_attack_succeeds_at_2m(
        self, base_scenario, phone_device, attack_emission, rng
    ):
        pipeline = build_pipeline(base_scenario, phone_device)
        outcomes = pipeline.run_trials(
            pipeline.context(attack_emission.sources), rng.spawn(3)
        )
        assert sum(o.success for o in outcomes) >= 2

    def test_unenrolled_command_rejected(self, phone_device):
        scenario = Scenario(
            command="open_door",
            attacker_position=Position(0, 2, 1),
            victim_position=Position(2, 2, 1),
        )
        with pytest.raises(ExperimentError):
            build_pipeline(scenario, phone_device)

    def test_empty_sources_rejected(self, base_scenario, phone_device):
        pipeline = build_pipeline(base_scenario, phone_device)
        with pytest.raises(ExperimentError):
            pipeline.context([])


class TestSweep:
    """The engine's success-rate wave, on a serial engine."""

    def test_success_rate_bounds(self, base_scenario, phone_device, rng):
        group = TrialGroup(
            base_scenario,
            phone_device,
            EmissionSpec(single_full, ("ok_google", 5)),
            2,
        )
        (rate,) = ExperimentEngine(jobs=1).success_rates([group], rng)
        assert 0.0 <= rate <= 1.0


class TestResultTable:
    def test_add_and_render(self):
        table = ResultTable("demo", ["a", "b"])
        table.add_row(1, 2.5)
        table.add_row("x", "y")
        text = table.render()
        assert "demo" in text
        assert "2.5" in text

    def test_column_extraction(self):
        table = ResultTable("demo", ["a", "b"])
        table.add_row(1, 10)
        table.add_row(2, 20)
        assert table.column("b") == [10, 20]

    def test_wrong_width_rejected(self):
        table = ResultTable("demo", ["a", "b"])
        with pytest.raises(ExperimentError):
            table.add_row(1)

    def test_unknown_column_rejected(self):
        table = ResultTable("demo", ["a"])
        with pytest.raises(ExperimentError):
            table.column("zz")
