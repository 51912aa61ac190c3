"""Scenario registry + scenario-level differential harness.

Two guarantees for *every* registered environment:

* **chunking invariance** — the trial pipeline gives bitwise the same
  successes, DTW distances and recorded waveforms whether trials run
  one at a time or stacked in chunks, in rooms, under interference,
  with a walking attacker and in weather, not just in the free field;
* **jobs determinism** — fanning the same groups over a worker pool
  changes nothing about the outcomes, byte for byte.

Plus unit coverage for the declarative spec layer itself: registry
semantics, geometric capping, interference rendering and the motion
model.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import assert_chunking_invariant, outcomes_identical
from strategies import rooms
from repro.acoustics.geometry import Position
from repro.errors import ExperimentError
from repro.experiments._emissions import single_full
from repro.sim.engine import EmissionSpec, ExperimentEngine, TrialGroup
from repro.sim.pipeline import build_pipeline
from repro.sim.scenario import (
    AttackerMotion,
    InterferenceSource,
    Scenario,
    VictimDevice,
    interference_waveform,
)
from repro.sim.spec import (
    RIG_POSITION,
    RoomSpec,
    ScenarioSpec,
    get_scenario,
    register_scenario,
    scenario_names,
)

EXPECTED_SCENARIOS = {
    "free_field",
    "living_room",
    "conference_room",
    "walking_attacker",
    "tv_interference",
    "outdoor_wind",
}


@pytest.fixture(scope="module")
def phone_device():
    return VictimDevice.phone(commands=("ok_google",), seed=91)


@pytest.fixture(scope="module")
def emission_spec():
    return EmissionSpec(single_full, ("ok_google", 5))


class TestRegistry:
    def test_expected_scenarios_registered(self):
        assert EXPECTED_SCENARIOS <= set(scenario_names())

    def test_unknown_name_lists_available(self):
        with pytest.raises(ExperimentError, match="living_room"):
            get_scenario("underwater")

    def test_duplicate_registration_rejected(self):
        spec = get_scenario("free_field")
        with pytest.raises(ExperimentError, match="already registered"):
            register_scenario(spec)
        # Explicit replace is the escape hatch (idempotent here).
        assert register_scenario(spec, replace=True) is spec

    def test_free_field_build_matches_legacy_scenario(self):
        built = get_scenario("free_field").build("ok_google", 3.0)
        legacy = Scenario(
            command="ok_google",
            attacker_position=RIG_POSITION,
            victim_position=RIG_POSITION.translated(3.0, 0.0, 0.0),
        )
        assert built == legacy

    def test_specs_are_pure_data(self):
        import pickle

        for name in scenario_names():
            spec = get_scenario(name)
            assert pickle.loads(pickle.dumps(spec)) == spec

    def test_bad_device_preset_rejected(self):
        with pytest.raises(ExperimentError, match="device preset"):
            ScenarioSpec(name="x", description="", device="toaster")

    def test_room_too_small_for_rig_rejected_at_registration(self):
        with pytest.raises(Exception):
            ScenarioSpec(
                name="closet",
                description="",
                room=RoomSpec(1.0, 1.0, 2.0),
            )

    def test_build_device_uses_preset(self):
        assert get_scenario("free_field").build_device().name == "phone"


class TestGeometryCapping:
    def test_free_field_uncapped(self):
        assert get_scenario("free_field").max_distance_m(16.0) == 16.0

    def test_room_caps_at_interior_span(self):
        spec = get_scenario("living_room")
        limit = spec.max_distance_m(16.0)
        assert limit < spec.room.length_m
        # The capped victim must actually fit the built room.
        spec.build("ok_google", distance_m=limit)

    def test_clamp_drops_unfittable_distances(self):
        spec = get_scenario("living_room")
        kept = spec.clamp_distances((1.0, 3.0, 8.0))
        assert kept == (1.0, 3.0)

    def test_clamp_rejects_fully_unfittable_sweep(self):
        with pytest.raises(ExperimentError, match="no sweep distance"):
            get_scenario("living_room").clamp_distances((9.0, 12.0))

    @given(room=rooms())
    @settings(max_examples=20, deadline=None)
    def test_capped_distance_always_fits(self, room):
        spec = RoomSpec(
            room.length_m, room.width_m, room.height_m,
            room.wall_absorption,
        )
        try:
            scenario_spec = ScenarioSpec(
                name="probe",
                description="",
                room=spec,
                distance_m=0.5,
            )
        except Exception:
            # Rooms that cannot host the rig (or the 0.5 m victim)
            # are rejected at spec construction — also a valid pin.
            return
        limit = scenario_spec.max_distance_m(16.0)
        built = scenario_spec.build("ok_google", distance_m=limit)
        assert built.room.contains(built.victim_position)


class TestInterference:
    def test_waveform_deterministic_and_cached(self):
        source = InterferenceSource(
            kind="speech_babble", position=Position(1, 1, 1), seed=3
        )
        a = interference_waveform(source, 48000.0)
        b = interference_waveform(source, 48000.0)
        assert a is b  # lru_cache shares the rendered array

    @pytest.mark.parametrize("kind", ["speech_babble", "music", "hum"])
    def test_kinds_render_at_requested_level(self, kind):
        from repro.acoustics.spl import pressure_to_spl

        source = InterferenceSource(
            kind=kind, position=Position(1, 1, 1), level_spl=60.0
        )
        wave = interference_waveform(source, 48000.0)
        assert pressure_to_spl(wave.rms()) == pytest.approx(60.0, abs=1e-6)
        assert wave.duration == pytest.approx(source.duration_s)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExperimentError, match="interference kind"):
            InterferenceSource(kind="kazoo", position=Position(0, 0, 0))

    def test_interference_must_sit_inside_the_room(self):
        spec = get_scenario("living_room")
        with pytest.raises(Exception, match="interference source"):
            Scenario(
                command="ok_google",
                attacker_position=RIG_POSITION,
                victim_position=RIG_POSITION.translated(2.0, 0.0, 0.0),
                room=spec.room.build(),
                interference=(
                    InterferenceSource(
                        kind="hum", position=Position(40.0, 1.0, 1.0)
                    ),
                ),
            )

    def test_interference_changes_the_recorded_trial(self, phone_device):
        quiet = get_scenario("living_room").build("ok_google", 2.0)
        noisy = get_scenario("tv_interference").build("ok_google", 2.0)
        sources = EmissionSpec(single_full, ("ok_google", 5)).sources()

        def one_trial(scenario):
            pipeline = build_pipeline(scenario, phone_device)
            return pipeline.run_trials(
                pipeline.context(sources), [np.random.default_rng(4)]
            )[0]

        a, b = one_trial(quiet), one_trial(noisy)
        assert not np.array_equal(
            a.recording.samples, b.recording.samples
        )


class TestMotion:
    def test_invalid_span_rejected(self):
        with pytest.raises(ExperimentError, match="span"):
            AttackerMotion(span_m=0.0)

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        span=st.floats(min_value=0.01, max_value=4.0),
        base=st.floats(min_value=0.5, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_gain_positive_and_bounded(self, seed, span, base):
        motion = AttackerMotion(span_m=span, min_distance_m=0.25)
        gain = motion.trial_gain(base, np.random.default_rng(seed))
        assert gain > 0.0
        # Closest approach bounds the gain from above.
        assert gain <= base / motion.min_distance_m

    def test_static_scenario_consumes_no_draw(self):
        scenario = get_scenario("free_field").build("ok_google", 2.0)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert scenario.trial_gain(rng) is None
        assert rng.bit_generator.state == before

    def test_moving_scenario_consumes_exactly_one_draw(self):
        scenario = get_scenario("walking_attacker").build("ok_google", 2.0)
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        scenario.trial_gain(rng_a)
        rng_b.uniform(-0.5, 0.5)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestScenarioCarriesEnvironment:
    def test_at_distance_preserves_environment_fields(self):
        scenario = get_scenario("tv_interference").build("ok_google", 2.0)
        moved = scenario.at_distance(3.5)
        assert moved.room == scenario.room
        assert moved.interference == scenario.interference
        assert moved.motion == scenario.motion
        assert moved.conditions == scenario.conditions
        assert moved.distance_m == pytest.approx(3.5)

    def test_weather_feeds_the_propagation_model(self):
        outdoor = get_scenario("outdoor_wind").build("ok_google", 2.0)
        channel = outdoor.channel()
        assert channel.propagation.conditions.temperature_c == 10.0
        assert channel.propagation.conditions.relative_humidity == 80.0


class TestScenarioDifferential:
    """Every registered environment: chunking- and jobs-invariant."""

    @pytest.fixture(scope="class")
    def per_scenario(self, phone_device, emission_spec):
        """A small group per scenario, with its chunked outcomes."""
        results = {}
        for name in scenario_names():
            scenario = get_scenario(name).build("ok_google", 2.0)
            group = TrialGroup(scenario, phone_device, emission_spec, 3)
            pipeline = build_pipeline(scenario, phone_device)
            # The exact streams the engine derives for a single group:
            # one child per group, then one grandchild per trial — so
            # the engine comparison below is bitwise, not just seeded
            # alike.
            (group_rng,) = np.random.default_rng(5).spawn(1)
            outcomes = pipeline.run_trials(
                pipeline.context(emission_spec.sources()),
                group_rng.spawn(3),
            )
            results[name] = (group, outcomes)
        return results

    @pytest.mark.parametrize("name", sorted(EXPECTED_SCENARIOS))
    def test_no_scalar_fallback(self, name, phone_device):
        """Every environment runs the stacked microphone chain, not a
        per-row ``record`` stage."""
        scenario = get_scenario(name).build("ok_google", 2.0)
        names = build_pipeline(scenario, phone_device).stage_names()
        assert names[-3:] == ("microphone", "adc", "recognize")
        assert "record" not in names

    # The ids keep their ``-float64`` suffix so that existing
    # selections of these cases by name still match.
    @pytest.mark.parametrize(
        "name",
        sorted(EXPECTED_SCENARIOS),
        ids=lambda name: f"{name}-float64",
    )
    def test_chunking_invariance(self, name, phone_device, emission_spec):
        scenario = get_scenario(name).build("ok_google", 2.0)
        assert_chunking_invariant(
            scenario, phone_device, list(emission_spec.sources())
        )

    @pytest.mark.parametrize("name", sorted(EXPECTED_SCENARIOS))
    def test_recording_chunking_invariance(self, name, phone_device):
        """The defense dataset's genuine-talker recording pipeline."""
        from repro.attack.baselines import AudiblePlaybackAttacker
        from repro.sim.pipeline import level_stage
        from repro.speech.commands import synthesize_command

        voice = synthesize_command("ok_google", np.random.default_rng(0))
        sources = list(
            AudiblePlaybackAttacker(RIG_POSITION).emit(voice).sources
        )
        assert_chunking_invariant(
            get_scenario(name).build("ok_google", 2.0),
            phone_device.microphone,
            sources,
            recognize=False,
            gain_stage=level_stage(55.0, 68.0, 60.0),
        )

    @pytest.mark.parametrize("name", sorted(EXPECTED_SCENARIOS))
    def test_jobs_do_not_change_outcomes(self, name, per_scenario):
        group, outcomes = per_scenario[name]
        with ExperimentEngine(jobs=2) as engine:
            fanned = engine.run_trial_groups(
                [group], np.random.default_rng(5)
            )[0]
        assert outcomes_identical(outcomes, fanned)

    def test_scenario_sweep_runs_every_environment(
        self, phone_device, emission_spec
    ):
        """One attack across every registered environment, pinned at
        1 m, as a single wave of trial groups."""
        groups = [
            TrialGroup(
                get_scenario(name).build("ok_google", distance_m=1.0),
                phone_device,
                emission_spec,
                1,
            )
            for name in scenario_names()
        ]
        rates = ExperimentEngine(jobs=1).success_rates(
            groups, np.random.default_rng(1)
        )
        assert len(rates) == len(scenario_names())
        assert all(0.0 <= rate <= 1.0 for rate in rates)
