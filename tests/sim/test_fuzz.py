"""Generated environments and their differential oracle.

The fuzzer (:mod:`repro.sim.fuzz`) replaces curated expected outputs
with invariants that must hold for *any* environment it composes:

* **seed stability** — ``generate_scenario(seed)`` is a pure function
  of the seed: identical field-for-field across repeated calls and
  across a subprocess boundary (the engine's workers and the fleet's
  shard processes receive only the ``random:<seed>`` string);
* **chunking invariance** — the trial pipeline gives bitwise the same
  outcomes however a group's trials are split over executor calls, in
  every generated environment;
* **jobs determinism** — fanning a generated scenario over a worker
  pool changes nothing, byte for byte;
* **guard parity** — the streaming guard's verdict matches the
  offline guard exactly in a generated environment;
* **shard digests** — partitioning the fleet over a generated
  scenario merges to the single-shard digest.

Plus unit coverage for the ``random:<seed>`` parser, the registry
error paths and the grammar's validity-by-construction bounds. The
``FUZZ_EXAMPLES`` environment variable scales the property example
counts (CI's fuzz-smoke job raises it; the default keeps local runs
fast).
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import repro
from differential import assert_chunking_invariant, outcomes_identical
from strategies import fuzz_seeds
from repro.defense.guard import GuardedVoiceAssistant
from repro.errors import ExperimentError
from repro.experiments._emissions import single_full
from repro.experiments.s1_streaming import train_detector
from repro.sim import fuzz
from repro.sim.engine import EmissionSpec, ExperimentEngine, TrialGroup
from repro.sim.fuzz import (
    DEFAULT_GRAMMAR,
    FUZZ_PREFIX,
    FuzzGrammar,
    FuzzSeedError,
    generate_scenario,
    is_fuzz_name,
    parse_fuzz_seed,
)
from repro.sim.pipeline import build_pipeline
from repro.sim.scenario import VictimDevice
from repro.sim.spec import (
    RIG_POSITION,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.stream.fleet import (
    FleetConfig,
    FleetSimulator,
    ShardAccumulator,
    plan_shards,
    run_shard,
    synthesize_utterances,
)
from repro.stream.guard import StreamingGuard

#: Property example budget — CI's fuzz-smoke job raises it, local
#: runs keep the default.
FUZZ_EXAMPLES = int(os.environ.get("FUZZ_EXAMPLES", "6"))

#: Deterministic seed sweep for the grammar-coverage assertions.
SCAN_SEEDS = range(120)

#: The generated environment pinned by the streaming/shard oracle —
#: free field with an interferer, a walking attacker and weather.
STREAM_FUZZ_NAME = f"{FUZZ_PREFIX}23"


@pytest.fixture(scope="module")
def phone_device():
    return VictimDevice.phone(commands=("ok_google",), seed=91)


@pytest.fixture(scope="module")
def emission_spec():
    return EmissionSpec(single_full, ("ok_google", 5))


def trial_rngs(n):
    """The exact per-trial streams the engine derives for one group."""
    (group_rng,) = np.random.default_rng(5).spawn(1)
    return group_rng.spawn(n)


class TestParsing:
    def test_prefix_detection(self):
        assert is_fuzz_name("random:7")
        assert is_fuzz_name("random:not_a_seed")  # reaches the parser
        assert not is_fuzz_name("free_field")
        assert not is_fuzz_name(7)

    def test_roundtrip(self):
        assert parse_fuzz_seed(f"{FUZZ_PREFIX}7") == 7
        assert parse_fuzz_seed(f"{FUZZ_PREFIX}0") == 0

    def test_error_is_both_valueerror_and_experimenterror(self):
        assert issubclass(FuzzSeedError, ValueError)
        assert issubclass(FuzzSeedError, ExperimentError)

    @pytest.mark.parametrize(
        "name",
        ["random:", "random:abc", "random:1.5", "random: 7", "random:-3"],
    )
    def test_malformed_seed_raises_clear_valueerror(self, name):
        with pytest.raises(ValueError, match="non-negative integer"):
            parse_fuzz_seed(name)
        with pytest.raises(ExperimentError):
            get_scenario(name)

    def test_non_fuzz_name_rejected_by_parser(self):
        with pytest.raises(ValueError, match="not a fuzz scenario"):
            parse_fuzz_seed("free_field")

    def test_negative_seed_rejected(self):
        with pytest.raises(FuzzSeedError, match="non-negative"):
            generate_scenario(-1)

    def test_get_scenario_resolves_fuzz_names(self):
        assert get_scenario("random:7") is generate_scenario(7)

    def test_unknown_name_lists_registry_and_mentions_fuzz(self):
        with pytest.raises(ExperimentError) as excinfo:
            get_scenario("underwater")
        message = str(excinfo.value)
        assert "free_field" in message
        assert "random:<seed>" in message

    def test_duplicate_registration_still_rejected(self):
        with pytest.raises(ExperimentError, match="already registered"):
            register_scenario(get_scenario("living_room"))

    def test_generated_specs_stay_out_of_the_registry(self):
        get_scenario("random:7")
        assert "random_7" not in scenario_names()


class TestSeedStability:
    def test_repeated_calls_share_the_cached_spec(self):
        assert generate_scenario(7) is generate_scenario(7)

    def test_equal_grammar_instances_hit_the_same_entry(self):
        assert generate_scenario(7, FuzzGrammar()) is generate_scenario(
            7, DEFAULT_GRAMMAR
        )

    def test_field_for_field_stable_across_cache_eviction(self):
        before = dataclasses.asdict(generate_scenario(7))
        fuzz._generate.cache_clear()
        after = dataclasses.asdict(generate_scenario(7))
        assert before == after

    def test_specs_pickle_roundtrip(self):
        for seed in (0, 7, 23):
            spec = generate_scenario(seed)
            assert pickle.loads(pickle.dumps(spec)) == spec

    @pytest.mark.parametrize("seed", [7, 42])
    def test_identical_across_a_subprocess_boundary(self, seed):
        """A worker that receives only the seed rebuilds the spec."""
        snippet = (
            "import dataclasses, json, sys\n"
            "from repro.sim.fuzz import generate_scenario\n"
            "spec = generate_scenario(int(sys.argv[1]))\n"
            "print(json.dumps(dataclasses.asdict(spec), sort_keys=True))\n"
        )
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-c", snippet, str(seed)],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        local = json.dumps(
            dataclasses.asdict(generate_scenario(seed)), sort_keys=True
        )
        assert proc.stdout.strip() == local

    def test_spec_echoed_to_stderr_once_per_process(self, capsys):
        name = f"{FUZZ_PREFIX}987654"
        get_scenario(name)
        first = capsys.readouterr().err
        assert name in first and "ScenarioSpec" in first
        get_scenario(name)
        assert name not in capsys.readouterr().err


class TestGrammarCoverage:
    @pytest.fixture(scope="class")
    def scanned(self):
        return [generate_scenario(seed) for seed in SCAN_SEEDS]

    def test_every_grammar_axis_is_reachable(self, scanned):
        assert any(spec.room is not None for spec in scanned)
        assert any(spec.room is None for spec in scanned)
        assert any(len(spec.interference) == 0 for spec in scanned)
        assert any(len(spec.interference) >= 2 for spec in scanned)
        assert any(spec.trajectory is None for spec in scanned)
        assert any(
            spec.trajectory is not None and not spec.trajectory.legs
            for spec in scanned
        )
        assert any(
            spec.trajectory is not None and spec.trajectory.legs
            for spec in scanned
        )
        assert any(spec.weather is not None for spec in scanned)
        assert any(spec.weather is None for spec in scanned)
        assert {spec.device for spec in scanned} == {"phone", "echo"}

    def test_specs_stay_inside_grammar_bounds(self, scanned):
        g = DEFAULT_GRAMMAR

        def within(value, bounds):
            return bounds[0] <= value <= bounds[1]

        for spec in scanned:
            assert within(spec.ambient_noise_spl, g.ambient_noise_spl)
            assert spec.distance_m >= g.distance_m[0]
            assert spec.distance_m <= g.distance_m[1]
            if spec.room is not None:
                assert within(spec.room.length_m, g.room_length_m)
                assert within(spec.room.width_m, g.room_width_m)
                assert within(spec.room.height_m, g.room_height_m)
                assert within(spec.room.wall_absorption, g.wall_absorption)
            assert len(spec.interference) <= g.max_interferers
            for source in spec.interference:
                assert within(source.level_spl, g.interference_level_spl)
                assert within(source.duration_s, g.interference_duration_s)
                # Off the rig-victim axis, so range searches never
                # probe a victim position inside a loudspeaker.
                assert (
                    abs(source.y - RIG_POSITION.y)
                    >= g.victim_line_margin_m - 1e-9
                )
            if spec.trajectory is not None and spec.trajectory.legs:
                assert within(
                    len(spec.trajectory.legs),
                    (g.leg_count[0], g.leg_count[1]),
                )
            if spec.weather is not None:
                assert within(
                    spec.weather.relative_humidity, g.relative_humidity
                )
                assert within(spec.weather.pressure_kpa, g.pressure_kpa)

    def test_generated_rooms_always_host_rig_and_victim(self, scanned):
        for spec in scanned:
            built = spec.build("ok_google", spec.distance_m)
            if built.room is not None:
                assert built.room.contains(built.attacker_position)
                assert built.room.contains(built.victim_position)

    def test_names_and_descriptions_carry_the_seed(self, scanned):
        for seed, spec in zip(SCAN_SEEDS, scanned):
            assert spec.name == f"random_{seed}"
            assert f"seed {seed}" in spec.description

    def test_build_device_honours_the_drawn_preset(self, scanned):
        for spec in scanned[:20]:
            assert spec.build_device().name == spec.device


class TestDifferentialOracle:
    """Chunking- and jobs-invariance over the generated space."""

    @given(seed=fuzz_seeds)
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    def test_chunking_invariance(self, seed, phone_device, emission_spec):
        spec = generate_scenario(seed)
        scenario = spec.build("ok_google", spec.distance_m)
        assert_chunking_invariant(
            scenario, phone_device, list(emission_spec.sources())
        )

    @pytest.mark.parametrize("seed", [7, 11, 41])
    def test_chunking_invariance_pinned(
        self, seed, phone_device, emission_spec
    ):
        spec = generate_scenario(seed)
        scenario = spec.build("ok_google", spec.distance_m)
        assert_chunking_invariant(
            scenario, phone_device, list(emission_spec.sources())
        )

    def test_jobs_do_not_change_generated_outcomes(
        self, phone_device, emission_spec
    ):
        # Seed 7: free field, three simultaneous interferers and a
        # multi-leg trajectory — the maximal-draw path through the
        # per-trial stages.
        spec = generate_scenario(7)
        assert len(spec.interference) == 3
        assert spec.trajectory is not None and spec.trajectory.legs
        scenario = spec.build("ok_google", spec.distance_m)
        group = TrialGroup(scenario, phone_device, emission_spec, 3)
        pipeline = build_pipeline(scenario, phone_device)
        direct = pipeline.run_trials(
            pipeline.context(emission_spec.sources()), trial_rngs(3)
        )
        with ExperimentEngine(jobs=2) as engine:
            fanned = engine.run_trial_groups(
                [group], np.random.default_rng(5)
            )[0]
        assert outcomes_identical(direct, fanned)


class TestStreamingOracle:
    """Guard parity and shard digests in a generated environment."""

    @pytest.fixture(scope="class")
    def fuzz_detector(self):
        spec = get_scenario(STREAM_FUZZ_NAME)
        assert spec.interference and spec.trajectory is not None
        return train_detector(STREAM_FUZZ_NAME, seed=0, n_trials=2)

    def test_streaming_guard_matches_offline_guard(self, fuzz_detector):
        rngs = [
            np.random.default_rng(child)
            for child in np.random.SeedSequence(2).spawn(2)
        ]
        recordings, recognizer = synthesize_utterances(
            STREAM_FUZZ_NAME,
            "ok_google",
            None,
            rngs,
            np.array([True, False]),
            voice_seed=0,
        )
        for recording in recordings:
            offline = GuardedVoiceAssistant(
                recognizer, fuzz_detector
            ).process(recording)
            guard = StreamingGuard(
                recognizer,
                fuzz_detector,
                recording.sample_rate,
                unit=recording.unit,
                gated=False,
            )
            online = guard.process_recording(recording, 977)
            assert online.executed_command == offline.executed_command
            assert online.vetoed == offline.vetoed
            assert (
                online.recognition.distance
                == offline.recognition.distance
            )
            assert (online.detection is None) == (
                offline.detection is None
            )
            if online.detection is not None:
                assert online.detection.score == offline.detection.score
                assert np.array_equal(
                    online.detection.features,
                    offline.detection.features,
                )

    def test_shard_partition_merges_to_unsharded_digest(
        self, fuzz_detector
    ):
        config = FleetConfig(
            n_streams=4,
            utterances_per_stream=1,
            attack_fraction=0.5,
            seed=9,
            scenario=STREAM_FUZZ_NAME,
        )
        reference = FleetSimulator(fuzz_detector, config).run()
        accumulator = ShardAccumulator(config.n_streams)
        for task in plan_shards(
            fuzz_detector, config, partitions=[[2, 0], [3, 1]]
        ):
            accumulator.add(run_shard(task))
        merged = accumulator.report(config)
        assert merged.digest() == reference.digest()
        assert merged.digest_hex() == reference.digest_hex()


class TestFuzzCLI:
    def test_parser_accepts_fuzz_scenarios(self):
        from repro.experiments.__main__ import build_parser

        args = build_parser().parse_args(
            ["T2", "--scenario", "random:7"]
        )
        assert args.scenario == "random:7"

    def test_malformed_seed_fails_before_any_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["T2", "--scenario", "random:abc"]) == 2
        assert "non-negative integer" in capsys.readouterr().err

    def test_quick_and_full_are_mutually_exclusive(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["T2", "--quick", "--full"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_list_scenarios_advertises_fuzzing(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--list-scenarios"]) == 0
        assert "random:<seed>" in capsys.readouterr().out
