"""End-to-end experiment simulation.

``scenario``
    Declarative description of one physical setup (room, attacker,
    victim device, command) — including environmental features:
    interference sources, a walking attacker, weather.
``spec``
    Pure-data :class:`ScenarioSpec` environments and the named
    registry behind ``--scenario NAME`` (``free_field``,
    ``living_room``, ``walking_attacker``, ...), turning the fixed
    experiment list into an experiments × environments grid.
``pipeline``
    The declarative trial chain: a :class:`TrialPipeline` of named
    :class:`Stage` objects (transmit -> motion-gain -> interference ->
    ambient -> microphone -> adc -> recognize), each one kernel over
    stacked rows, walked by one executor that runs each trial as a
    row of its own.
``engine``
    The one way to run trials: :class:`ExperimentEngine` fans trial
    groups over a process pool with ``SeedSequence``-spawned per-trial
    streams (bit-identical for any ``jobs``) and a per-process
    emission/synthesis cache; range searches are its
    :meth:`~ExperimentEngine.attack_range_m`.
``results``
    Small result-table containers with aligned-text rendering used by
    the benchmarks and EXPERIMENTS.md.
``bench``
    Shared ``BENCH_*.json`` plumbing: machine metadata embedded in
    every record and the ``bench-trajectory.jsonl`` appender behind
    CI's perf-gates history.
"""

from repro.sim.scenario import (
    AttackerMotion,
    InterferenceSource,
    Scenario,
    TrajectoryLeg,
    VictimDevice,
    interference_waveform,
)
from repro.sim.fuzz import (
    FUZZ_PREFIX,
    FuzzGrammar,
    FuzzSeedError,
    generate_scenario,
    parse_fuzz_seed,
)
from repro.sim.spec import (
    InterferenceSpec,
    RIG_POSITION,
    RoomSpec,
    ScenarioSpec,
    TrajectorySpec,
    WeatherSpec,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.sim.pipeline import (
    Stage,
    TrialContext,
    TrialOutcome,
    TrialPipeline,
    build_pipeline,
)
from repro.sim.engine import (
    EmissionCache,
    EmissionSpec,
    ExperimentEngine,
    TrialGroup,
    attack_range_search,
    cached_voice,
    process_cache,
    stable_key,
)
from repro.sim.results import ResultTable
from repro.sim.bench import append_trajectory, machine_metadata

__all__ = [
    "append_trajectory",
    "machine_metadata",
    "AttackerMotion",
    "InterferenceSource",
    "InterferenceSpec",
    "RIG_POSITION",
    "RoomSpec",
    "Scenario",
    "ScenarioSpec",
    "TrajectorySpec",
    "VictimDevice",
    "WeatherSpec",
    "Stage",
    "TrialContext",
    "TrialOutcome",
    "TrialPipeline",
    "build_pipeline",
    "EmissionCache",
    "EmissionSpec",
    "ExperimentEngine",
    "FUZZ_PREFIX",
    "FuzzGrammar",
    "FuzzSeedError",
    "TrajectoryLeg",
    "generate_scenario",
    "parse_fuzz_seed",
    "TrialGroup",
    "attack_range_search",
    "cached_voice",
    "get_scenario",
    "interference_waveform",
    "process_cache",
    "register_scenario",
    "scenario_names",
    "stable_key",
    "ResultTable",
]
