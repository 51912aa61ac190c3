"""Scenario fuzzing: environments generated, not registered.

The registry (:mod:`repro.sim.spec`) holds six hand-written
environments; this module turns that matrix into an open-ended space.
``generate_scenario(seed)`` composes an arbitrary — but always
physically valid — :class:`~repro.sim.spec.ScenarioSpec` from a single
integer seed: random room dimensions and wall absorption (or a free
field), multi-leg attacker trajectories, up to three simultaneous
interferers, and weather drawn from a diurnal time-of-day model.

``--scenario random:<seed>`` resolves through here (parsed by
:func:`repro.sim.spec.get_scenario`), so every experiment that takes
``--scenario`` — the offline tables, the defense dataset synthesis and
the streaming/sharded S1 path alike — runs in generated environments
with no registration step. The generated spec is echoed to stderr the
first time a process materialises it, so a failing case is always
reproducible from the printed seed.

Determinism is the load-bearing property. The spec is a pure function
of ``(seed, grammar)``: the draw sequence below is fixed, the
generator is ``numpy.random.default_rng(seed)``, and the result is
cached per process — repeated calls, engine worker processes and shard
subprocesses that receive only the ``random:<seed>`` string all
rebuild the identical spec field-for-field (pinned by the seed-
stability suite, including across a subprocess boundary). Changing the
grammar — bounds *or* draw order — therefore changes which scenario a
seed denotes; that is fine (no golden covers a generated scenario) but
must be deliberate.

The correctness oracle over this space is differential, not curated:
for any generated scenario, every partition of the trials over
executor calls must give the same bits, worker fan-out and shard partitioning must not change a byte,
and the streaming guard must match the offline guard exactly
(``tests/sim/test_fuzz.py`` and the CI ``fuzz-smoke`` job).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import ExperimentError
from repro.sim.scenario import INTERFERENCE_KINDS
from repro.sim.spec import (
    RIG_POSITION,
    WALL_MARGIN_M,
    InterferenceSpec,
    RoomSpec,
    ScenarioSpec,
    TrajectorySpec,
    WeatherSpec,
)

#: The name prefix that selects a generated scenario.
FUZZ_PREFIX = "random:"

#: Generated specs retained per process. Fuzz suites sweep many seeds;
#: the bound keeps a long property run from accumulating every spec it
#: ever built.
_CACHE_ENTRIES = 128


class FuzzSeedError(ExperimentError, ValueError):
    """A malformed ``random:<seed>`` scenario name.

    Subclasses :class:`ValueError` (it is one: the string failed to
    parse) *and* the library's :class:`ExperimentError`, so both
    ``except ValueError`` call sites and the CLI's library-error
    handling catch it.
    """


@dataclass(frozen=True)
class FuzzGrammar:
    """Bounds of the generative grammar, as data.

    One instance (:data:`DEFAULT_GRAMMAR`) drives both the CLI's
    ``random:<seed>`` generation and the hypothesis strategies in
    ``tests/strategies.py`` — the property suite asserts generated
    specs stay inside these bounds, so the grammar cannot silently
    drift apart from its oracle.

    Every geometric bound is chosen so the composed spec is valid *by
    construction*: rooms always contain the rig
    (:data:`~repro.sim.spec.RIG_POSITION`) and the default victim,
    interferers always sit inside the room and off the victim line,
    and weather stays inside the ISO 9613-1 validated range.
    """

    room_probability: float = 0.6
    room_length_m: tuple[float, float] = (3.5, 10.0)
    room_width_m: tuple[float, float] = (2.7, 8.0)
    room_height_m: tuple[float, float] = (2.2, 3.5)
    wall_absorption: tuple[float, float] = (0.15, 0.85)
    distance_m: tuple[float, float] = (0.75, 6.0)
    ambient_noise_spl: tuple[float, float] = (35.0, 60.0)
    trajectory_probability: float = 0.5
    multi_leg_probability: float = 0.5
    trajectory_span_m: tuple[float, float] = (0.3, 1.5)
    leg_count: tuple[int, int] = (2, 4)
    leg_offset_m: tuple[float, float] = (-1.0, 1.0)
    leg_span_m: tuple[float, float] = (0.2, 1.0)
    max_interferers: int = 3
    interference_level_spl: tuple[float, float] = (45.0, 70.0)
    interference_duration_s: tuple[float, float] = (1.5, 2.5)
    #: Free-field interferer placement box (rooms use wall margins).
    interference_box_x: tuple[float, float] = (0.5, 6.0)
    interference_box_y: tuple[float, float] = (0.4, 6.0)
    interference_box_z: tuple[float, float] = (0.4, 2.2)
    #: Interferers keep at least this far (in y) from the rig-victim
    #: axis, so a range search can never probe a victim position
    #: coincident with an interfering loudspeaker.
    victim_line_margin_m: float = 0.3
    wall_margin_m: float = 0.3
    weather_probability: float = 0.5
    #: Diurnal temperature model: the day's mean and swing; the drawn
    #: hour samples ``mean + swing * sin(...)``, humidity moves
    #: opposite the temperature. Weather varies with the drawn time of
    #: day but is sampled once per scenario — propagation is quasi-
    #: static over a two-second trial.
    temperature_mean_c: tuple[float, float] = (0.0, 25.0)
    temperature_swing_c: tuple[float, float] = (2.0, 8.0)
    relative_humidity: tuple[float, float] = (20.0, 95.0)
    pressure_kpa: tuple[float, float] = (97.0, 103.0)
    echo_probability: float = 0.5


DEFAULT_GRAMMAR = FuzzGrammar()


def is_fuzz_name(name: str) -> bool:
    """Whether a scenario name requests generation (well-formed or
    not — malformed ``random:`` strings must reach the parser, not
    fall through to an 'unknown scenario' registry error)."""
    return isinstance(name, str) and name.startswith(FUZZ_PREFIX)


def parse_fuzz_seed(name: str) -> int:
    """The integer seed of a ``random:<seed>`` scenario name.

    Raises :class:`FuzzSeedError` (a :class:`ValueError`) for
    anything except ``random:`` followed by a non-negative integer.
    """
    if not is_fuzz_name(name):
        raise FuzzSeedError(
            f"not a fuzz scenario name: {name!r} (expected "
            f"'{FUZZ_PREFIX}<seed>')"
        )
    digits = name[len(FUZZ_PREFIX):]
    if not digits.isdigit():
        raise FuzzSeedError(
            f"malformed fuzz scenario {name!r}: the seed must be a "
            f"non-negative integer, e.g. '{FUZZ_PREFIX}7'"
        )
    return int(digits)


def _uniform(rng: np.random.Generator, bounds: tuple[float, float]) -> float:
    low, high = bounds
    return float(rng.uniform(low, high))


def _off_victim_line(y: float, low: float, high: float, margin: float) -> float:
    """Nudge a y coordinate off the rig-victim axis (y = rig.y).

    The rig, the victim and every range-search probe share
    ``RIG_POSITION.y``; an interferer within ``margin`` of that line
    is moved just outside it (whichever side still fits ``[low,
    high]``), keeping source-receiver distances bounded away from
    zero.
    """
    axis = RIG_POSITION.y
    if abs(y - axis) >= margin:
        return y
    above, below = axis + margin, axis - margin
    if above <= high:
        return above
    if below >= low:
        return below
    raise ExperimentError(
        f"no interferer placement off the victim line fits "
        f"[{low}, {high}]"
    )


def _draw_interferer(
    rng: np.random.Generator,
    grammar: FuzzGrammar,
    room: RoomSpec | None,
) -> InterferenceSpec:
    kind = INTERFERENCE_KINDS[
        int(rng.integers(len(INTERFERENCE_KINDS)))
    ]
    margin = grammar.wall_margin_m
    if room is None:
        x = _uniform(rng, grammar.interference_box_x)
        y_low, y_high = grammar.interference_box_y
        z = _uniform(rng, grammar.interference_box_z)
    else:
        x = float(rng.uniform(margin, room.length_m - margin))
        y_low, y_high = margin, room.width_m - margin
        z = float(rng.uniform(margin, room.height_m - margin))
    y = _off_victim_line(
        float(rng.uniform(y_low, y_high)),
        y_low,
        y_high,
        grammar.victim_line_margin_m,
    )
    return InterferenceSpec(
        kind=kind,
        x=x,
        y=y,
        z=z,
        level_spl=_uniform(rng, grammar.interference_level_spl),
        seed=int(rng.integers(2**31)),
        duration_s=_uniform(rng, grammar.interference_duration_s),
    )


def _draw_trajectory(
    rng: np.random.Generator, grammar: FuzzGrammar
) -> TrajectorySpec:
    if rng.random() < grammar.multi_leg_probability:
        low, high = grammar.leg_count
        n_legs = int(rng.integers(low, high + 1))
        legs = tuple(
            (
                _uniform(rng, grammar.leg_offset_m),
                _uniform(rng, grammar.leg_span_m),
            )
            for _ in range(n_legs)
        )
        # span_m is unused by a multi-leg walk but must validate.
        return TrajectorySpec(span_m=1.0, legs=legs)
    return TrajectorySpec(
        span_m=_uniform(rng, grammar.trajectory_span_m)
    )


def _draw_weather(
    rng: np.random.Generator, grammar: FuzzGrammar
) -> WeatherSpec:
    hour = float(rng.uniform(0.0, 24.0))
    mean = _uniform(rng, grammar.temperature_mean_c)
    swing = _uniform(rng, grammar.temperature_swing_c)
    # Peak mid-afternoon (15:00), trough before dawn.
    phase = np.sin(2.0 * np.pi * (hour - 9.0) / 24.0)
    temperature = mean + swing * phase
    rh_low, rh_high = grammar.relative_humidity
    humidity = float(
        np.clip(
            _uniform(rng, grammar.relative_humidity)
            - 2.0 * swing * phase,
            rh_low,
            rh_high,
        )
    )
    return WeatherSpec(
        temperature_c=temperature,
        relative_humidity=humidity,
        pressure_kpa=_uniform(rng, grammar.pressure_kpa),
    )


@lru_cache(maxsize=_CACHE_ENTRIES)
def _generate(seed: int, grammar: FuzzGrammar) -> ScenarioSpec:
    rng = np.random.default_rng(seed)
    room: RoomSpec | None = None
    if rng.random() < grammar.room_probability:
        room = RoomSpec(
            length_m=_uniform(rng, grammar.room_length_m),
            width_m=_uniform(rng, grammar.room_width_m),
            height_m=_uniform(rng, grammar.room_height_m),
            wall_absorption=_uniform(rng, grammar.wall_absorption),
        )
    distance_low, distance_high = grammar.distance_m
    if room is not None:
        # Keep the default victim strictly inside the room, the same
        # cap max_distance_m applies to range searches.
        distance_high = min(
            distance_high, room.length_m - RIG_POSITION.x - WALL_MARGIN_M
        )
    distance = float(rng.uniform(distance_low, distance_high))
    ambient = _uniform(rng, grammar.ambient_noise_spl)
    trajectory: TrajectorySpec | None = None
    if rng.random() < grammar.trajectory_probability:
        trajectory = _draw_trajectory(rng, grammar)
    n_interferers = int(rng.integers(grammar.max_interferers + 1))
    interference = tuple(
        _draw_interferer(rng, grammar, room)
        for _ in range(n_interferers)
    )
    weather: WeatherSpec | None = None
    if rng.random() < grammar.weather_probability:
        weather = _draw_weather(rng, grammar)
    device = "echo" if rng.random() < grammar.echo_probability else "phone"
    return ScenarioSpec(
        name=f"random_{seed}",
        description=(
            f"generated environment (seed {seed}): "
            + ("room" if room else "free field")
            + f", {n_interferers} interferer(s)"
            + (", walking attacker" if trajectory else "")
            + (", weather" if weather else "")
        ),
        room=room,
        distance_m=distance,
        ambient_noise_spl=ambient,
        trajectory=trajectory,
        interference=interference,
        weather=weather,
        device=device,
    )


def generate_scenario(
    seed: int, grammar: FuzzGrammar = DEFAULT_GRAMMAR
) -> ScenarioSpec:
    """The deterministic :class:`ScenarioSpec` for ``seed``.

    A pure function of ``(seed, grammar)``, cached per process;
    validity is enforced at construction by
    :class:`~repro.sim.spec.ScenarioSpec` itself (which builds and
    geometry-checks the default scenario), so a grammar bug fails
    here, not mid-experiment.
    """
    if seed < 0:
        raise FuzzSeedError(
            f"fuzz seed must be non-negative, got {seed}"
        )
    return _generate(int(seed), grammar)


#: Seeds already echoed by this process (echo once, not per lookup).
_echoed_seeds: set[int] = set()


def generated_scenario(name: str) -> ScenarioSpec:
    """Resolve ``random:<seed>``, echoing the spec for reproduction.

    The echo goes to stderr (tables own stdout) the first time this
    process materialises the seed — rendered tables stay byte-
    identical across ``--jobs``/``--shards`` values while every
    log still carries the full generated environment.
    """
    seed = parse_fuzz_seed(name)
    spec = generate_scenario(seed)
    if seed not in _echoed_seeds:
        _echoed_seeds.add(seed)
        print(
            f"[fuzz] scenario {FUZZ_PREFIX}{seed} -> {spec!r}",
            file=sys.stderr,
        )
    return spec
