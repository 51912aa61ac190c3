"""Declarative scenario specifications and the named registry.

A :class:`ScenarioSpec` is pure, picklable data describing an
*environment*: the room (or lack of one), the attacker's resting
position and trajectory, competing audio sources, the default victim
device and the weather. Experiments stay parameterised by *what* they
measure (command, device, emission, distances); the spec supplies
*where* it happens — so one experiment definition runs unchanged in a
free field, a reverberant living room or outdoors in wind, and the
suite becomes an experiments × environments grid.

The registry maps short names (``free_field``, ``living_room``, ...)
to specs; ``python -m repro.experiments <EXP> --scenario NAME`` and
the scenario-differential test suite both resolve through it. Specs
build concrete :class:`~repro.sim.scenario.Scenario` objects, which
the trial pipeline (:mod:`repro.sim.pipeline`) consumes.

All registered specs keep the attack rig at the suite-wide
:data:`RIG_POSITION` — emission builders place array elements around
that point, so rooms are dimensioned to contain it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.acoustics.atmosphere import AtmosphericConditions
from repro.acoustics.geometry import Position, Room
from repro.errors import ExperimentError
from repro.sim.scenario import (
    AttackerMotion,
    InterferenceSource,
    Scenario,
    TrajectoryLeg,
    VictimDevice,
)

#: Attack-rig centroid shared by every experiment and every scenario.
#: Emission builders (``repro.experiments._emissions``) mount their
#: speaker arrays around this point, so scenario rooms must contain it.
RIG_POSITION = Position(0.0, 2.0, 1.0)

#: Victims are kept this far from the far wall so adaptive range
#: searches never push a position onto (or through) the room boundary.
WALL_MARGIN_M = 0.25


@dataclass(frozen=True)
class RoomSpec:
    """Pure-data description of a rectangular room."""

    length_m: float
    width_m: float
    height_m: float
    wall_absorption: float = 0.5

    def build(self) -> Room:
        return Room(
            length_m=self.length_m,
            width_m=self.width_m,
            height_m=self.height_m,
            wall_absorption=self.wall_absorption,
        )


@dataclass(frozen=True)
class WeatherSpec:
    """Pure-data atmospheric conditions (ISO 9613-1 inputs)."""

    temperature_c: float = 20.0
    relative_humidity: float = 50.0
    pressure_kpa: float = 101.325

    def build(self) -> AtmosphericConditions:
        return AtmosphericConditions(
            temperature_c=self.temperature_c,
            relative_humidity=self.relative_humidity,
            pressure_kpa=self.pressure_kpa,
        )


@dataclass(frozen=True)
class TrajectorySpec:
    """Pure-data attacker trajectory (see
    :class:`~repro.sim.scenario.AttackerMotion`).

    ``legs`` describes a multi-leg walk as ``(offset_m, span_m)``
    pairs — pure data, so specs stay hashable and picklable; empty
    keeps the original single-interval walk.
    """

    span_m: float
    min_distance_m: float = 0.25
    legs: tuple[tuple[float, float], ...] = ()

    def build(self) -> AttackerMotion:
        return AttackerMotion(
            span_m=self.span_m,
            min_distance_m=self.min_distance_m,
            legs=tuple(
                TrajectoryLeg(offset_m=offset, span_m=span)
                for offset, span in self.legs
            ),
        )


@dataclass(frozen=True)
class InterferenceSpec:
    """Pure-data interfering audio source."""

    kind: str
    x: float
    y: float
    z: float
    level_spl: float = 60.0
    seed: int = 0
    duration_s: float = 2.0

    def build(self) -> InterferenceSource:
        return InterferenceSource(
            kind=self.kind,
            position=Position(self.x, self.y, self.z),
            level_spl=self.level_spl,
            seed=self.seed,
            duration_s=self.duration_s,
        )


#: Builders for the victim-device presets a spec may name.
_DEVICE_BUILDERS = {
    "phone": VictimDevice.phone,
    "echo": VictimDevice.echo,
}


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, declarative environment for experiments to run in.

    Attributes
    ----------
    name:
        Registry key (``--scenario NAME``).
    description:
        One line for tables and docs.
    room:
        Optional room; ``None`` means free field.
    distance_m:
        Default attacker-to-victim distance when the caller does not
        sweep distance itself.
    ambient_noise_spl:
        Noise floor at the victim (wind and HVAC live here).
    trajectory:
        Optional walking-attacker trajectory.
    interference:
        Competing audio sources present in the scene.
    weather:
        Optional atmospheric conditions; ``None`` is the indoor
        default (20 °C, 50 % RH, 1 atm).
    device:
        Default victim-device preset name (``"phone"`` or ``"echo"``).
    """

    name: str
    description: str
    room: RoomSpec | None = None
    distance_m: float = 2.0
    ambient_noise_spl: float = 40.0
    trajectory: TrajectorySpec | None = None
    interference: tuple[InterferenceSpec, ...] = ()
    weather: WeatherSpec | None = None
    device: str = "phone"

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise ExperimentError(
                f"scenario name must be a non-empty identifier, got "
                f"{self.name!r}"
            )
        if self.distance_m <= 0:
            raise ExperimentError(
                f"default distance must be positive, got {self.distance_m}"
            )
        if self.device not in _DEVICE_BUILDERS:
            raise ExperimentError(
                f"unknown device preset {self.device!r}; available: "
                f"{sorted(_DEVICE_BUILDERS)}"
            )
        # Building the default scenario exercises every geometric
        # validation (rig inside room, interference inside room, ...)
        # so a bad spec fails at registration, not mid-experiment.
        self.build("ok_google")

    # -- concrete builders --------------------------------------------

    def attacker_position(self) -> Position:
        """The rig centroid (suite-wide, see :data:`RIG_POSITION`)."""
        return RIG_POSITION

    def build(
        self, command: str, distance_m: float | None = None
    ) -> Scenario:
        """A concrete :class:`Scenario` at ``distance_m`` along +x."""
        distance = self.distance_m if distance_m is None else distance_m
        attacker = self.attacker_position()
        return Scenario(
            command=command,
            attacker_position=attacker,
            victim_position=attacker.translated(distance, 0.0, 0.0),
            room=self.room.build() if self.room else None,
            ambient_noise_spl=self.ambient_noise_spl,
            interference=tuple(
                spec.build() for spec in self.interference
            ),
            motion=self.trajectory.build() if self.trajectory else None,
            conditions=self.weather.build() if self.weather else None,
        )

    def build_device(self, seed: int = 1234) -> VictimDevice:
        """The spec's default victim device."""
        return _DEVICE_BUILDERS[self.device](seed=seed)

    # -- geometry helpers ---------------------------------------------

    def max_distance_m(self, ceiling: float = 16.0) -> float:
        """Largest victim distance this environment can host.

        Free-field scenarios return ``ceiling`` unchanged; rooms cap
        it at the +x interior span from the rig, minus
        :data:`WALL_MARGIN_M`. Range searches pass their
        ``max_distance_m`` through here so bisection never probes a
        position outside the room.
        """
        if ceiling <= 0:
            raise ExperimentError(
                f"ceiling must be positive, got {ceiling}"
            )
        if self.room is None:
            return ceiling
        span = (
            self.room.length_m
            - self.attacker_position().x
            - WALL_MARGIN_M
        )
        if span <= 0:
            raise ExperimentError(
                f"scenario {self.name!r} leaves no room for a victim "
                "along +x"
            )
        return min(ceiling, span)

    def clamp_distances(
        self, distances_m: tuple[float, ...] | list[float]
    ) -> tuple[float, ...]:
        """Drop sweep distances the environment cannot host.

        Distance sweeps written for the free field (up to 8 m) would
        place the victim outside a 5 m room; rather than silently
        moving points, points that do not fit are dropped so the sweep
        stays physically meaningful.
        """
        limit = self.max_distance_m()
        kept = tuple(d for d in distances_m if d <= limit)
        if not kept:
            raise ExperimentError(
                f"no sweep distance fits scenario {self.name!r} "
                f"(limit {limit:.2f} m, requested {list(distances_m)})"
            )
        return kept

    def title_suffix(self) -> str:
        """Table-title tag; empty for the default environment."""
        if self.name == "free_field":
            return ""
        return f" [scenario: {self.name}]"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, ScenarioSpec] = {}


def register_scenario(
    spec: ScenarioSpec, replace: bool = False
) -> ScenarioSpec:
    """Add a spec to the named registry (rejects silent overwrites)."""
    if spec.name in _REGISTRY and not replace:
        raise ExperimentError(
            f"scenario {spec.name!r} is already registered; pass "
            "replace=True to overwrite"
        )
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Resolve a scenario: a registered name, or ``random:<seed>``.

    ``random:<seed>`` bypasses the registry entirely — the spec is
    *generated* deterministically from the integer seed by
    :mod:`repro.sim.fuzz` (and echoed to stderr once per process so a
    failing fuzz case is always reproducible from the printed seed).
    Anything else is a registry lookup with a helpful error.
    """
    # Local import: fuzz builds ScenarioSpec objects, so it imports
    # this module; resolving lazily keeps the dependency one-way at
    # import time.
    from repro.sim import fuzz

    if fuzz.is_fuzz_name(name):
        return fuzz.generated_scenario(name)
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ExperimentError(
            f"unknown scenario {name!r}; registered: "
            f"{sorted(_REGISTRY)} (or generate one with "
            "'random:<seed>')"
        ) from None


def scenario_names() -> tuple[str, ...]:
    """Every registered scenario name, sorted."""
    return tuple(sorted(_REGISTRY))


register_scenario(
    ScenarioSpec(
        name="free_field",
        description="anechoic baseline: direct path only, quiet room",
    )
)

#: One domestic room shared by every "living room" flavour below, so
#: tv_interference really is "the living room plus a TV" and tuning
#: the room keeps the scenarios comparable.
_LIVING_ROOM = RoomSpec(5.0, 4.0, 2.5, wall_absorption=0.35)
_LIVING_ROOM_FLOOR_SPL = 42.0

register_scenario(
    ScenarioSpec(
        name="living_room",
        description=(
            "5 x 4 x 2.5 m domestic room, soft furnishings "
            "(absorption 0.35), 42 dB SPL floor"
        ),
        room=_LIVING_ROOM,
        ambient_noise_spl=_LIVING_ROOM_FLOOR_SPL,
    )
)

register_scenario(
    ScenarioSpec(
        name="conference_room",
        description=(
            "6.5 x 4 x 2.5 m meeting room (the evaluation room of the "
            "attack literature), HVAC floor at 45 dB SPL"
        ),
        room=RoomSpec(6.5, 4.0, 2.5, wall_absorption=0.5),
        ambient_noise_spl=45.0,
    )
)

register_scenario(
    ScenarioSpec(
        name="walking_attacker",
        description=(
            "free field with the rig carried by a walking attacker "
            "(±0.5 m per-trial excursion along the approach axis)"
        ),
        trajectory=TrajectorySpec(span_m=1.0),
    )
)

register_scenario(
    ScenarioSpec(
        name="tv_interference",
        description=(
            "living room with a TV playing speech-band audio at "
            "64 dB SPL across the room"
        ),
        room=_LIVING_ROOM,
        ambient_noise_spl=_LIVING_ROOM_FLOOR_SPL,
        interference=(
            InterferenceSpec(
                kind="speech_babble",
                x=4.5,
                y=3.5,
                z=1.0,
                level_spl=64.0,
                seed=7,
            ),
        ),
    )
)

register_scenario(
    ScenarioSpec(
        name="outdoor_wind",
        description=(
            "outdoors: no reflections, 10 °C at 80 % RH, wind noise "
            "raising the floor to 55 dB SPL"
        ),
        ambient_noise_spl=55.0,
        weather=WeatherSpec(temperature_c=10.0, relative_humidity=80.0),
    )
)
