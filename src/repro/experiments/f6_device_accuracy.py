"""F6 — per-device accuracy vs distance.

The phone's exposed microphone demodulates more of the arriving
ultrasound than the Echo's plastic-covered far-field capsule, so the
same array attacks the phone from farther away — the device ordering
the attack literature reports consistently.

Both devices' distance sweeps are submitted as one wave of trial
groups; each device's emission is materialised once per process and
shared by all its distances. ``scenario`` swaps the environment from
the ``repro.sim.spec`` registry; sweep distances that do not fit the
chosen room are dropped.
"""

from __future__ import annotations

import numpy as np

from repro.experiments._emissions import array_split
from repro.sim.engine import EmissionSpec, ExperimentEngine, TrialGroup
from repro.sim.results import ResultTable
from repro.sim.scenario import VictimDevice
from repro.sim.spec import get_scenario


def run(
    quick: bool = True,
    seed: int = 0,
    engine: ExperimentEngine | None = None,
    scenario: str = "free_field",
) -> ResultTable:
    """Success vs distance for the phone and the echo device."""
    spec = get_scenario(scenario)
    rng = np.random.default_rng(seed)
    n_speakers = 16 if quick else 32
    distances = (
        [1.0, 3.0, 5.0]
        if quick
        else [1.0, 2.0, 3.0, 4.0, 5.0, 6.5, 8.0]
    )
    distances = list(spec.clamp_distances(distances))
    n_trials = 2 if quick else 8
    table = ResultTable(
        title=(
            f"F6: success rate vs distance per device "
            f"({n_speakers}-speaker array)"
            + spec.title_suffix()
        ),
        columns=["device", "command", "distance m", "success rate"],
    )
    groups: list[TrialGroup] = []
    rows: list[tuple] = []
    for device, command in (
        (VictimDevice.phone(seed=seed + 1), "ok_google"),
        (VictimDevice.echo(seed=seed + 1), "alexa"),
    ):
        emission_spec = EmissionSpec(
            array_split, (command, seed, n_speakers)
        )
        built = spec.build(command, distance_m=1.0)
        for distance in distances:
            groups.append(
                TrialGroup(
                    built.at_distance(distance),
                    device,
                    emission_spec,
                    n_trials,
                )
            )
            rows.append((device.name, command, distance))
    if engine is None:
        engine = ExperimentEngine(jobs=1)
    rates = engine.success_rates(groups, rng)
    for row, rate in zip(rows, rates):
        table.add_row(*row, rate)
    return table
