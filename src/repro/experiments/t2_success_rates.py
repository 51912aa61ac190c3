"""T2 — end-to-end success rates at fixed positions.

The paper family's repeated-trial measurement: fix the rig and device,
repeat the injection (50 times in the original), count successes.
Reference points: ~100 % against a phone at 3 m and ~80 % against an
Echo at 2 m for a strong rig.

All four (device, rig) cells are submitted to the engine as one wave
of trial groups, so on an engine with ``jobs >= 4`` each cell
occupies its own worker — emission synthesis and the 50-trial
repetition run concurrently across cells.

``scenario`` selects the environment from the registry
(``repro.sim.spec``): the same four cells replay inside a reverberant
living room, against a walking attacker, under TV interference, and
so on — the trial pipeline runs every registered environment.
"""

from __future__ import annotations

import numpy as np

from repro.experiments._emissions import array_split, single_full
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
    """Repeated-trial success for phone@3m and echo@2m."""
    spec = get_scenario(scenario)
    rng = np.random.default_rng(seed)
    n_trials = 5 if quick else 50
    n_speakers = 32
    table = ResultTable(
        title=(
            f"T2: end-to-end success rates over {n_trials} trials"
            + spec.title_suffix()
        ),
        columns=["device", "command", "distance m", "rig", "success"],
    )
    cells = (
        (VictimDevice.phone(seed=seed + 1), "ok_google", 3.0),
        (VictimDevice.echo(seed=seed + 1), "alexa", 2.0),
    )
    groups: list[TrialGroup] = []
    rows: list[tuple] = []
    for device, command, distance in cells:
        # max_distance_m already returns min(ceiling, room span).
        distance = spec.max_distance_m(distance)
        cell_scenario = spec.build(command, distance_m=distance)
        for rig, emission_spec in (
            (
                "split array",
                EmissionSpec(array_split, (command, seed, n_speakers)),
            ),
            ("single full drive", EmissionSpec(single_full, (command, seed))),
        ):
            groups.append(
                TrialGroup(cell_scenario, device, emission_spec, n_trials)
            )
            rows.append((device.name, command, distance, rig))
    if engine is None:
        engine = ExperimentEngine(jobs=1)
    rates = engine.success_rates(groups, rng)
    for row, rate in zip(rows, rates):
        table.add_row(*row, rate)
    return table
