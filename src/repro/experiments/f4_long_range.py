"""F4 — the headline figure: attack range vs number of speakers.

Every attacker in this sweep obeys the same inaudibility rule (no
bystander at 0.5 m may hear the rig). The single wideband speaker is
therefore power-starved; the array sidesteps the constraint by giving
each element a spectral chunk whose self-leakage is physically
confined below the audible floor, so every element runs at (or near)
full drive and total delivered power grows with N.

The paper's 61-element prototype reached 25 ft (~7.6 m); the
reproduction's shape criterion is range growing monotonically with N
and the 61-speaker point landing in the same several-metres regime.

Range searches are adaptive (each probe depends on the last), so rigs
run in sequence — but every probe's trials fan out over the engine's
pool, and probed distances are memoised so none is measured twice.

``scenario`` selects the environment from the ``repro.sim.spec``
registry; room scenarios cap the search ceiling at the room's +x
interior span so the bisection never probes through a wall, and the
measured range then reads as "as far as the room allows".
"""

from __future__ import annotations

import numpy as np

from repro.experiments._emissions import array_split, single_inaudible
from repro.sim.engine import EmissionSpec, ExperimentEngine
from repro.sim.results import ResultTable
from repro.sim.scenario import VictimDevice
from repro.sim.spec import get_scenario


def run(
    quick: bool = True,
    seed: int = 0,
    command: str = "ok_google",
    engine: ExperimentEngine | None = None,
    scenario: str = "free_field",
) -> ResultTable:
    """Measure attack range for a sweep of array sizes."""
    spec = get_scenario(scenario)
    rng = np.random.default_rng(seed)
    speaker_counts = (4, 16) if quick else (2, 4, 8, 16, 32, 61)
    n_trials = 2 if quick else 4
    resolution = 0.5 if quick else 0.25
    max_distance = spec.max_distance_m(16.0)
    device = VictimDevice.phone(seed=seed + 1)
    built = spec.build(command, distance_m=1.0)
    table = ResultTable(
        title=(
            "F4: attack range vs number of speakers (all rigs "
            "inaudible to a bystander at 0.5 m)"
            + spec.title_suffix()
        ),
        columns=["speakers", "rig", "range m"],
    )
    if engine is None:
        engine = ExperimentEngine(jobs=1)
    range_single = engine.attack_range_m(
        built,
        device,
        EmissionSpec(single_inaudible, (command, seed)),
        rng,
        n_trials=n_trials,
        max_distance_m=max_distance,
        resolution_m=resolution,
    )
    table.add_row(1, "single wideband (capped)", range_single)
    for n_speakers in speaker_counts:
        measured = engine.attack_range_m(
            built,
            device,
            EmissionSpec(array_split, (command, seed, n_speakers)),
            rng,
            n_trials=n_trials,
            max_distance_m=max_distance,
            resolution_m=resolution,
        )
        table.add_row(n_speakers, "split array", measured)
    return table
