"""F3 — single-speaker attack success vs distance.

Two operating modes of the baseline rig:

* **full drive** — effective at metres of range but audibly leaking
  (the conspicuous configuration the paper family demonstrates);
* **inaudible drive** — capped by the bystander constraint, which
  collapses the useful range to arm's length. The gap between these
  two curves *is* the problem the long-range attack solves.

Every (distance, mode) cell is one trial group; the engine runs them
all in a single wave, reusing each mode's emission from the process
cache at every distance. ``scenario`` swaps the environment (room,
interference, motion, weather) from the ``repro.sim.spec`` registry;
sweep distances that do not fit the chosen room are dropped.
"""

from __future__ import annotations

import numpy as np

from repro.experiments._emissions import single_full, single_inaudible
from repro.sim.engine import EmissionSpec, ExperimentEngine, TrialGroup
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
    """Success rate by distance for both drive modes."""
    spec = get_scenario(scenario)
    rng = np.random.default_rng(seed)
    distances = (0.5, 1.0, 2.0, 3.0) if quick else (
        0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0
    )
    distances = spec.clamp_distances(distances)
    n_trials = 3 if quick else 10
    device = VictimDevice.phone(seed=seed + 1)
    base = spec.build(command, distance_m=1.0)
    full_spec = EmissionSpec(single_full, (command, seed))
    capped_spec = EmissionSpec(single_inaudible, (command, seed))
    capped_level = capped_spec.emission().drive_level
    groups = []
    for distance in distances:
        moved = base.at_distance(distance)
        groups.append(TrialGroup(moved, device, full_spec, n_trials))
        groups.append(TrialGroup(moved, device, capped_spec, n_trials))
    if engine is None:
        engine = ExperimentEngine(jobs=1)
    rates = engine.success_rates(groups, rng)
    table = ResultTable(
        title=(
            "F3: single-speaker success rate vs distance "
            f"(inaudible cap drive = {capped_level:.3f})"
            + spec.title_suffix()
        ),
        columns=["distance m", "full drive", "inaudible drive"],
    )
    for index, distance in enumerate(distances):
        table.add_row(
            distance, rates[2 * index], rates[2 * index + 1]
        )
    return table
