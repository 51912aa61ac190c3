"""A2 — ablation: drive allocation strategy.

``uniform`` preserves the command's spectral shape exactly but throttles
every speaker to the most constrained one; ``waterfill`` lets every
speaker max out, accepting spectral tilt. The recogniser's mel/CMN
front-end largely ignores tilt, so waterfill buys range for free — the
design choice that makes the array's power advantage usable.

``scenario`` reruns the strategy comparison in a registered
environment; room scenarios cap the range search at the room's +x
interior span so the bisection never probes through a wall.
"""

from __future__ import annotations

import numpy as np

from repro.experiments._emissions import array_split
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
    """Attack range per allocation strategy and array size."""
    spec = get_scenario(scenario)
    rng = np.random.default_rng(seed)
    counts = (8,) if quick else (8, 16, 32)
    n_trials = 2 if quick else 4
    resolution = 0.5 if quick else 0.25
    max_distance = spec.max_distance_m(16.0)
    device = VictimDevice.phone(seed=seed + 1)
    built = spec.build(command, distance_m=1.0)
    table = ResultTable(
        title=(
            "A2: attack range by drive-allocation strategy"
            + spec.title_suffix()
        ),
        columns=["speakers", "strategy", "range m", "mean chunk level"],
    )
    if engine is None:
        engine = ExperimentEngine(jobs=1)
    for n_speakers in counts:
        for strategy in ("uniform", "waterfill"):
            emission_spec = EmissionSpec(
                array_split, (command, seed, n_speakers, strategy)
            )
            measured = engine.attack_range_m(
                built,
                device,
                emission_spec,
                rng,
                n_trials=n_trials,
                max_distance_m=max_distance,
                resolution_m=resolution,
            )
            table.add_row(
                n_speakers,
                strategy,
                measured,
                float(
                    np.mean(
                        emission_spec.emission().allocation.chunk_levels
                    )
                ),
            )
    return table
