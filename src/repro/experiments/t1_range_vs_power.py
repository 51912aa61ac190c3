"""T1 — attack range vs speaker input power (single-speaker rig).

The classic power table of the single-speaker attack literature (the
arXiv precursor's Table 1 used 9.2-23.7 W into a horn tweeter and
found ranges of 2.2-3.5 m for a phone and 1.5-2.4 m for an Echo).
Range grows with power; the Echo trails the phone because of its
covered microphone. This table deliberately *ignores* the bystander
audibility constraint — it measures the conspicuous attack, as the
precursor paper did.

Each (device, power) range search is adaptive and therefore
sequential, but every probe's trials run through the engine's pool
and probed distances are memoised. ``scenario`` swaps the environment
from the ``repro.sim.spec`` registry; rooms cap the search ceiling at
their +x interior span.
"""

from __future__ import annotations

import numpy as np

from repro.experiments._emissions import single_at_power
from repro.sim.engine import EmissionSpec, ExperimentEngine
from repro.sim.results import ResultTable
from repro.sim.scenario import VictimDevice
from repro.sim.spec import get_scenario

#: The drive powers of the precursor paper's Table 1, watts.
PAPER_POWERS_W = (9.2, 11.8, 14.8, 18.7, 23.7)


def run(
    quick: bool = True,
    seed: int = 0,
    engine: ExperimentEngine | None = None,
    scenario: str = "free_field",
) -> ResultTable:
    """Measure attack range per input power for both devices."""
    spec = get_scenario(scenario)
    rng = np.random.default_rng(seed)
    powers = PAPER_POWERS_W[::2] if quick else PAPER_POWERS_W
    n_trials = 2 if quick else 5
    resolution = 0.5 if quick else 0.25
    max_distance = spec.max_distance_m(16.0)
    table = ResultTable(
        title=(
            "T1: attack range vs speaker input power (single speaker)"
            + spec.title_suffix()
        ),
        columns=["power W", "phone range m", "echo range m"],
    )
    configs = (
        (VictimDevice.phone(seed=seed + 1), "ok_google"),
        (VictimDevice.echo(seed=seed + 1), "alexa"),
    )
    ranges: dict[str, list[float]] = {"phone": [], "echo": []}
    if engine is None:
        engine = ExperimentEngine(jobs=1)
    for device, command in configs:
        built = spec.build(command, distance_m=1.0)
        for power in powers:
            measured = engine.attack_range_m(
                built,
                device,
                EmissionSpec(single_at_power, (command, seed, power)),
                rng,
                n_trials=n_trials,
                max_distance_m=max_distance,
                resolution_m=resolution,
            )
            ranges[device.name].append(measured)
    for index, power in enumerate(powers):
        table.add_row(
            power, ranges["phone"][index], ranges["echo"][index]
        )
    return table
