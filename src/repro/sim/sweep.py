"""The environment sweep: one attack across registered scenarios.

Distance and range sweeps are methods of
:class:`repro.sim.engine.ExperimentEngine`
(:meth:`~repro.sim.engine.ExperimentEngine.accuracy_over_distances`,
:meth:`~repro.sim.engine.ExperimentEngine.attack_range_m`). The
scenario sweep lives here because it resolves names through the
:mod:`repro.sim.spec` registry. Pass ``engine=`` to borrow a worker
pool, or leave it unset for a serial engine of its own. Either way,
per-trial random streams are spawned from ``rng``
(``SeedSequence.spawn``) in a fixed order, so results are identical
for every ``jobs`` value.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.acoustics.channel import PlacedSource
from repro.errors import ExperimentError
from repro.sim.engine import EmissionSpec, ExperimentEngine, TrialGroup
from repro.sim.scenario import VictimDevice
from repro.sim.spec import get_scenario


def success_rate_by_scenario(
    scenario_names: Sequence[str],
    command: str,
    device: VictimDevice,
    sources: list[PlacedSource] | EmissionSpec,
    n_trials: int,
    rng: np.random.Generator,
    distance_m: float | None = None,
    engine: ExperimentEngine | None = None,
) -> list[tuple[str, float]]:
    """One attack, swept across registered environments.

    The environment axis of the experiments × environments grid:
    every named scenario (resolved through the
    :mod:`repro.sim.spec` registry) becomes one trial group, all
    submitted to the engine as a single wave so environments fan out
    over the pool exactly like distances do. ``distance_m=None``
    keeps each scenario's own default distance; a float pins the
    geometry so only the environment varies — and is therefore
    *refused* (not silently clamped) by any scenario whose room
    cannot host it, so every returned rate really was measured at the
    same distance.

    Returns ``[(scenario_name, success_rate), ...]`` in input order.
    """
    if not scenario_names:
        raise ExperimentError("scenario_names must not be empty")
    groups = []
    for name in scenario_names:
        spec = get_scenario(name)
        if distance_m is not None:
            limit = spec.max_distance_m(distance_m)
            if distance_m > limit:
                raise ExperimentError(
                    f"distance {distance_m} m does not fit scenario "
                    f"{name!r} (limit {limit:.2f} m); drop the "
                    "scenario or pin a smaller distance"
                )
        groups.append(
            TrialGroup(
                spec.build(command, distance_m=distance_m),
                device,
                sources,
                n_trials,
            )
        )
    with ExperimentEngine.scoped(engine, jobs=1) as scoped:
        rates = scoped.success_rates(groups, rng)
    return list(zip(scenario_names, rates))
