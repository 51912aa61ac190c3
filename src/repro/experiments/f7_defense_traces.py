"""F7 — defense trace feature separation.

The figure behind the defense: per-class distributions of the sub-50 Hz
trace power and the envelope correlation. Genuine recordings cluster
deep below the attacked ones because a vocal tract radiates no coherent
sub-50 Hz energy while nonlinear demodulation cannot avoid producing
it — in the free field and in every registered environment
(``scenario`` picks a room, interference or motion from the registry;
the dataset records there through the trial pipeline).

Dataset synthesis dominates the cost and is fully determined by its
:class:`DatasetConfig` (seed included), so the two attacker kinds are
fanned out as independent engine work units.
"""

from __future__ import annotations

import numpy as np

from repro.defense.dataset import DatasetConfig, build_dataset
from repro.defense.features import FEATURE_NAMES
from repro.defense.traces import separation_d_prime
from repro.sim.engine import ExperimentEngine
from repro.sim.results import ResultTable
from repro.sim.spec import get_scenario


def _feature_rows(
    config: DatasetConfig,
) -> list[tuple[str, str, float, float, float]]:
    """Worker: build one attacker kind's dataset and summarise it."""
    dataset = build_dataset(config)
    genuine = dataset.features[dataset.labels == 0]
    attacked = dataset.features[dataset.labels == 1]
    rows = []
    for index, name in enumerate(FEATURE_NAMES):
        rows.append(
            (
                config.attacker_kind,
                name,
                float(np.mean(genuine[:, index])),
                float(np.mean(attacked[:, index])),
                separation_d_prime(
                    genuine[:, index], attacked[:, index]
                ),
            )
        )
    return rows


def run(
    quick: bool = True,
    seed: int = 0,
    jobs: int = 1,
    engine: ExperimentEngine | None = None,
    scenario: str = "free_field",
) -> ResultTable:
    """Per-class mean/std of every defense feature, both attackers."""
    spec = get_scenario(scenario)
    n_trials = 2 if quick else 8
    distances = (1.0, 2.0) if quick else (1.0, 2.0, 3.0)
    table = ResultTable(
        title=(
            "F7: defense feature statistics per class"
            + spec.title_suffix()
        ),
        columns=["attacker", "feature", "genuine mean", "attack mean",
                 "separation (d')"],
    )
    configs = [
        DatasetConfig(
            commands=("ok_google", "add_milk"),
            distances_m=distances,
            n_trials=n_trials,
            attacker_kind=kind,
            n_array_speakers=8,
            scenario=scenario,
            seed=seed,
        )
        for kind in ("single_full", "long_range")
    ]
    with ExperimentEngine.scoped(engine, jobs) as eng:
        for rows in eng.map(_feature_rows, configs):
            for row in rows:
                table.add_row(*row)
    return table
