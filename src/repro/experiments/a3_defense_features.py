"""A3 — ablation: which defense features carry the detection.

Compares detectors restricted to the trace-power features, to the
correlation features, and to the full vector. The paper family's
finding: power and correlation are individually strong and complement
each other against borderline cases. ``scenario`` rebuilds the
ablation inside a registered environment, so feature importance can be
read per scene (interference, for instance, loads the correlation
features harder). The dataset is built once with every feature; each
subset's fit on its columns is one engine work unit.
"""

from __future__ import annotations

import numpy as np

from repro.defense.dataset import DatasetConfig, LabeledDataset, build_dataset
from repro.defense.detector import InaudibleVoiceDetector
from repro.defense.metrics import auc
from repro.sim.engine import ExperimentEngine
from repro.sim.results import ResultTable
from repro.sim.spec import get_scenario

SUBSETS: dict[str, tuple[str, ...]] = {
    "power only": ("trace_power_db", "trace_to_voice_db"),
    "correlation only": (
        "envelope_correlation",
        "envelope_power_correlation",
    ),
    "all features": (
        "trace_power_db",
        "trace_to_voice_db",
        "envelope_correlation",
        "envelope_power_correlation",
        "voice_power_db",
    ),
}


def _subset_row(
    task: tuple[str, tuple[str, ...], LabeledDataset, int],
) -> tuple[str, float, float]:
    """Worker: fit -> AUC/accuracy for one feature subset."""
    label, subset, dataset, split_seed = task
    rng = np.random.default_rng(split_seed)
    train, test = dataset.split(0.6, rng)
    detector = InaudibleVoiceDetector(feature_subset=subset).fit(train)
    scores = detector.scores_for(test)
    confusion = detector.evaluate(test)
    return (label, auc(test.labels, scores), confusion.accuracy)


def run(
    quick: bool = True,
    seed: int = 0,
    jobs: int = 1,
    engine: ExperimentEngine | None = None,
    scenario: str = "free_field",
) -> ResultTable:
    """Test AUC and accuracy per feature subset."""
    spec = get_scenario(scenario)
    n_trials = 3 if quick else 8
    table = ResultTable(
        title="A3: defense feature ablation" + spec.title_suffix(),
        columns=["features", "AUC", "accuracy"],
    )
    # One dataset with every feature; each subset takes its columns.
    dataset = build_dataset(
        DatasetConfig(
            commands=("ok_google", "alexa"),
            distances_m=(1.0, 2.0),
            n_trials=n_trials,
            attacker_kind="single_full",
            scenario=scenario,
            seed=seed,
        )
    )
    tasks = [
        (label, subset, dataset.select(subset), seed + 3)
        for label, subset in SUBSETS.items()
    ]
    with ExperimentEngine.scoped(engine, jobs) as eng:
        for row in eng.map(_subset_row, tasks):
            table.add_row(*row)
    return table
