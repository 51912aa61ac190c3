"""F8 — the defense's ROC.

Train on one split of physically simulated recordings, report the ROC,
AUC and the operating point the paper family quotes (~99 % accuracy at
low false-alarm rates). ``scenario`` moves the whole chain — dataset
synthesis, training and evaluation — into a registered environment
(living room, TV interference, outdoor wind, ...), so the quoted
operating points can be read per deployment scene.

Each attacker kind's build/train/evaluate chain is one engine work
unit; only the five summary numbers come back from the workers.
"""

from __future__ import annotations

import numpy as np

from repro.defense.dataset import DatasetConfig, build_dataset
from repro.defense.detector import InaudibleVoiceDetector
from repro.defense.metrics import roc_curve
from repro.sim.engine import ExperimentEngine
from repro.sim.results import ResultTable
from repro.sim.spec import get_scenario


def _roc_row(
    task: tuple[DatasetConfig, int],
) -> tuple[str, float, float, float, float]:
    """Worker: dataset -> split -> fit -> ROC summary for one kind."""
    config, split_seed = task
    dataset = build_dataset(config)
    rng = np.random.default_rng(split_seed)
    train, test = dataset.split(0.6, rng)
    detector = InaudibleVoiceDetector().fit(train)
    scores = detector.scores_for(test)
    roc = roc_curve(test.labels, scores)
    confusion = detector.evaluate(test)
    return (
        config.attacker_kind,
        roc.auc(),
        roc.tpr_at_fpr(0.05),
        roc.tpr_at_fpr(0.01),
        confusion.accuracy,
    )


def run(
    quick: bool = True,
    seed: int = 0,
    jobs: int = 1,
    engine: ExperimentEngine | None = None,
    scenario: str = "free_field",
) -> ResultTable:
    """ROC summary per attacker kind."""
    spec = get_scenario(scenario)
    n_trials = 3 if quick else 10
    table = ResultTable(
        title="F8: defense ROC summary" + spec.title_suffix(),
        columns=[
            "attacker",
            "AUC",
            "TPR@FPR<=5%",
            "TPR@FPR<=1%",
            "test accuracy",
        ],
    )
    configs = [
        DatasetConfig(
            commands=("ok_google", "alexa", "add_milk"),
            distances_m=(1.0, 2.0) if quick else (1.0, 2.0, 3.0),
            n_trials=n_trials,
            attacker_kind=kind,
            n_array_speakers=8,
            scenario=scenario,
            seed=seed,
        )
        for kind in ("single_full", "long_range")
    ]
    with ExperimentEngine.scoped(engine, jobs) as eng:
        tasks = [(config, seed + 7) for config in configs]
        for row in eng.map(_roc_row, tasks):
            table.add_row(*row)
    return table
