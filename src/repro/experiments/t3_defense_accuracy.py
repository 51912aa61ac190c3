"""T3 — defense accuracy across generalisation splits.

Beyond a random split, the defense must generalise to commands and
distances it never saw in training (the deployed detector cannot know
what the attacker will say or from where). Rows:

* ``random split`` — i.i.d. baseline;
* ``held-out command`` — train on some commands, test on another;
* ``held-out distance`` — train near, test far;
* ``svm`` — the linear-SVM variant on the random split.

The dataset is synthesised once in the parent — through the trial
pipeline, in the environment ``scenario`` names (a reverberant
living room, TV interference, ...) — and the four train/evaluate
cells (small feature matrices, cheap to pickle) fan out via the
engine.
"""

from __future__ import annotations

import numpy as np

from repro.defense.dataset import DatasetConfig, LabeledDataset, build_dataset
from repro.defense.detector import InaudibleVoiceDetector
from repro.sim.engine import ExperimentEngine
from repro.sim.results import ResultTable
from repro.sim.spec import get_scenario


def _split_row(
    task: tuple[str, str, LabeledDataset, LabeledDataset],
) -> tuple[str, str, float, float, float, int]:
    """Worker: fit and evaluate one (split, model) cell."""
    split_name, model, train, test = task
    detector = InaudibleVoiceDetector(model=model).fit(train)
    confusion = detector.evaluate(test)
    return (
        split_name,
        model,
        confusion.accuracy,
        confusion.true_positive_rate,
        confusion.false_positive_rate,
        confusion.total,
    )


def run(
    quick: bool = True,
    seed: int = 0,
    jobs: int = 1,
    engine: ExperimentEngine | None = None,
    scenario: str = "free_field",
) -> ResultTable:
    """Accuracy/TPR/FPR for each generalisation split."""
    spec = get_scenario(scenario)
    n_trials = 3 if quick else 8
    config = DatasetConfig(
        commands=("ok_google", "alexa", "add_milk"),
        distances_m=(1.0, 2.0, 3.0),
        n_trials=n_trials,
        attacker_kind="single_full",
        scenario=scenario,
        seed=seed,
    )
    rng = np.random.default_rng(seed + 11)
    table = ResultTable(
        title=(
            "T3: defense accuracy across generalisation splits"
            + spec.title_suffix()
        ),
        columns=["split", "model", "accuracy", "TPR", "FPR", "n test"],
    )
    with ExperimentEngine.scoped(engine, jobs) as eng:
        dataset = build_dataset(config)
        train, test = dataset.split(0.6, rng)
        held_command = "add_milk"
        train_cmd = dataset.filter(
            lambda meta: meta["command"] != held_command
        )
        test_cmd = dataset.filter(
            lambda meta: meta["command"] == held_command
        )
        train_near = dataset.filter(lambda meta: meta["distance_m"] < 3.0)
        test_far = dataset.filter(lambda meta: meta["distance_m"] >= 3.0)
        tasks = [
            ("random", "logistic", train, test),
            ("random", "svm", train, test),
            (
                f"held-out command ({held_command})",
                "logistic",
                train_cmd,
                test_cmd,
            ),
            ("held-out distance (3 m)", "logistic", train_near, test_far),
        ]
        for row in eng.map(_split_row, tasks):
            table.add_row(*row)
    return table
