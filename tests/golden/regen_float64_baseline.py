"""Regenerate ``float64_baseline.json`` — the golden-mode digests.

The baseline freezes the *default* (float64) numerics: sha256 digests
of a small defense dataset build and a T2 trial-group run. The test
suite (``tests/test_float64_baseline.py``) recomputes both and
compares, so any change to the golden-path numbers — however the code
got faster — fails loudly instead of drifting silently.

Run this ONLY for an intentional, reviewed numerical change::

    PYTHONPATH=src python tests/golden/regen_float64_baseline.py

The script recomputes the digests from the configs embedded in the
JSON and rewrites the file in place, preserving the comment and
config blocks.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

BASELINE_PATH = Path(__file__).with_name("float64_baseline.json")


def dataset_digests(config_block: dict) -> tuple[str, str]:
    """Sha256 of the dataset features and labels for a config block."""
    from repro.defense.dataset import DatasetConfig, build_dataset

    config = DatasetConfig(
        commands=tuple(config_block["commands"]),
        distances_m=tuple(config_block["distances_m"]),
        n_trials=config_block["n_trials"],
        attacker_kind=config_block["attacker_kind"],
        seed=config_block["seed"],
    )
    dataset = build_dataset(config)
    return (
        hashlib.sha256(dataset.features.tobytes()).hexdigest(),
        hashlib.sha256(dataset.labels.tobytes()).hexdigest(),
    )


def t2_digest(group_block: dict) -> str:
    """Sha256 over the (success, distance) reprs of a T2 group run."""
    from repro.experiments._emissions import array_split
    from repro.sim.engine import (
        EmissionSpec,
        ExperimentEngine,
        TrialGroup,
    )
    from repro.sim.scenario import VictimDevice
    from repro.sim.spec import get_scenario

    assert group_block["emission"][0] == "array_split"
    assert group_block["device"] == "phone(seed=1)"
    scenario = get_scenario(group_block["scenario"]).build(
        group_block["command"], group_block["distance_m"]
    )
    group = TrialGroup(
        scenario,
        VictimDevice.phone(seed=1),
        EmissionSpec(array_split, tuple(group_block["emission"][1])),
        group_block["n_trials"],
    )
    engine = ExperimentEngine(jobs=1)
    outcomes = engine.run_trial_groups(
        [group],
        np.random.default_rng(group_block["engine_seed"]),
        keep_recordings=False,
    )[0]
    blob = "".join(
        repr((bool(o.success), float(o.distance))) for o in outcomes
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def main() -> None:
    baseline = json.loads(BASELINE_PATH.read_text())
    features, labels = dataset_digests(baseline["dataset_config"])
    baseline["features_sha256"] = features
    baseline["labels_sha256"] = labels
    baseline["t2_outcomes_sha256"] = t2_digest(baseline["t2_group"])
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"rewrote {BASELINE_PATH}")
    print(f"  features_sha256    {features}")
    print(f"  labels_sha256      {labels}")
    print(f"  t2_outcomes_sha256 {baseline['t2_outcomes_sha256']}")


if __name__ == "__main__":
    main()
