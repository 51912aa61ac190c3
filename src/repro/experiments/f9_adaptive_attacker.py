"""F9 — an adaptive attacker tries to hide the traces.

The trace the defense keys on is the quadratic term ``a2 m^2``; its
level relative to the wanted voice copy ``2 a2 m c`` scales with the
modulation depth. An adaptive attacker therefore lowers the depth to
shrink the trace — but the *same* scaling shrinks the delivered voice
command, costing SNR and range. This experiment sweeps depth and
reports both sides of the trade-off: detector score on attacked
recordings, and attack success rate.

The shape criterion: detection degrades gracefully as depth falls while
attack success collapses first — the defense wins the trade.

``scenario`` places the whole trade-off in a registered environment:
the detector trains on recordings made there, and the depth-swept
trials replay there too (rooms cap the attack distance at their
interior span).

All depth sweeps run as one wave of trial groups; the detector is
trained once in the parent process and classifies the recordings the
workers return.
"""

from __future__ import annotations

import numpy as np

from repro.defense.dataset import DatasetConfig, build_dataset
from repro.defense.detector import InaudibleVoiceDetector
from repro.experiments._emissions import single_at_depth
from repro.sim.engine import EmissionSpec, ExperimentEngine, TrialGroup
from repro.sim.results import ResultTable
from repro.sim.scenario import VictimDevice
from repro.sim.spec import get_scenario


def run(
    quick: bool = True,
    seed: int = 0,
    command: str = "ok_google",
    distance_m: float = 2.0,
    engine: ExperimentEngine | None = None,
    scenario: str = "free_field",
) -> ResultTable:
    """Sweep modulation depth; report detection and attack success."""
    depths = (
        (1.0, 0.5, 0.25)
        if quick
        else (1.0, 0.7, 0.5, 0.35, 0.25, 0.15)
    )
    spec = get_scenario(scenario)
    table = ResultTable(
        title=(
            "F9: adaptive attacker (modulation depth sweep) at "
            f"{spec.max_distance_m(distance_m)} m" + spec.title_suffix()
        ),
        columns=[
            "mod depth",
            "attack success",
            "detection rate",
            "mean det score",
        ],
    )
    for row in depth_sweep(
        depths, quick, seed, command, distance_m, engine, scenario
    ):
        table.add_row(*row)
    return table


def depth_sweep(
    depths: tuple[float, ...],
    quick: bool = True,
    seed: int = 0,
    command: str = "ok_google",
    distance_m: float = 2.0,
    engine: ExperimentEngine | None = None,
    scenario: str = "free_field",
) -> list[tuple[float, float, float, float]]:
    """``(depth, attack success, detection rate, mean det score)`` for
    each modulation depth, against the detector :func:`run` trains."""
    spec = get_scenario(scenario)
    rng = np.random.default_rng(seed)
    n_trials = 3 if quick else 10
    # Train the detector once, on full-depth attacks only — the
    # adaptive attacker deviates from the training distribution.
    train_config = DatasetConfig(
        commands=("ok_google", "alexa"),
        distances_m=(1.0, 2.0),
        n_trials=3 if quick else 8,
        attacker_kind="single_full",
        scenario=scenario,
        seed=seed,
    )
    device = VictimDevice.phone(seed=seed + 1)
    # max_distance_m already returns min(ceiling, room span).
    trial_scenario = spec.build(
        command, distance_m=spec.max_distance_m(distance_m)
    )
    groups = [
        TrialGroup(
            trial_scenario,
            device,
            EmissionSpec(single_at_depth, (command, seed, depth)),
            n_trials,
        )
        for depth in depths
    ]
    if engine is None:
        engine = ExperimentEngine(jobs=1)
    detector = InaudibleVoiceDetector().fit(build_dataset(train_config))
    per_depth = engine.run_trial_groups(groups, rng)
    rows = []
    for depth, outcomes in zip(depths, per_depth):
        success = sum(o.success for o in outcomes) / len(outcomes)
        verdicts = [detector.classify(o.recording) for o in outcomes]
        detection = sum(v.is_attack for v in verdicts) / len(verdicts)
        mean_score = float(np.mean([v.score for v in verdicts]))
        rows.append((depth, success, detection, mean_score))
    return rows
