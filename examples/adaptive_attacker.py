"""An adaptive attacker tries to evade the defense.

The defense keys on the quadratic demodulation residue. The attacker's
only lever over that residue (without losing the attack entirely) is
the modulation depth: shallower modulation leaves a fainter trace —
and a fainter *command*. This example sweeps the depth and shows both
sides of the trade.

Run: ``python examples/adaptive_attacker.py``   (takes ~1 minute)
"""

import numpy as np

from repro import (
    DatasetConfig,
    Position,
    SingleSpeakerAttacker,
    build_dataset,
    horn_tweeter,
    synthesize_command,
)
from repro.attack import AttackPipelineConfig
from repro.defense import InaudibleVoiceDetector
from repro.sim import Scenario, VictimDevice, build_pipeline

rng = np.random.default_rng(11)
ORIGIN = Position(0.0, 2.0, 1.0)

# The deployed detector: trained on ordinary full-depth attacks.
train = build_dataset(
    DatasetConfig(
        commands=("ok_google", "alexa"),
        distances_m=(1.0, 2.0),
        n_trials=5,
        attacker_kind="single_full",
        seed=5,
    )
)
detector = InaudibleVoiceDetector().fit(train)

device = VictimDevice.phone(seed=2)
scenario = Scenario(
    command="ok_google",
    attacker_position=ORIGIN,
    victim_position=Position(2.0, 2.0, 1.0),
)
pipeline = build_pipeline(scenario, device)
voice = synthesize_command("ok_google", rng)

print("mod depth   attack success   detected   mean detector score")
for depth in (1.0, 0.5, 0.25, 0.15):
    attacker = SingleSpeakerAttacker(
        horn_tweeter(), ORIGIN, AttackPipelineConfig(modulation_depth=depth)
    )
    emission = attacker.emit(voice, drive_level=1.0)
    # Five trials of the same emission, each with fresh noise.
    outcomes = pipeline.run_trials(
        pipeline.context(emission.sources), rng.spawn(5)
    )
    success = sum(o.success for o in outcomes) / len(outcomes)
    verdicts = [detector.classify(o.recording) for o in outcomes]
    detected = sum(v.is_attack for v in verdicts) / len(verdicts)
    score = float(np.mean([v.score for v in verdicts]))
    print(
        f"{depth:9.2f}   {success:14.2f}   {detected:8.2f}   {score:10.3f}"
    )

print(
    "\nShallower modulation starves the attack before it hides the "
    "trace: the defense wins the trade."
)
