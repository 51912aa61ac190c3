"""An adaptive attacker tries to evade the defense.

The defense keys on the quadratic demodulation residue. The attacker's
only lever over that residue (without losing the attack entirely) is
the modulation depth: shallower modulation leaves a fainter trace —
and a fainter *command*. This example sweeps the depth down until the
command no longer gets through, and computes its conclusion from the
table: the defense wins if the attack fails before it goes undetected.
The script exits non-zero if the sweep shows the opposite, or never
starves the attack.

Run: ``python examples/adaptive_attacker.py``   (takes ~5 s)
"""

import sys

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
rows = []
for depth in (1.0, 0.5, 0.25, 0.15, 0.05, 0.02, 0.01):
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
    rows.append((depth, success, detected))

# A depth "works" for the attacker when most injections succeed, and
# "hides" when most go undetected.
evading = [depth for depth, s, d in rows if s > 0.5 and d <= 0.5]
starved = [(depth, d) for depth, s, d in rows if s <= 0.5]
if evading:
    print(
        f"\nAt depth {evading[0]:.2f} the attack succeeds undetected: "
        "the attacker wins the trade."
    )
elif starved:
    depth, detected = starved[0]
    print(
        f"\nThe attack is detected at every depth where it succeeds, and "
        f"fails at depth {depth:.2f} (detection still {detected:.2f}): "
        "shallower modulation starves the attack before it hides the "
        "trace, so the defense wins the trade."
    )
else:
    print(
        "\nThe attack succeeds, and is detected, at every depth swept: "
        "this sweep does not show the trade."
    )
sys.exit(0 if starved and not evading else 1)
