"""The long-range attack: spectrum splitting across a speaker array.

Demonstrates the paper's headline result. A single speaker capped at
the maximum *inaudible* drive fails beyond arm's length, while an
array — every element of which is individually inaudible to a
bystander half a metre away — injects the command from several metres.

Run: ``python examples/long_range_attack.py``   (takes ~1 minute)
"""

import numpy as np

from repro import (
    LongRangeAttacker,
    Position,
    SingleSpeakerAttacker,
    grid_array,
    horn_tweeter,
    synthesize_command,
    ultrasonic_piezo_element,
)
from repro.psychoacoustics import evaluate_audibility
from repro.sim import Scenario, VictimDevice, build_pipeline

rng = np.random.default_rng(7)
COMMAND = "ok_google"
ORIGIN = Position(0.0, 2.0, 1.0)

voice = synthesize_command(COMMAND, rng)
device = VictimDevice.phone(seed=1)
scenario = Scenario(
    command=COMMAND,
    attacker_position=ORIGIN,
    victim_position=Position(1.0, 2.0, 1.0),
)

# --- Baseline: one wideband speaker, capped to stay inaudible --------
single = SingleSpeakerAttacker(horn_tweeter(), ORIGIN)
capped = single.emit_inaudibly(voice)
print(
    f"single speaker: max inaudible drive = {capped.drive_level:.3f} "
    f"of full power"
)

# --- The paper's rig: a panel of piezo elements ----------------------
for n_elements in (8, 24, 61):
    array = grid_array(n_elements, ORIGIN, ultrasonic_piezo_element)
    attacker = LongRangeAttacker(array)
    emission = attacker.emit(voice)
    worst_margin = max(
        evaluate_audibility(source.pressure_at_1m).margin_db
        for source in emission.sources
    )
    print(
        f"\narray of {n_elements:2d} elements "
        f"({attacker.n_carrier} carrier + "
        f"{attacker.splitter.n_chunks} chunks), worst per-element "
        f"audibility margin {worst_margin:+.1f} dB (negative = silent):"
    )
    for distance in (2.0, 4.0, 6.0, 8.0):
        pipeline = build_pipeline(scenario.at_distance(distance), device)
        outcomes = pipeline.run_trials(
            pipeline.context(emission.sources), rng.spawn(3)
        )
        successes = sum(o.success for o in outcomes)
        print(f"  {distance:4.1f} m: {successes}/3 injections recognised")

print(
    "\nThe capped single speaker dies at ~0.5 m; the 61-element panel "
    "reaches past the paper's 25 ft."
)
