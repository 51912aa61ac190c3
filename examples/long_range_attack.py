"""The long-range attack: spectrum splitting across a speaker array.

Demonstrates the paper's headline result. A single speaker capped at
the maximum *inaudible* drive fails beyond arm's length, while an
array — every element of which is individually inaudible to a
bystander half a metre away — injects the command from several metres.
The closing sentence is computed from the measured table, and the
script exits non-zero if the array does not outrange the capped
speaker.

Run: ``python examples/long_range_attack.py``   (takes ~15 s)
"""

import sys

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
TRIALS = 3

voice = synthesize_command(COMMAND, rng)
device = VictimDevice.phone(seed=1)
scenario = Scenario(
    command=COMMAND,
    attacker_position=ORIGIN,
    victim_position=Position(1.0, 2.0, 1.0),
)


def reach_m(sources, distances):
    """Print successes per distance; return the farthest distance at
    which most injections were recognised (0.0 if none)."""
    reach = 0.0
    for distance in distances:
        pipeline = build_pipeline(scenario.at_distance(distance), device)
        outcomes = pipeline.run_trials(
            pipeline.context(sources), rng.spawn(TRIALS)
        )
        successes = sum(o.success for o in outcomes)
        print(
            f"  {distance:4.2f} m: {successes}/{TRIALS} injections "
            "recognised"
        )
        if 2 * successes > TRIALS:
            reach = distance
    return reach


# --- The paper's rig: a panel of piezo elements ----------------------
reaches = {}
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
    reaches[n_elements] = reach_m(emission.sources, (2.0, 4.0, 6.0, 8.0))

# --- Baseline: one wideband speaker, capped to stay inaudible --------
single = SingleSpeakerAttacker(horn_tweeter(), ORIGIN)
capped = single.emit_inaudibly(voice)
print(
    f"\nsingle speaker capped at its max inaudible drive "
    f"({capped.drive_level:.3f} of full power):"
)
single_reach = reach_m(capped.sources, (0.25, 0.5, 1.0, 2.0))

panel_reach = reaches[61]
print(
    f"\nThe capped single speaker injects out to {single_reach:.2f} m; "
    f"the 61-element panel still injects at {panel_reach:.1f} m "
    f"({panel_reach / 0.3048:.0f} ft; the paper's prototype reached "
    "25 ft)."
)
sys.exit(0 if panel_reach > single_reach else 1)
