"""F2 — audible self-leakage of a single speaker vs drive power.

The motivating measurement of the long-range design: as the single
wideband speaker's drive rises, its own nonlinearity demodulates the AM
waveform and the rig becomes audible to a bystander. Leakage SPL grows
~40 dB per decade of drive power (the quadratic term), crossing the
hearing threshold far below the power needed for long range.

The power points are independent, so the engine fans them out; each
worker rebuilds the (deterministic) speaker preset locally and only
the shared drive waveform is shipped.

``scenario`` tags the table with the registry environment. Leakage is
a *near-field* bystander measurement — at 0.5 m the direct wave
dominates any room reflection by an order of magnitude and the
threshold model is the unmasked hearing threshold — so the
environment labels the run without altering the physics; the flag
exists so every experiment shares the CLI's scenario axis.
"""

from __future__ import annotations

from repro.attack.leakage import leakage_report
from repro.attack.pipeline import AttackPipeline
from repro.dsp.signals import Signal
from repro.hardware.devices import horn_tweeter
from repro.sim.engine import ExperimentEngine, cached_voice
from repro.sim.results import ResultTable
from repro.sim.spec import get_scenario


def _leakage_row(
    task: tuple[Signal, float, float],
) -> tuple[float, float, float, float, bool]:
    """Worker: leakage report for one drive-power fraction."""
    drive, fraction, bystander_distance_m = task
    speaker = horn_tweeter()
    power = fraction * speaker.config.max_electrical_power_w
    level = speaker.drive_level_for_power(power)
    report = leakage_report(speaker, drive, level, bystander_distance_m)
    return (
        power,
        level,
        report.a_weighted_level_dba,
        report.margin_db,
        report.is_audible,
    )


def run(
    quick: bool = True,
    seed: int = 0,
    command: str = "ok_google",
    bystander_distance_m: float = 0.5,
    engine: ExperimentEngine | None = None,
    scenario: str = "free_field",
) -> ResultTable:
    """Sweep drive power; report leakage level and audibility margin."""
    spec = get_scenario(scenario)
    voice = cached_voice(command, seed)
    drive = AttackPipeline().generate(voice)
    if quick:
        fractions = (0.01, 0.1, 0.5, 1.0)
    else:
        fractions = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 0.5, 1.0)
    table = ResultTable(
        title=(
            "F2: single-speaker audible leakage vs drive power "
            f"(bystander at {bystander_distance_m} m)"
            + spec.title_suffix()
        ),
        columns=[
            "power W",
            "drive level",
            "leakage dBA",
            "margin dB",
            "audible",
        ],
    )
    tasks = [
        (drive, fraction, bystander_distance_m) for fraction in fractions
    ]
    if engine is None:
        engine = ExperimentEngine(jobs=1)
    for row in engine.map(_leakage_row, tasks):
        table.add_row(*row)
    return table
