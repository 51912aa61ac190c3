"""F1 — the nonlinearity demodulation demo.

Reproduces the paper family's three-panel figure (normal voice, attack
ultrasound, microphone recording) as band-power summaries: the attack
waveform carries essentially *no* audible-band energy, yet the
recording carries the voice band back — demodulated by the microphone
alone. ``scenario`` records the third panel in a registered
environment (reflections and the scene's noise floor included); the
demodulated voice band survives them all.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.signals import Signal
from repro.dsp.spectrum import welch_psd
from repro.experiments._emissions import single_full
from repro.hardware.devices import android_phone_microphone
from repro.sim.engine import EmissionSpec, ExperimentEngine, cached_voice
from repro.sim.pipeline import build_pipeline
from repro.sim.results import ResultTable
from repro.sim.spec import get_scenario


def _band_fractions_db(signal: Signal) -> tuple[float, float, float]:
    """(voice 0.3-8k, mid 8-20k, ultrasonic >20k) power in dB rel total."""
    psd = welch_psd(
        signal, segment_length=min(8192, signal.n_samples), window="blackman"
    )
    total = max(psd.total_power(), 1e-30)

    def frac(low: float, high: float) -> float:
        high = min(high, signal.nyquist)
        if high <= low:
            return -300.0
        return float(
            10.0 * np.log10(max(psd.band_power(low, high), 1e-30) / total)
        )

    return (
        frac(300.0, 8000.0),
        frac(8000.0, 20000.0),
        frac(20000.0, signal.nyquist),
    )


def _band_row(task: tuple[str, Signal]) -> tuple[str, float, float, float]:
    """Worker: one labelled band-power summary row."""
    label, signal = task
    return (label, *_band_fractions_db(signal))


def run(
    quick: bool = True,
    seed: int = 0,
    command: str = "ok_google",
    distance_m: float = 2.0,
    jobs: int = 1,
    engine: ExperimentEngine | None = None,
    scenario: str = "free_field",
) -> ResultTable:
    """Generate the three signals and summarise their spectra.

    The ``quick`` flag exists for interface uniformity; F1 is cheap
    either way.
    """
    del quick
    spec = get_scenario(scenario)
    rng = np.random.default_rng(seed)
    voice = cached_voice(command, seed)
    emission = EmissionSpec(single_full, (command, seed)).emission()
    # max_distance_m already returns min(ceiling, room span).
    built = spec.build(command, spec.max_distance_m(distance_m))
    # One trial of the recording pipeline, so the scene's reflections
    # AND its interference bed reach the microphone (channel.receive
    # alone would silently drop a TV across the room).
    pipeline = build_pipeline(
        built, android_phone_microphone(), recognize=False
    )
    (recording,) = pipeline.run_trials(
        pipeline.context(list(emission.sources)), [rng]
    )

    table = ResultTable(
        title=(
            "F1: band power (dB rel total) of the normal voice, the "
            "attack ultrasound and the microphone recording"
            + spec.title_suffix()
        ),
        columns=[
            "signal",
            "voice 0.3-8 kHz",
            "mid 8-20 kHz",
            "ultra >20 kHz",
        ],
    )
    tasks = [
        ("normal voice", voice),
        ("attack ultrasound", emission.drive),
        ("mic recording", recording),
    ]
    with ExperimentEngine.scoped(engine, jobs) as eng:
        for row in eng.map(_band_row, tasks):
            table.add_row(*row)
    return table
