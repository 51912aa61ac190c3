"""F5 — per-speaker audibility across array sizes.

Why splitting works, measured directly: as the chunk count grows, each
chunk narrows, its self-intermodulation residue slides below ~100 Hz
where both the hearing threshold and the element's radiation
efficiency collapse — so the worst per-speaker audibility margin drops
with N while the allocator's granted drive levels rise toward 1.

Each array size is an independent work unit fanned out by the engine;
workers ship back four numbers, not waveforms.

Like F2, this is a near-field bystander measurement (0.5 m direct
path, unmasked hearing threshold), so ``scenario`` tags the table
with the registry environment without altering the chunk physics.
"""

from __future__ import annotations

from repro.attack.leakage import leakage_report
from repro.attack.splitter import SpectralSplitter
from repro.dsp.signals import Signal
from repro.hardware.devices import ultrasonic_piezo_element
from repro.sim.engine import ExperimentEngine, cached_voice
from repro.sim.results import ResultTable
from repro.sim.spec import get_scenario


def _split_row(
    task: tuple[int, Signal],
) -> tuple[int, float, float, int]:
    """Worker: split the voice N ways and report chunk audibility."""
    n_chunks, voice = task
    speaker = ultrasonic_piezo_element()
    plan = SpectralSplitter(n_chunks=n_chunks).split(voice)
    margins = [
        leakage_report(speaker, chunk.drive, 1.0, 0.5).margin_db
        for chunk in plan.chunks
    ]
    return (
        n_chunks,
        plan.chunk_bandwidth_hz(),
        max(margins),
        sum(margin > 0 for margin in margins),
    )


def run(
    quick: bool = True,
    seed: int = 0,
    command: str = "ok_google",
    engine: ExperimentEngine | None = None,
    scenario: str = "free_field",
) -> ResultTable:
    """Worst-chunk leakage margin at full drive, per array size."""
    spec = get_scenario(scenario)
    voice = cached_voice(command, seed)
    counts = (2, 8, 32) if quick else (1, 2, 4, 8, 16, 32, 61)
    table = ResultTable(
        title=(
            "F5: worst per-chunk audible leakage at FULL drive vs "
            "array size (bystander at 0.5 m)" + spec.title_suffix()
        ),
        columns=[
            "chunks",
            "chunk bw Hz",
            "worst margin dB",
            "audible chunks",
        ],
    )
    if engine is None:
        engine = ExperimentEngine(jobs=1)
    rows = engine.map(
        _split_row, [(count, voice) for count in counts]
    )
    for row in rows:
        table.add_row(*row)
    return table
