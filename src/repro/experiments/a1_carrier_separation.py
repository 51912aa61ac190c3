"""A1 — ablation: carrier on its own speaker vs mixed into chunks.

When each chunk speaker also carries a share of the carrier, its
quadratic term regenerates ``2 a2 m_i(t) c`` — an audible, partially
intelligible copy of its slice of the command. Separating the carrier
removes this first-order product from every element; what remains is
the second-order chunk self-product. The ablation measures worst-chunk
leakage both ways, one array size per engine work unit. Like the
other bystander-at-0.5 m measurements, ``scenario`` tags the table
with the registry environment without altering the near-field
physics.
"""

from __future__ import annotations

from repro.attack.leakage import leakage_report, max_inaudible_drive
from repro.attack.splitter import SpectralSplitter
from repro.dsp.signals import Signal
from repro.hardware.devices import ultrasonic_piezo_element
from repro.sim.engine import ExperimentEngine, cached_voice
from repro.sim.results import ResultTable
from repro.sim.spec import get_scenario


def _carrier_row(
    task: tuple[int, Signal],
) -> tuple[int, float, float, float]:
    """Worker: leakage margins with and without carrier separation."""
    n_chunks, voice = task
    speaker = ultrasonic_piezo_element()
    margins = {}
    loudest = {}
    for separate in (True, False):
        splitter = SpectralSplitter(
            n_chunks=n_chunks, separate_carrier=separate
        )
        chunks = splitter.split(voice).chunks
        chunk_margins = [
            leakage_report(speaker, chunk.drive, 1.0, 0.5).margin_db
            for chunk in chunks
        ]
        margins[separate] = max(chunk_margins)
        loudest[separate] = chunks[chunk_margins.index(margins[separate])]
    # How hard the mixed design must throttle its loudest chunk:
    cap = max_inaudible_drive(speaker, loudest[False].drive, 0.5)
    return (n_chunks, margins[True], margins[False], cap)


def run(
    quick: bool = True,
    seed: int = 0,
    command: str = "ok_google",
    engine: ExperimentEngine | None = None,
    scenario: str = "free_field",
) -> ResultTable:
    """Leakage with and without carrier separation, per array size."""
    spec = get_scenario(scenario)
    voice = cached_voice(command, seed)
    counts = (4, 16) if quick else (4, 8, 16, 32, 61)
    table = ResultTable(
        title=(
            "A1: worst per-chunk leakage margin at full drive — "
            "separate vs mixed carrier" + spec.title_suffix()
        ),
        columns=[
            "chunks",
            "separate margin dB",
            "mixed margin dB",
            "mixed max inaudible drive",
        ],
    )
    if engine is None:
        engine = ExperimentEngine(jobs=1)
    rows = engine.map(
        _carrier_row, [(count, voice) for count in counts]
    )
    for row in rows:
        table.add_row(*row)
    return table
