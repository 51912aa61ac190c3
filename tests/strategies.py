"""Shared hypothesis strategies for the whole test suite.

One home for the generators that used to be duplicated per test file:
random waveforms and waveform batches (the batched-vs-scalar
equivalence properties), spatial geometry (positions, rooms,
positions constrained inside a room) and realistic sample rates.
Import from here (the ``tests/`` directory is on ``sys.path`` via the
root ``conftest.py``) rather than redefining per file::

    from strategies import rooms, interior_positions, signals
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.acoustics.geometry import Position, Room
from repro.dsp.signals import Signal, SignalBatch
from repro.sim.fuzz import generate_scenario

#: Bounded finite sample values — wide enough to exercise scaling,
#: narrow enough that squared sums stay finite.
finite_floats = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)

#: Realistic device/simulation sample rates (exact-ratio resampling
#: pairs among them).
sample_rates = st.sampled_from(
    [8000.0, 16000.0, 44100.0, 48000.0, 96000.0, 192000.0]
)

# -- batched-vs-scalar equivalence dimensions --------------------------
#: Random batch shapes, amplitudes and (realistic) rates, per the
#: equivalence contract of the vectorized trial kernel.
batch_rows = st.integers(min_value=1, max_value=4)
batch_samples = st.integers(min_value=128, max_value=512)
batch_amplitudes = st.floats(min_value=1e-3, max_value=1e3)
batch_rates = st.sampled_from([8000.0, 16000.0, 48000.0, 192000.0])
batch_seeds = st.integers(min_value=0, max_value=2**31)


def random_batch(
    seed: int, rows: int, samples: int, amplitude: float
) -> np.ndarray:
    """A reproducible ``(rows, samples)`` Gaussian sample matrix."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, samples)) * amplitude


# -- waveform containers ----------------------------------------------
@st.composite
def signals(
    draw,
    min_samples: int = 1,
    max_samples: int = 64,
    unit: str | None = None,
):
    """A :class:`Signal` with bounded finite samples and a real rate."""
    samples = draw(
        st.lists(finite_floats, min_size=min_samples, max_size=max_samples)
    )
    rate = draw(sample_rates)
    if unit is None:
        return Signal(samples, rate)
    return Signal(samples, rate, unit)


@st.composite
def signal_batches(
    draw,
    min_rows: int = 1,
    max_rows: int = 4,
    min_samples: int = 8,
    max_samples: int = 128,
):
    """A :class:`SignalBatch` of reproducible Gaussian rows."""
    seed = draw(batch_seeds)
    rows = draw(st.integers(min_value=min_rows, max_value=max_rows))
    samples = draw(
        st.integers(min_value=min_samples, max_value=max_samples)
    )
    amplitude = draw(batch_amplitudes)
    rate = draw(batch_rates)
    return SignalBatch(random_batch(seed, rows, samples, amplitude), rate)


# -- streaming ---------------------------------------------------------
@st.composite
def chunk_partitions(draw, n_samples: int, max_parts: int = 8):
    """A partition of ``n_samples`` into positive chunk lengths.

    Drives the streaming parity properties: any way of cutting one
    recording into pushes must reconstruct it exactly, so the
    streaming guard's verdict must match the offline one bitwise.
    Includes degenerate cuts (everything in one push, many tiny
    pushes) through the size bounds.
    """
    if n_samples < 1:
        raise ValueError("chunk_partitions needs n_samples >= 1")
    sizes = []
    remaining = n_samples
    parts = draw(st.integers(min_value=1, max_value=max_parts))
    for _ in range(parts - 1):
        if remaining <= 1:
            break
        cut = draw(st.integers(min_value=1, max_value=remaining - 1))
        sizes.append(cut)
        remaining -= cut
    sizes.append(remaining)
    return sizes


@st.composite
def index_partitions(draw, n: int, max_parts: int = 4):
    """A partition of ``range(n)`` into 1..``max_parts`` disjoint,
    non-empty groups — arbitrary membership *and* arbitrary order
    inside each group.

    Drives the sharded-fleet property: any way of assigning streams
    to shards (contiguous or not, sorted or not) must merge to the
    same fleet digest as the fleet run as one shard.
    """
    if n < 1:
        raise ValueError("index_partitions needs n >= 1")
    order = draw(st.permutations(list(range(n))))
    sizes = draw(chunk_partitions(n, max_parts=min(max_parts, n)))
    groups, start = [], 0
    for size in sizes:
        groups.append(order[start : start + size])
        start += size
    return groups


# -- scenario fuzzing --------------------------------------------------
#: Seeds of the generative scenario grammar (``repro.sim.fuzz``). The
#: CLI accepts exactly these integers as ``--scenario random:<seed>``,
#: so any falsifying seed hypothesis prints is replayable verbatim
#: from the command line.
fuzz_seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def generated_specs(draw):
    """A :class:`ScenarioSpec` drawn through the CLI's own grammar.

    Hypothesis and ``--scenario random:<seed>`` share one generator:
    the strategy draws a seed and maps it through
    :func:`repro.sim.fuzz.generate_scenario`, so shrinking happens in
    seed space and every counterexample names a reproducible scenario.
    """
    return generate_scenario(draw(fuzz_seeds))


# -- geometry ----------------------------------------------------------
#: Coordinates kept within a plausible scene so distances and
#: propagation losses stay well-conditioned.
coordinates = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


@st.composite
def positions(draw):
    """An arbitrary finite :class:`Position`."""
    return Position(draw(coordinates), draw(coordinates), draw(coordinates))


@st.composite
def rooms(draw):
    """A plausible rectangular :class:`Room` with valid absorption."""
    return Room(
        length_m=draw(st.floats(min_value=2.0, max_value=12.0)),
        width_m=draw(st.floats(min_value=2.0, max_value=8.0)),
        height_m=draw(st.floats(min_value=2.0, max_value=4.0)),
        wall_absorption=draw(st.floats(min_value=0.05, max_value=0.95)),
    )


@st.composite
def interior_positions(draw, room: Room, margin: float = 0.05):
    """A :class:`Position` strictly inside ``room``.

    ``margin`` keeps draws off the walls so image-source distances
    never degenerate to zero.
    """
    def axis(span: float):
        return st.floats(
            min_value=margin * span, max_value=(1.0 - margin) * span
        )

    return Position(
        draw(axis(room.length_m)),
        draw(axis(room.width_m)),
        draw(axis(room.height_m)),
    )
