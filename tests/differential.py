"""Shared bitwise-comparison helpers for the differential oracles.

The chunking-invariance property (:func:`assert_chunking_invariant`)
runs over every registered scenario (``tests/sim/test_scenarios.py``)
and over generated environments (``tests/sim/test_fuzz.py``); the
engine and subclass suites compare lists of
:class:`~repro.sim.pipeline.TrialOutcome` too. One definition of
"identical" — fields *and* recorded waveforms, byte for byte — keeps
the oracle itself from drifting between files. Import it like the
strategies module (``tests/`` is on ``sys.path``)::

    from differential import outcomes_identical
"""

from __future__ import annotations

import numpy as np

from repro.sim.pipeline import build_pipeline

#: Chunk sizes the invariance property compares: one trial at a time,
#: a size that splits the trials unevenly, and the production chunk
#: (``None``: sized by the pipeline's cell budget).
CHUNK_SIZES = (1, 3, None)


def outcomes_identical(a, b, compare_recordings: bool = True) -> bool:
    """Whether two trial-outcome sequences agree bitwise.

    Compares success, recognized command, acceptance and DTW distance
    per trial; with ``compare_recordings`` (the default) the recorded
    waveforms must also match sample for sample.
    """
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (
            x.success != y.success
            or x.recognized_command != y.recognized_command
            or x.accepted != y.accepted
            or x.distance != y.distance
        ):
            return False
        if compare_recordings:
            if (x.recording is None) != (y.recording is None):
                return False
            if x.recording is not None and not np.array_equal(
                x.recording.samples, y.recording.samples
            ):
                return False
    return True


def assert_chunking_invariant(
    scenario,
    device,
    sources,
    n_trials: int = 4,
    seed: int = 5,
    **pipeline_options,
):
    """Every chunk size in :data:`CHUNK_SIZES` gives the same rows.

    Builds the (scenario, device) pipeline with ``pipeline_options``
    (``recognize``, ``gain_stage``, ...), runs
    ``n_trials`` trials of it through
    :meth:`~repro.sim.pipeline.TrialPipeline.run_trials` at each chunk
    size from identically spawned generators, and asserts the rows —
    trial outcomes, or recordings for a pipeline that ends at the ADC
    — agree bitwise. Returns the rows of the first chunk size.
    """
    pipeline = build_pipeline(scenario, device, **pipeline_options)
    ctx = pipeline.context(sources)
    runs = [
        pipeline.run_trials(
            ctx,
            np.random.default_rng(seed).spawn(n_trials),
            chunk_trials=chunk_trials,
        )
        for chunk_trials in CHUNK_SIZES
    ]
    for chunk_trials, rows in zip(CHUNK_SIZES[1:], runs[1:]):
        if pipeline_options.get("recognize", True):
            same = outcomes_identical(runs[0], rows)
        else:
            same = len(rows) == len(runs[0]) and all(
                np.array_equal(x.samples, y.samples)
                for x, y in zip(runs[0], rows)
            )
        assert same, f"chunk_trials={chunk_trials} changed the rows"
    return runs[0]
