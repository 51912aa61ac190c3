"""Shared bitwise-comparison helpers for the differential oracles.

The chunking-invariance property (:func:`assert_chunking_invariant`:
splitting a group's trials over several executor calls changes no
bit) runs over every registered scenario
(``tests/sim/test_scenarios.py``) and over generated environments
(``tests/sim/test_fuzz.py``); the engine and subclass suites compare
lists of :class:`~repro.sim.pipeline.TrialOutcome` too. One definition
of "identical" — fields *and* recorded waveforms, byte for byte —
keeps the oracle itself from drifting between files. Import it like
the strategies module (``tests/`` is on ``sys.path``)::

    from differential import outcomes_identical
"""

from __future__ import annotations

import numpy as np

from repro.sim.pipeline import build_pipeline

#: Where the invariance property cuts the generators into separate
#: ``run_trials`` calls: ``[:1]``, ``[1:3]`` and ``[3:]``, against
#: one call over them all.
CALL_BOUNDS = (1, 3)


def run_in_calls(pipeline, ctx, rngs, bounds=CALL_BOUNDS) -> list:
    """``pipeline.run_trials`` over ``rngs`` cut at ``bounds``, one
    call per non-empty slice, the rows concatenated in order."""
    rngs = list(rngs)
    edges = [0, *bounds, len(rngs)]
    rows: list = []
    for start, stop in zip(edges, edges[1:]):
        if start < stop:
            rows.extend(pipeline.run_trials(ctx, rngs[start:stop]))
    return rows


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
    """One call over the trials equals the same trials split over
    several calls.

    Builds the (scenario, device) pipeline with ``pipeline_options``
    (``recognize``, ``gain_stage``, ...), runs ``n_trials`` trials of
    it through one
    :meth:`~repro.sim.pipeline.TrialPipeline.run_trials` call, then
    runs identically spawned generators on the same pipeline object
    split at :data:`CALL_BOUNDS`, and asserts the rows — trial
    outcomes, or recordings for a pipeline that ends at the ADC —
    agree bitwise. Returns the rows of the single call.
    """
    pipeline = build_pipeline(scenario, device, **pipeline_options)
    ctx = pipeline.context(sources)
    whole = pipeline.run_trials(
        ctx, np.random.default_rng(seed).spawn(n_trials)
    )
    split = run_in_calls(
        pipeline, ctx, np.random.default_rng(seed).spawn(n_trials)
    )
    if pipeline_options.get("recognize", True):
        same = outcomes_identical(whole, split)
    else:
        same = len(split) == len(whole) and all(
            np.array_equal(x.samples, y.samples)
            for x, y in zip(whole, split)
        )
    assert same, f"splitting the calls at {CALL_BOUNDS} changed the rows"
    return whole
