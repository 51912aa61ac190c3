"""Benchmark the trial pipeline: chunk of one vs stacked chunks.

The trial pipeline has one kernel per stage, and a single trial is a
chunk of one. This bench runs the same trial groups through
:meth:`~repro.sim.pipeline.TrialPipeline.run_trials` at
``chunk_trials=1`` and at the production default, which sizes chunks
by the pipeline's cell budget
(:func:`~repro.sim.pipeline.chunk_trials_for`), verifies the two give
bitwise identical outcomes (successes, DTW distances and recorded
waveforms) and times both:

* **T2 split array** — the 32-speaker split-array success-rate cell
  in the free field, recognition included;
* **walking attacker** — the same cell under the mobile attacker,
  adding the per-trial motion-gain stage.

Each timing is the best of several passes over one precomputed
trial context, so the numbers isolate the per-trial stages. A
separate traced pass records one span per stage call, and
:meth:`~repro.sim.pipeline.StageProfile.from_spans` turns them into
the per-stage breakdown. Results and breakdown go to
``BENCH_pipeline.json`` so CI records the perf trajectory run over
run::

    python benchmarks/bench_pipeline.py --quick    # CI smoke
    python benchmarks/bench_pipeline.py            # 50-trial groups
    python benchmarks/bench_pipeline.py --output /tmp/bench.json

Exits non-zero if the chunk sizes disagree, or if stacked chunks are
slower than one trial at a time.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.experiments._emissions import array_split
from repro.obs.trace import Tracer, activate
from repro.sim.bench import write_bench_record
from repro.sim.engine import EmissionSpec
from repro.sim.pipeline import (
    StageProfile,
    build_pipeline,
    chunk_trials_for,
)
from repro.sim.results import ResultTable
from repro.sim.scenario import VictimDevice
from repro.sim.spec import get_scenario

#: Stacked chunks must be at least this fast relative to one trial at
#: a time.
MIN_SPEEDUP = 1.0

#: Timed passes per chunk size; the best counts.
REPEATS = 3


def _identical(a, b) -> bool:
    """Bitwise equality of two outcome lists, recordings included."""
    return len(a) == len(b) and all(
        x.success == y.success
        and x.recognized_command == y.recognized_command
        and x.accepted == y.accepted
        and x.distance == y.distance
        and np.array_equal(x.recording.samples, y.recording.samples)
        for x, y in zip(a, b)
    )


def _group(scenario_name: str, seed: int):
    """The pipeline and trial context of one T2-class cell."""
    scenario = get_scenario(scenario_name).build("ok_google", 3.0)
    pipeline = build_pipeline(scenario, VictimDevice.phone(seed=seed + 1))
    sources = EmissionSpec(array_split, ("ok_google", seed, 32)).sources()
    return pipeline, pipeline.context(sources)


def bench_trial_group(
    label: str, scenario_name: str, quick: bool, seed: int
) -> dict:
    """Chunk-of-one vs stacked timing for one trial-group cell."""
    n_trials = 10 if quick else 50
    pipeline, ctx = _group(scenario_name, seed)
    # ``None`` is the budget-sized default chunk.
    best = {1: float("inf"), None: float("inf")}
    outcomes = {}
    for _ in range(REPEATS):
        for chunk_trials in best:
            rngs = np.random.default_rng(seed).spawn(n_trials)
            started = time.perf_counter()
            outcomes[chunk_trials] = pipeline.run_trials(
                ctx, rngs, chunk_trials=chunk_trials
            )
            best[chunk_trials] = min(
                best[chunk_trials], time.perf_counter() - started
            )
    return {
        "workload": f"{label} ({n_trials} trials)",
        "chunk1_s": best[1],
        "chunked_s": best[None],
        "chunk_trials": chunk_trials_for(ctx),
        "speedup": best[1] / best[None],
        "identical": _identical(outcomes[1], outcomes[None]),
        "min_speedup": MIN_SPEEDUP,
    }


def profile_stages(quick: bool, seed: int) -> StageProfile:
    """Per-stage wall-time breakdown of the T2 cell, from spans.

    A separate traced pass (the timed runs above stay untraced): the
    executor records one span per stage call, so the JSON artifact
    records *where* the time goes — the first thing to look at when
    the gate trips.
    """
    n_trials = 10 if quick else 50
    pipeline, ctx = _group("free_field", seed)
    tracer = Tracer()
    with activate(tracer):
        pipeline.run_trials(ctx, np.random.default_rng(seed).spawn(n_trials))
    return StageProfile.from_spans(tracer.spans)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="trial pipeline: chunk of one vs stacked chunks"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="10-trial groups instead of 50 (CI smoke)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output",
        default="BENCH_pipeline.json",
        help="where to write the JSON record (default: "
        "BENCH_pipeline.json)",
    )
    args = parser.parse_args(argv)
    results = [
        bench_trial_group(
            "T2 split array", "free_field", args.quick, args.seed
        ),
        bench_trial_group(
            "walking attacker", "walking_attacker", args.quick, args.seed
        ),
    ]
    profile = profile_stages(args.quick, args.seed)
    write_bench_record(
        args.output,
        {
            "benchmark": "trial-pipeline chunk of one vs stacked",
            "quick": args.quick,
            "seed": args.seed,
            "repeats": REPEATS,
            "results": results,
            "stages": profile.as_rows(),
        },
    )
    table = ResultTable(
        title=(
            "trial pipeline: chunk of one vs budget-sized chunks "
            f"(single worker, best of {REPEATS})"
        ),
        columns=[
            "workload", "chunk trials", "chunk 1 s", "chunked s", "speedup"
        ],
    )
    for result in results:
        table.add_row(
            result["workload"],
            result["chunk_trials"],
            result["chunk1_s"],
            result["chunked_s"],
            result["speedup"],
        )
    print(table.render())
    print(profile.render(), file=sys.stderr)
    print(f"wrote {args.output}", file=sys.stderr)
    if not all(result["identical"] for result in results):
        print(
            "FAIL: chunk sizes disagree on the outcomes", file=sys.stderr
        )
        return 1
    failed = [
        result for result in results if result["speedup"] < MIN_SPEEDUP
    ]
    for result in failed:
        print(
            f"FAIL: {result['workload']} at {result['speedup']:.2f}x, "
            f"gate {MIN_SPEEDUP:.2f}x",
            file=sys.stderr,
        )
    if failed:
        return 1
    print(
        "ok: speedups "
        + ", ".join(f"{r['speedup']:.2f}x" for r in results),
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
