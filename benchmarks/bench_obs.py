"""Benchmark the observability overhead: tracing must be near-free.

The ``repro.obs`` contract has two halves and this bench gates both:

* **Bitwise inertness** — running the fleet workload under an active
  tracer must produce the byte-identical digest to the untraced run. Tracing reads clocks and appends spans; it
  never touches an experiment RNG stream or a sample buffer.
* **Overhead tripwire** — the traced pass may cost at most
  ``MAX_OVERHEAD`` extra wall clock over the untraced pass on the
  same workload (min-of-``REPEATS`` on both sides, interleaved so
  thermal drift hits both). The hot stream kernel amortises its span
  records over whole stream-groups, so the expected overhead is well
  under the gate.

The record lands in ``BENCH_obs.json`` with the shared machine
stamp, so CI tracks the overhead trajectory run over run::

    python benchmarks/bench_obs.py --quick    # CI smoke
    python benchmarks/bench_obs.py            # full workload
    python benchmarks/bench_obs.py --output /tmp/bench.json

Exits non-zero if the digests differ or the overhead gate trips.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

from repro.experiments.s1_streaming import train_detector
from repro.obs.trace import Tracer, activate
from repro.sim.bench import write_bench_record
from repro.sim.results import ResultTable
from repro.stream.fleet import FleetConfig, FleetSimulator

#: Maximum fractional wall-clock cost of enabling tracing on the
#: fleet workload (a <3% tripwire).
MAX_OVERHEAD = 0.03

#: Passes per side; fastest wall clock wins (min-of-N: interference
#: only ever adds time). Traced and untraced passes interleave so a
#: thermal or noisy-neighbor drift cannot land on one side only.
REPEATS = 5


def _config(quick: bool, seed: int, scenario: str) -> FleetConfig:
    """The bench_stream duty cycle, sized so span records are a
    measurable fraction only if they are actually expensive."""
    return FleetConfig(
        scenario=scenario,
        n_streams=32 if quick else 120,
        utterances_per_stream=1,
        attack_fraction=0.5,
        lead_in_s=0.5,
        gap_s=3.0 if quick else 10.0,
        chunk_s=0.05,
        seed=seed + 3,
    )


def bench_overhead(quick: bool, seed: int, scenario: str) -> dict:
    detector = train_detector(scenario, seed, n_trials=2)
    config = _config(quick, seed, scenario)
    walls = {False: None, True: None}
    digests = {False: None, True: None}
    span_count = 0
    for _ in range(REPEATS):
        for traced in (False, True):
            gc.collect()
            tracer = Tracer()
            started = time.perf_counter()
            if traced:
                with activate(tracer):
                    report = FleetSimulator(detector, config).run()
            else:
                report = FleetSimulator(detector, config).run()
            wall = time.perf_counter() - started
            digest = report.digest()
            if digests[traced] is None:
                digests[traced] = digest
            elif digests[traced] != digest:
                raise AssertionError(
                    "fleet digest drifted between passes"
                )
            if walls[traced] is None or wall < walls[traced]:
                walls[traced] = wall
            if traced:
                span_count = len(tracer.spans)
    overhead = walls[True] / walls[False] - 1.0
    return {
        "workload": (
            f"fleet: {config.n_streams} streams x "
            f"{config.utterances_per_stream} utterance, "
            f"{config.gap_s:.0f} s idle gap ({scenario})"
        ),
        "n_streams": config.n_streams,
        "repeats": REPEATS,
        "untraced_wall_s": walls[False],
        "traced_wall_s": walls[True],
        "overhead": overhead,
        "max_overhead": MAX_OVERHEAD,
        "span_count": span_count,
        "digest_identical": digests[False] == digests[True],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="observability: digest inertness + overhead gate"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller fleet (CI smoke); same inertness and "
        f"<= {MAX_OVERHEAD:.0%} overhead gates as full mode",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scenario", default="free_field")
    parser.add_argument(
        "--output",
        default="BENCH_obs.json",
        help="where to write the JSON record (default: BENCH_obs.json)",
    )
    args = parser.parse_args(argv)
    result = bench_overhead(args.quick, args.seed, args.scenario)
    write_bench_record(
        args.output,
        {
            "benchmark": "observability overhead + digest inertness",
            "quick": args.quick,
            "seed": args.seed,
            "scenario": args.scenario,
            "results": [result],
        },
    )
    table = ResultTable(
        title="observability: traced vs untraced fleet",
        columns=[
            "workload", "untraced s", "traced s", "overhead", "spans",
        ],
    )
    table.add_row(
        result["workload"],
        result["untraced_wall_s"],
        result["traced_wall_s"],
        f"{result['overhead']:+.1%}",
        result["span_count"],
    )
    print(table.render())
    print(f"wrote {args.output}", file=sys.stderr)
    if not result["digest_identical"]:
        print(
            "FAIL: tracing changed the fleet digest", file=sys.stderr
        )
        return 1
    if result["overhead"] > result["max_overhead"]:
        print(
            f"FAIL: tracing overhead {result['overhead']:+.1%}, gate "
            f"is {result['max_overhead']:.0%}",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: digest bitwise under tracing, {result['span_count']} "
        f"spans at {result['overhead']:+.1%} overhead",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
