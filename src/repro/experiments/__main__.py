"""Command-line entry point for the experiment harness.

Run a single experiment::

    python -m repro.experiments F4

Run everything (quick mode) on every core::

    python -m repro.experiments all

Add ``--full`` for the full-resolution sweeps recorded in
EXPERIMENTS.md, ``--seed N`` to vary the master seed, and ``--jobs N``
to bound the worker pool (default: all CPU cores; ``--jobs 1`` runs
serially). ``--scenario NAME`` runs any experiment — every one of the
16 accepts it — in a registered environment (``repro.sim.spec``): a
reverberant room, a walking attacker, TV interference, outdoor wind;
``--list-scenarios`` prints the registry. ``--scenario random:<seed>``
instead *generates* a deterministic environment from the integer seed
(``repro.sim.fuzz``) — random room, multi-leg trajectory, multiple
interferers, weather — and echoes the generated spec to stderr for
reproduction. Rendered tables go to stdout and are byte-identical for
every ``--jobs`` value; per-experiment timings go to stderr.

``--trace PATH`` writes a JSONL span trace of the whole run (pipeline
stages, engine fan-out, stream-kernel cycles, shard lifecycles, each
utterance's defense decision). It is bitwise-inert: stdout stays
byte-identical to an untraced run. Render it with
``python -m repro.obs report PATH``; ``--json SUMMARY`` there writes
the one machine-readable summary of the run.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from contextlib import nullcontext
from dataclasses import replace

from repro.errors import ExperimentError, ReproError
from repro.experiments import ALL_EXPERIMENTS
from repro.obs import trace as obs_trace
from repro.sim.engine import ExperimentEngine, process_cache
from repro.sim.spec import get_scenario, scenario_names


def render_scenarios() -> str:
    """The registry as ``name - description`` lines."""
    lines = [
        f"{name:<18} {get_scenario(name).description}"
        for name in scenario_names()
    ]
    lines.append(
        f"{'random:<seed>':<18} deterministic generated environment "
        "(repro.sim.fuzz); same seed, same scenario"
    )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment ID (%s) or 'all'"
        % ", ".join(sorted(ALL_EXPERIMENTS)),
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="full-resolution sweeps (slow) instead of quick mode",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="quick mode — the default; the explicit flag exists for "
        "symmetry with --full and rejects the contradictory pair",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master random seed"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: cpu count; 1 = serial)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="process-shard count for the streaming fleet (S1); "
        "rendered tables are byte-identical for every value, "
        "throughput lines go to stderr",
    )
    parser.add_argument(
        "--streams",
        type=int,
        default=None,
        help="fleet size override for the streaming fleet (S1); "
        "the fleet digest stays bitwise identical across shard "
        "counts and kernel paths at any size",
    )
    parser.add_argument(
        "--scenario",
        default="free_field",
        help="environment to run in (default: free_field): a "
        "registered name (see --list-scenarios) or random:<seed> to "
        "generate one deterministically from the integer seed",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="print the scenario registry with descriptions and exit",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL span trace of the whole run (render it "
        "with `python -m repro.obs report PATH`); stdout tables stay "
        "byte-identical to an untraced run",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.quick and args.full:
        print(
            "error: --quick and --full are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if args.list_scenarios:
        print(render_scenarios())
        return 0
    if args.experiment is None:
        parser.print_usage(sys.stderr)
        print(
            "error: an experiment ID (or 'all') is required unless "
            "--list-scenarios is given",
            file=sys.stderr,
        )
        return 2
    requested = args.experiment.upper()
    if requested == "ALL":
        names = list(ALL_EXPERIMENTS)
    elif requested in ALL_EXPERIMENTS:
        names = [requested]
    else:
        print(
            f"unknown experiment {args.experiment!r}; choose from "
            f"{sorted(ALL_EXPERIMENTS)} or 'all'",
            file=sys.stderr,
        )
        return 2
    # Resolve the scenario up front: a typo (or malformed
    # random:<seed>) fails before any experiment runs, and a
    # generated spec gets echoed to stderr before its tables render.
    try:
        get_scenario(args.scenario)
    except ExperimentError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.shards < 1:
        print(
            f"error: shards must be >= 1, got {args.shards}",
            file=sys.stderr,
        )
        return 2
    if args.streams is not None and args.streams < 1:
        print(
            f"error: streams must be >= 1, got {args.streams}",
            file=sys.stderr,
        )
        return 2
    if args.trace is not None:
        reason = obs_trace.unwritable_reason(args.trace)
        if reason is not None:
            print(
                f"error: cannot write {args.trace}: {reason}",
                file=sys.stderr,
            )
            return 2
    # One engine (one worker pool) shared by every experiment, so
    # pool start-up and per-process emission caches amortise across
    # the whole run.
    try:
        engine = ExperimentEngine(jobs=args.jobs)
    except ExperimentError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    # Tracing is opt-in: the tracer installs as the ambient collector
    # for the whole run, and the instrumented layers (pipeline,
    # engine, fleet, kernel, shards) feed it; each experiment span
    # carries the process cache's hits, misses and evictions over the
    # experiment and the bytes it holds at the end. It changes no stdout
    # byte — the CI observability job diffs traced vs untraced runs
    # to prove it.
    tracer = obs_trace.Tracer() if args.trace is not None else None
    cache = process_cache()
    with (
        obs_trace.activate(tracer) if tracer is not None else nullcontext()
    ), engine:
        for name in names:
            module = ALL_EXPERIMENTS[name]
            started = time.time()
            kwargs = dict(
                quick=not args.full,
                seed=args.seed,
                engine=engine,
                scenario=args.scenario,
            )
            # Only the streaming experiments take a shard count; the
            # flag is a no-op for the offline tables.
            if "shards" in inspect.signature(module.run).parameters:
                kwargs["shards"] = args.shards
            if (
                args.streams is not None
                and "streams"
                in inspect.signature(module.run).parameters
            ):
                kwargs["streams"] = args.streams
            try:
                with obs_trace.maybe_span(
                    "experiment",
                    experiment=name,
                    scenario=args.scenario,
                    seed=args.seed,
                ) as span_id:
                    # This process's cache only: pool workers keep
                    # their own.
                    before = replace(cache.stats)
                    table = module.run(**kwargs)
                    if tracer is not None:
                        tracer.annotate(
                            span_id,
                            cache_hits=cache.stats.hits - before.hits,
                            cache_misses=cache.stats.misses - before.misses,
                            cache_evictions=(
                                cache.stats.evictions - before.evictions
                            ),
                            cache_bytes=cache.nbytes,
                        )
            except ReproError as error:
                # A generated environment can be legitimately
                # unrunnable for a particular sweep (e.g. a room too
                # short for a pinned distance); fail that cleanly,
                # with the seed-bearing scenario name in the message.
                print(
                    f"error: [{name}] scenario {args.scenario!r}: "
                    f"{error}",
                    file=sys.stderr,
                )
                return 1
            elapsed = time.time() - started
            print(
                f"[{name}] finished in {elapsed:.1f} s "
                f"(jobs={engine.jobs})",
                file=sys.stderr,
            )
            print(f"=== {name}")
            print(table.render())
            print()
    if tracer is not None:
        n_spans = tracer.write_jsonl(args.trace)
        print(
            f"trace: {n_spans} spans -> {args.trace}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
