"""Append fresh ``BENCH_*.json`` records to the perf trajectory.

CI's ``perf-gates`` job restores ``bench-trajectory.jsonl`` from the
previous run's cache (an empty or absent file on a cold cache is
fine — the append creates it), runs the benchmarks, then calls this
script so every commit adds one summarised line per benchmark —
machine metadata (cpu count, python, git sha) included, so points
from different runners are never compared naively. The file is plain
JSONL: one benchmark point per line, append-only, trivially
plottable.

A named record that does not exist on disk is an error, not a silent
skip — a benchmark that failed to write its JSON must fail the job
here rather than quietly thin the trajectory. After appending, the
script reads the trajectory back and verifies the new tail really
carries this run's records (and, with ``--expect-sha``, this run's
commit), so a cache misconfiguration that drops the append can never
pass silently.

Usage::

    python benchmarks/trajectory.py BENCH_stream.json BENCH_obs.json
    python benchmarks/trajectory.py BENCH_*.json --output history.jsonl
    python benchmarks/trajectory.py BENCH_*.json --expect-sha "$GITHUB_SHA"
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.sim.bench import append_trajectory


def verify_tail(
    trajectory_path: str | Path,
    expected_sources: list[str],
    expect_sha: str | None,
) -> list[str]:
    """Check the trajectory's tail carries this run's appends.

    Returns a list of human-readable problems (empty when the tail is
    healthy): the file must exist, be non-empty, parse as JSONL, end
    with one line per appended record (matched by source name), and —
    when ``expect_sha`` is given — attribute those lines to that
    commit.
    """
    path = Path(trajectory_path)
    if not path.exists():
        return [f"{path} was not created by the append"]
    lines = [
        line
        for line in path.read_text().splitlines()
        if line.strip()
    ]
    if len(lines) < len(expected_sources):
        return [
            f"{path} holds {len(lines)} point(s), fewer than the "
            f"{len(expected_sources)} just appended"
        ]
    problems = []
    tail = lines[-len(expected_sources):]
    tail_points = []
    for line in tail:
        try:
            tail_points.append(json.loads(line))
        except json.JSONDecodeError as error:
            problems.append(f"unparseable trajectory line: {error}")
            return problems
    tail_sources = [point.get("source") for point in tail_points]
    if sorted(tail_sources) != sorted(expected_sources):
        problems.append(
            f"trajectory tail carries {tail_sources}, expected "
            f"{expected_sources}"
        )
    if expect_sha:
        for point in tail_points:
            sha = (point.get("machine") or {}).get("git_sha")
            if sha != expect_sha:
                problems.append(
                    f"trajectory point from {point.get('source')} "
                    f"carries git sha {sha!r}, expected {expect_sha!r}"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="append BENCH_*.json points to the perf trajectory"
    )
    parser.add_argument(
        "records",
        nargs="+",
        help="BENCH_*.json files to summarise and append (each must "
        "exist)",
    )
    parser.add_argument(
        "--output",
        default="bench-trajectory.jsonl",
        help="trajectory file to append to (default: "
        "bench-trajectory.jsonl; created if absent)",
    )
    parser.add_argument(
        "--expect-sha",
        default=None,
        help="verify the appended points carry this git sha (CI "
        "passes $GITHUB_SHA)",
    )
    args = parser.parse_args(argv)
    missing = [
        record for record in args.records if not Path(record).exists()
    ]
    if missing:
        print(
            "FAIL: benchmark record(s) missing, refusing a silent "
            f"skip: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 1
    appended = append_trajectory(args.records, args.output)
    print(
        f"appended {appended} point(s) to {args.output}",
        file=sys.stderr,
    )
    if appended != len(args.records):
        print(
            f"FAIL: expected {len(args.records)} appended point(s), "
            f"got {appended}",
            file=sys.stderr,
        )
        return 1
    problems = verify_tail(
        args.output,
        [Path(record).name for record in args.records],
        args.expect_sha,
    )
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if problems:
        return 1
    total = sum(
        1
        for line in Path(args.output).read_text().splitlines()
        if line.strip()
    )
    print(
        f"verified trajectory tail; {total} point(s) on record",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
