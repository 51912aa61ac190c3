"""Command-line reporter for observability artifacts.

Render the report for a trace written with ``--trace``::

    python -m repro.obs report trace.jsonl

Add ``--json summary.json`` to also write the machine-readable
summary that CI consumes: the run's one machine-readable record of
its counts, durations and latencies, all derived from the trace.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.report import render_report, summarize
from repro.obs.trace import read_trace, unwritable_reason


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect the span trace of a run; `report TRACE "
        "--json PATH` writes its one machine-readable summary.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser(
        "report", help="render the text report for a JSONL trace"
    )
    report.add_argument("trace", help="path to a trace.jsonl file")
    report.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the machine-readable summary JSON here",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.json is not None:
        reason = unwritable_reason(args.json)
        if reason is not None:
            print(
                f"error: cannot write {args.json}: {reason}",
                file=sys.stderr,
            )
            return 2
    try:
        spans = read_trace(args.trace)
    except (OSError, ValueError) as error:
        print(f"error: cannot read {args.trace}: {error}", file=sys.stderr)
        return 2
    if not spans:
        print(f"error: {args.trace} contains no spans", file=sys.stderr)
        return 2
    print(render_report(spans), end="")
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summarize(spans), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"summary json -> {args.json}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
