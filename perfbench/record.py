"""Record the output references ``references.json``.

Run from the repository root after an intentional output change::

    PYTHONPATH=src python3 perfbench/record.py suite
    PYTHONPATH=src python3 perfbench/record.py fleet_idle

``suite`` stores a SHA-256 per rendered experiment table for seeds
1 .. SUITE_SEEDS-1 (seed 0 is checked against ``tests/golden``
directly, and this script refuses to record if it no longer matches).
``fleet_idle`` stores one digest per stream for seeds
0 .. FLEET_SEEDS-1 and refuses to record unless the scalar per-stream
path (``FleetConfig(vectorized=False)``) gives the same digests.
``guard_dense`` needs no recording: its reference is the offline
guard, evaluated in every run.
"""

from __future__ import annotations

import json
import os
import sys

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"  # before NumPy loads: the benchmark's setting

import workloads  # noqa: E402


def record_suite() -> dict:
    suite = workloads.WORKLOADS["suite"]
    digests = {}
    for seed in range(workloads.SUITE_SEEDS):
        state = suite.setup(seed)
        outcome = suite.measure(state)
        if seed == 0:
            check = suite.check(state, outcome, {"suite": {}})
            if check["failed"]:
                raise SystemExit(
                    f"seed 0 differs from tests/golden: {check['failures']}"
                )
            continue
        if outcome["errors"]:
            raise SystemExit(f"seed {seed}: {outcome['errors']}")
        digests[str(seed)] = suite.record(seed, outcome)
        print(f"suite seed {seed} recorded", file=sys.stderr)
    return digests


def record_fleet() -> dict:
    from repro.stream.fleet import FleetSimulator

    fleet = workloads.WORKLOADS["fleet_idle"]
    digests = {}
    for seed in range(workloads.FLEET_SEEDS):
        state = fleet.setup(seed)
        kernel = fleet.record(seed, fleet.measure(state))
        scalar_report = FleetSimulator(
            state["detector"], fleet.config(seed, vectorized=False)
        ).run()
        scalar = fleet.record(seed, {"report": scalar_report})
        if kernel != scalar:
            raise SystemExit(f"seed {seed}: kernel and scalar paths differ")
        digests[str(seed)] = kernel
        print(f"fleet_idle seed {seed} recorded", file=sys.stderr)
    return digests


def main(parts) -> int:
    recorders = {"suite": record_suite, "fleet_idle": record_fleet}
    recorded = {part: recorders[part]() for part in parts}
    path = workloads.REFERENCES
    references = json.loads(path.read_text()) if path.exists() else {}
    references.update(recorded)
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["suite", "fleet_idle"]))
