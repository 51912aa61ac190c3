"""End-to-end benchmark of the reproduction: ``suite``, ``fleet_idle``
and ``guard_dense``.

Run from the repository root::

    python3 perfbench/run.py --workload suite --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # all three

Every workload runs in fresh interpreters (``child.py``) with
OpenBLAS/OpenMP at one thread and no process pool. Measured children
are started until their measured phases add up to ``--seconds`` (at
least one); set-up-only children are added until there are
``SETUPS`` set-ups. The end-to-end metrics are medians over them.
With ``--trace 1`` an untraced and a traced child run side by side
instead and the per-layer metrics come from the traced one's span
tree.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Outside a checkout of the
repository (no ``src/repro``) the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
WORKLOADS = ("suite", "fleet_idle", "guard_dense")
#: Set-ups per run that ``setup_s`` takes its median over.
SETUPS = 3
CHILD_TIMEOUT_S = 170
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: End-to-end metrics every workload reports (the BENCHMARK.json set).
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
#: Workload-specific figures, printed by name but not gated.
FIGURE_UNITS = {
    "sustained_streams": "stream-s/s",
    "verdict_p50_ms": "ms",
    "verdict_p95_ms": "ms",
    "stream_latency_p50_ms": "ms",
    "stream_latency_p95_ms": "ms",
    "ops_failed_frac": "ratio",
}


class BenchmarkError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def run_children(workload: str, seed: int, *flag_sets) -> list[dict]:
    """Fresh interpreters side by side, one per flag set; each one's
    last stdout line parsed as JSON. Every child is waited for."""
    procs = [
        subprocess.Popen(
            [
                sys.executable,
                str(HERE / "child.py"),
                "--workload",
                workload,
                "--seed",
                str(seed),
                *flags,
            ],
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for flags in flag_sets
    ]
    results = []
    try:
        for proc in procs:
            try:
                out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired as error:
                raise BenchmarkError(f"{workload} child timed out") from error
            lines = out.strip().splitlines()
            if proc.returncode != 0 or not lines:
                tail = "\n".join(err.strip().splitlines()[-15:])
                raise BenchmarkError(
                    f"{workload} child exited with {proc.returncode}:\n{tail}"
                )
            results.append(json.loads(lines[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return results


def run_child(workload: str, seed: int, *flags: str) -> dict:
    """One fresh interpreter, alone on the machine."""
    return run_children(workload, seed, flags)[0]


def environment(versions: dict) -> dict:
    """Thread settings, machine and versions stamped on every result."""
    sha = ""
    try:
        top, _, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        ).stdout.partition("\n")
        # Only this checkout's own repository, not one enclosing it.
        if top and Path(top).resolve() == Path.cwd().resolve():
            sha = head.strip()
    except OSError:
        pass
    return {
        **THREAD_ENV,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "git_sha": sha or "unavailable (not a git checkout)",
    }


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced children; end-to-end metrics as medians."""
    runs = []
    while not runs or sum(r["wall_s"] for r in runs) < seconds:
        runs.append(run_child(workload, seed))
    setups = [r["setup_s"] for r in runs]
    while len(setups) < SETUPS:
        setups.append(run_child(workload, seed, "--setup-only")["setup_s"])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    figures = {"ops_failed_frac": failed / attempted}
    for name in FIGURE_UNITS:
        if name in runs[0]["figures"]:
            figures[name] = statistics.median(
                r["figures"][name] for r in runs
            )
    notes = {
        "children": len(runs),
        "setups": len(setups),
        "wrapped_targets_untraced": sorted(
            {t for r in runs for t in r["wrapped"]}
        ),
        "failures": [r["failures"] for r in runs if r["failures"]],
        "errors": [r["errors"] for r in runs if r["errors"]],
    }
    if "verdict_samples" in runs[0]["figures"]:
        notes["verdict_samples"] = runs[0]["figures"]["verdict_samples"]
    if notes["wrapped_targets_untraced"]:
        failed = attempted  # the untraced run must execute no wrapper
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "figures": figures,
        "notes": notes,
        "versions": runs[0]["versions"],
    }


def trace(workload: str, seed: int) -> dict:
    """An untraced and a traced child side by side; per-layer metrics.

    Side by side, both see the same host speed, so the ratio of their
    measured phases is the tracing overhead rather than the host's
    drift between two runs (which reaches 20% on a shared VM).
    """
    plain, traced = run_children(
        workload, seed, ("--no-check",), ("--trace",)
    )
    per_layer = traced["per_layer"]
    metrics = {name: float(per_layer.get(name, 0.0))
               for name in layers.metric_names()}
    metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    attempted, failed = traced["attempted"], traced["failed"]
    if not traced["restored"] or plain["wrapped"]:
        failed = attempted  # wrappers leaked into or out of the run
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "figures": {},
        "notes": {"spans": traced["spans"], "restored": traced["restored"]},
        "versions": traced["versions"],
    }


def units(name: str, traced: bool) -> str:
    if traced:
        return layers.metric_unit(name)
    return END_TO_END.get(name) or FIGURE_UNITS[name]


def report(workload: str, outcome: dict, traced: bool) -> None:
    print(f"== {workload}")
    for name, value in outcome["metrics"].items():
        print(f"  {name:<36} {value:>14.6g} {units(name, traced)}")
    for name, value in outcome["figures"].items():
        print(f"  {name:<36} {value:>14.6g} {FIGURE_UNITS[name]}")
    for name, value in outcome["notes"].items():
        print(f"  # {name}: {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (Path("src") / "repro" / "__init__.py").is_file():
        print(
            "error: run from the root of a checkout of the repository "
            "(src/repro not found)",
            file=sys.stderr,
        )
        return 2
    # Compile the sources once so no child pays bytecode compilation.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", str(HERE)],
        stdout=subprocess.DEVNULL,
        check=True,
    )
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        try:
            if args.trace:
                outcome = trace(workload, args.seed)
            else:
                outcome = measure(workload, args.seed, args.seconds)
        except BenchmarkError as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        stamp = environment(outcome.pop("versions"))
        print("# env " + json.dumps(stamp, sort_keys=True))
        report(workload, outcome, bool(args.trace))
        summary["attempted"] += outcome["attempted"]
        summary["failed"] += outcome["failed"]
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, value in outcome["metrics"].items():
            summary["metrics"][prefix + name] = {
                "value": value,
                "unit": units(name, bool(args.trace)),
            }
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
