"""One workload in one fresh interpreter; prints one JSON result line.

Started by ``run.py`` with OpenBLAS/OpenMP pinned to one thread and
``PYTHONPATH=src``. ``--setup-only`` stops after the set-up phase
(the extra set-ups ``setup_s`` takes its median over). ``--trace``
wraps the layer entry points (``layers.py``), activates a
:class:`repro.obs.trace.Tracer` over set-up and measured phase, and
reports per-layer metrics from the span tree.

    PYTHONPATH=src python3 perfbench/child.py --workload guard_dense --seed 3
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--no-check", action="store_true", help="skip the output check"
    )
    args = parser.parse_args(argv)

    import repro.experiments  # noqa: F401  (the import layer)

    import_s = time.perf_counter() - _STARTED
    import numpy
    import scipy

    import layers
    import workloads
    from repro.obs.trace import Tracer, activate
    from repro.sim.engine import process_cache

    workload = workloads.WORKLOADS[args.workload]
    result: dict = {
        "import_s": import_s,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    tracer = Tracer() if args.trace else None
    patches = layers.install() if args.trace else []

    with activate(tracer) if tracer else nullcontext():
        with layers.span("setup"):
            state = workload.setup(args.seed)
        result["setup_s"] = time.perf_counter() - _STARTED
        if args.setup_only:
            print(json.dumps(result))
            return 0
        gc.collect()
        started = time.perf_counter()
        with layers.span("measure"):
            outcome = workload.measure(state)
        result["wall_s"] = time.perf_counter() - started
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if not args.trace:
        result["wrapped"] = layers.wrapped_targets()
    else:
        layers.restore(patches)
        result["restored"] = layers.unpatched(patches)
        stats = process_cache().stats
        lookups = stats.hits + stats.misses
        per_layer = layers.layer_metrics(tracer.spans)
        per_layer.update(
            {
                "import.s": import_s,
                "engine.cache.hits": stats.hits,
                "engine.cache.misses": stats.misses,
                "engine.cache.hit_ratio": (
                    stats.hits / lookups if lookups else 0.0
                ),
            }
        )
        result["per_layer"] = per_layer
        result["spans"] = len(tracer.spans)
    if not args.no_check:
        references = workloads.load_references()
        result.update(workload.check(state, outcome, references))
        figures = result["figures"]
        if "audio_s" in figures:
            figures["sustained_streams"] = figures["audio_s"] / result["wall_s"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
