"""Parallel, cached experiment execution.

Every experiment in this repository decomposes into *trial groups*: a
(scenario, device, emission, n_trials) cell whose trials differ only in
their noise draws. Three observations make the whole suite scale:

1. **Trials are embarrassingly parallel** once each trial owns an
   independent random stream. :class:`ExperimentEngine` derives
   per-trial generators with :meth:`numpy.random.Generator.spawn`
   (i.e. ``SeedSequence.spawn``) *before* scheduling, so the results
   are bit-identical for any ``jobs`` value — parallelism never
   changes the science, only the wall clock.
2. **Emissions are expensive, deterministic and large.** A 32-element
   array emission takes ~1 s to synthesise and ~45 MB to pickle, so
   shipping waveforms to workers would drown the pool in IPC. Instead
   work units carry an :class:`EmissionSpec` — a module-level builder
   plus picklable arguments — and every process materialises it at
   most once through a local :class:`EmissionCache`.
3. **The serial path is the degenerate case.** With ``jobs=1`` the
   engine runs every task in-process with no executor, identical code
   path, identical numbers.
4. **Inside each worker the hot path is vectorized.** Trial chunks
   run through the shared :class:`~repro.sim.pipeline.TrialPipeline`:
   the deterministic transmission is computed once per group and the
   per-trial noise / microphone / ADC stages execute as stacked 2-D
   operations.

The engine is the one way to run trials: every ``repro.experiments``
module takes one (``engine=None`` means a serial engine), the
streaming fleet's shards cross its :meth:`~ExperimentEngine.map`, and
the ``python -m repro.experiments`` CLI sizes it with ``--jobs``.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from repro.acoustics.channel import PlacedSource
from repro.dsp.signals import Signal
from repro.errors import ExperimentError
from repro.obs.trace import (
    Span,
    Tracer,
    activate as activate_tracer,
    current_tracer,
    maybe_span,
)
from repro.sim.cache import CacheStats, EmissionCache, stable_key
from repro.sim.pipeline import TrialOutcome, build_pipeline
from repro.sim.scenario import Scenario, VictimDevice
from repro.speech.commands import synthesize_command

__all__ = [
    "CacheStats",
    "EmissionCache",
    "EmissionSpec",
    "ExperimentEngine",
    "TrialGroup",
    "TrialOutcome",
    "attack_range_search",
    "cached_voice",
    "partition_evenly",
    "process_cache",
    "stable_key",
]


#: The per-process cache. Workers forked from a warm parent inherit
#: its entries for free; workers that miss recompute once and keep the
#: result for every later task they execute.
_PROCESS_CACHE = EmissionCache()


def process_cache() -> EmissionCache:
    """The calling process's emission/synthesis cache."""
    return _PROCESS_CACHE


def cached_voice(command: str, seed: int) -> Signal:
    """Synthesise ``command`` from a fresh ``default_rng(seed)``, cached.

    Keying synthesis by ``(command, seed)`` instead of an ambient
    generator state is what makes voices shareable across experiments,
    distances and worker processes.
    """
    return _PROCESS_CACHE.get_or_compute(
        stable_key("voice", command, seed),
        lambda: synthesize_command(command, np.random.default_rng(seed)),
    )


@dataclass(frozen=True)
class EmissionSpec:
    """A picklable recipe for an attacker emission.

    ``builder`` must be a module-level callable (pickled by reference)
    returning an emission with a ``sources`` sequence, and ``args``
    must be cheaply picklable; the multi-megabyte
    waveforms it produces stay inside whichever process materialises
    them. The build result is cached under a key derived from the
    builder's qualified name and arguments — a stable hash of command
    + attacker configuration.
    """

    builder: Callable[..., Any]
    args: tuple = ()

    @property
    def key(self) -> str:
        return stable_key(
            self.builder.__module__,
            self.builder.__qualname__,
            self.args,
        )

    def emission(self) -> Any:
        """The built emission object, from the process cache."""
        return _PROCESS_CACHE.get_or_compute(
            self.key, lambda: self.builder(*self.args)
        )

    def sources(self) -> tuple[PlacedSource, ...]:
        """The emission's placed sources, materialising on demand."""
        return tuple(self.emission().sources)


@dataclass(frozen=True)
class TrialGroup:
    """One (scenario, device, emission, n_trials) work unit.

    ``emission`` is an :class:`EmissionSpec`, so a group pickles small
    and each process builds the waveforms at most once.
    """

    scenario: Scenario
    device: VictimDevice
    emission: EmissionSpec
    n_trials: int


@dataclass(frozen=True)
class _TrialTask:
    """One worker task: a contiguous chunk of one group's trials."""

    group: TrialGroup
    rngs: tuple[np.random.Generator, ...]
    keep_recordings: bool


def _run_trial_batch(task: _TrialTask) -> list[TrialOutcome]:
    """Worker: execute one chunk of a group's trials.

    Module-level so it pickles by reference; the emission is resolved
    here, inside the executing process, through its cache. A thin
    driver over the shared declarative pipeline
    (:mod:`repro.sim.pipeline`): build the group's stage list once,
    precompute the trial-invariant transmissions, then run the
    generators through its executor — one transmission, stacked 2-D
    trial operations.

    When the caller only wants success statistics,
    ``keep_recordings=False`` drops each outcome's device-rate
    waveform *before* it is pickled back — at 50 trials per cell the
    recordings, not the results, are the dominant IPC cost.

    The chunk runs in a ``trial-batch`` span (pipeline stage spans
    nest under it) on whatever tracer is ambient: the caller's when
    it runs inline, a worker-local one that :meth:`ExperimentEngine.map`
    brings home when it runs in the pool.
    """
    group = task.group
    with maybe_span("trial-batch", trials=len(task.rngs)):
        pipeline = build_pipeline(group.scenario, group.device)
        ctx = pipeline.context(group.emission.sources())
        outcomes = pipeline.run_trials(ctx, task.rngs)
        if not task.keep_recordings:
            outcomes = [
                replace(outcome, recording=None) for outcome in outcomes
            ]
    return outcomes


def _traced_call(fn: Callable, task: Any) -> tuple[Any, list[Span]]:
    """Pool side of a traced :meth:`ExperimentEngine.map` call.

    A worker never sees the caller's tracer (and must not trust a
    fork-time copy of it), so the task runs under a fresh local
    :class:`~repro.obs.trace.Tracer` and its spans travel home with
    the result, for the caller to adopt.
    """
    local = Tracer()
    with activate_tracer(local):
        result = fn(task)
    return result, local.spans


def _spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """``n`` independent child generators, in deterministic order."""
    try:
        return rng.spawn(n)
    except TypeError as error:  # generator without a SeedSequence
        raise ExperimentError(
            "the engine needs a seeded generator (np.random.default_rng) "
            f"to derive reproducible per-trial streams: {error}"
        ) from error


def partition_evenly(items: Sequence, n_parts: int) -> list[list]:
    """Split into at most ``n_parts`` contiguous, near-equal chunks.

    The partition is a pure function of ``(len(items), n_parts)``, so
    schedulers that key work on it — the engine's trial batching, the
    sharded fleet's stream planner — stay deterministic for any
    worker count.
    """
    n_parts = max(1, min(n_parts, len(items)))
    base, extra = divmod(len(items), n_parts)
    chunks, start = [], 0
    for index in range(n_parts):
        size = base + (1 if index < extra else 0)
        chunks.append(list(items[start : start + size]))
        start += size
    return chunks


def attack_range_search(
    works: Callable[[float], bool],
    max_distance_m: float = 16.0,
    resolution_m: float = 0.25,
) -> float:
    """Ladder/double/bisect search for the furthest working distance.

    ``works`` is evaluated **at most once per distance** — probes are
    memoised, so the doubling phase's terminal point is never re-run
    by the bisection (each probe costs ``n_trials`` full simulation
    trials). The search shape mirrors the physics: powerful arrays
    have a near-field dead zone (ADC overload), so the ladder finds a
    working start, doubling finds the far edge, bisection refines it.
    Returns 0.0 when no ladder probe works and ``max_distance_m`` when
    the attack never fails inside the probed range.
    """
    if not resolution_m > 0:  # also rejects NaN
        raise ExperimentError(
            f"resolution_m must be > 0, got {resolution_m}"
        )
    if not max_distance_m > 0:
        raise ExperimentError(
            f"max_distance_m must be > 0, got {max_distance_m}"
        )
    memo: dict[float, bool] = {}

    def probe(distance: float) -> bool:
        if distance not in memo:
            memo[distance] = works(distance)
        return memo[distance]

    low = None
    for start in (3.0, 2.0, 1.0, 0.5, 0.25):
        if start > max_distance_m:
            continue
        if probe(start):
            low = start
            break
    if low is None:
        return 0.0
    high = low
    while high < max_distance_m:
        high = min(high * 2.0, max_distance_m)
        if not probe(high):
            break
    else:
        return max_distance_m
    # Invariant: probe(low), not probe(high).
    while high - low > resolution_m:
        mid = 0.5 * (low + high)
        if probe(mid):
            low = mid
        else:
            high = mid
    return low


class ExperimentEngine:
    """Schedules trial groups over a process pool, reproducibly.

    Parameters
    ----------
    jobs:
        Worker process count; ``None`` means ``os.cpu_count()``.
        ``jobs=1`` is the serial degenerate case: no pool, no pickling,
        same numbers. Results are bit-identical for every value.

    The engine owns at most one :class:`ProcessPoolExecutor`, created
    lazily on first parallel use and reused across calls (and across
    experiments, when the CLI shares one engine), so pool start-up is
    paid once per run rather than once per sweep point. Its
    :meth:`map` is the repository's one process boundary: trial
    batches, experiment probes and the fleet's shards all cross it,
    and it carries the trace across.
    """

    def __init__(self, jobs: int | None = None) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if isinstance(jobs, bool) or not isinstance(jobs, int):
            raise ExperimentError(
                f"jobs must be a positive integer or None, got {jobs!r}"
            )
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._pool: ProcessPoolExecutor | None = None

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _executor(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    # -- generic fan-out ----------------------------------------------

    def map(self, fn: Callable, tasks: Sequence) -> list:
        """Order-preserving map: the engine's one process boundary.

        Serial engines and single tasks run inline, under whatever
        tracer is ambient. Otherwise ``fn`` (module-level, so it
        pickles by reference) runs in the pool; under an active tracer
        each task goes through :func:`_traced_call`, and the spans it
        records come home re-based under the caller's innermost open
        span, so a trace has the same tree at every ``jobs`` value.
        """
        tasks = list(tasks)
        if self.jobs == 1 or len(tasks) <= 1:
            return [fn(task) for task in tasks]
        tracer = current_tracer()
        if tracer is None:
            return list(self._executor().map(fn, tasks))
        results = []
        for result, spans in self._executor().map(
            partial(_traced_call, fn), tasks
        ):
            tracer.adopt(spans)
            results.append(result)
        return results

    # -- trial execution ----------------------------------------------

    def run_trial_groups(
        self,
        groups: Sequence[TrialGroup],
        rng: np.random.Generator,
        keep_recordings: bool = True,
    ) -> list[list[TrialOutcome]]:
        """Execute every group's trials, fanned out together.

        Per-group generators are spawned from ``rng`` in group order
        and per-trial generators from each group's child, *before* any
        scheduling — so outcomes depend only on ``rng`` and the group
        list, never on ``jobs``. Submitting all groups in one wave
        (rather than group-by-group) is what lets a 4-cell experiment
        such as T2 occupy 4 workers end to end.

        ``keep_recordings=False`` nulls each outcome's ``recording``
        (identically at every ``jobs`` value) so success-rate waves do
        not pickle waveforms back from the pool.
        """
        groups = list(groups)
        if not groups:
            raise ExperimentError("run_trial_groups needs >= 1 group")
        for group in groups:
            if group.n_trials < 1:
                raise ExperimentError(
                    f"n_trials must be >= 1, got {group.n_trials}"
                )
        # Coarse batches keep emission materialisation local: with
        # groups >= jobs each group stays on one worker, so its
        # emission is built exactly once in the whole pool.
        batches_per_group = max(1, self.jobs // len(groups))
        tasks: list[_TrialTask] = []
        widths: list[int] = []
        for group, group_rng in zip(groups, _spawn(rng, len(groups))):
            trial_rngs = _spawn(group_rng, group.n_trials)
            batches = partition_evenly(trial_rngs, batches_per_group)
            widths.append(len(batches))
            tasks.extend(
                _TrialTask(group, tuple(batch), keep_recordings)
                for batch in batches
            )
        with maybe_span(
            "trial-groups",
            groups=len(groups),
            tasks=len(tasks),
            jobs=self.jobs,
        ):
            flat = self.map(_run_trial_batch, tasks)
        results: list[list[TrialOutcome]] = []
        cursor = 0
        for width in widths:
            outcomes: list[TrialOutcome] = []
            for batch in flat[cursor : cursor + width]:
                outcomes.extend(batch)
            cursor += width
            results.append(outcomes)
        return results

    def success_rates(
        self,
        groups: Sequence[TrialGroup],
        rng: np.random.Generator,
    ) -> list[float]:
        """Per-group success fractions, all groups fanned out at once.

        Recordings are dropped worker-side (only booleans come home).
        """
        return [
            sum(o.success for o in outcomes) / len(outcomes)
            for outcomes in self.run_trial_groups(
                groups, rng, keep_recordings=False
            )
        ]

    # -- range search -------------------------------------------------

    def attack_range_m(
        self,
        scenario: Scenario,
        device: VictimDevice,
        emission: EmissionSpec,
        rng: np.random.Generator,
        n_trials: int = 3,
        success_threshold: float = 0.5,
        max_distance_m: float = 16.0,
        resolution_m: float = 0.25,
    ) -> float:
        """Furthest distance at which the attack still succeeds.

        The adaptive search runs through :func:`attack_range_search`,
        so no distance is ever measured twice; each probe's trials are
        parallelised across the pool.
        """
        if not 0 < success_threshold <= 1:
            raise ExperimentError(
                "success_threshold must be in (0, 1], got "
                f"{success_threshold}"
            )

        def works(distance: float) -> bool:
            group = TrialGroup(
                scenario.at_distance(distance), device, emission, n_trials
            )
            (rate,) = self.success_rates([group], rng)
            return rate >= success_threshold

        return attack_range_search(works, max_distance_m, resolution_m)
