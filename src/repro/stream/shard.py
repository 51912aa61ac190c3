"""Process-sharded fleet driver: the fleet scaled across cores.

:class:`~repro.stream.fleet.FleetSimulator` multiplexes one core's
worth of device streams over a thread pool; this module is the layer
above it, borrowing the NSO concurrency-model playbook (SNIPPETS.md
§1) the way Harmonia partitions replicated reads:

* **Independent shards.** The fleet's streams are partitioned into
  per-process shards (:func:`plan_shards`); each shard synthesises
  its own slice of utterance recordings through the batched trial
  pipeline and runs the *same* dispatcher
  (:func:`~repro.stream.fleet.drive_streams`) over its partition.
  Nothing coordinates on the hot path — per-stream state lives in the
  stream's own group rows, the recogniser/detector are shard-local copies,
  and the multi-MB emissions come from the engine's per-process cache
  (:mod:`repro.sim.engine`), built once per shard process however
  many tasks it executes.
* **Commit queue.** Inside each shard, driving threads hand every
  finished stream's raw outcomes to a :class:`CommitQueue` — a
  drainer thread that converts guard outcomes into deterministic
  digests off the ingestion hot loop, the commit-queue idiom that
  keeps slow result materialisation out of the critical path. The
  coordinator drains shard results the same way, folding them into a
  :class:`ShardAccumulator` as each future completes.
* **Determinism.** All randomness is laid out by
  :func:`~repro.stream.fleet.fleet_seed_plan` *before* any
  scheduling, and each stream's computation is a pure function of its
  own :class:`~numpy.random.SeedSequence` and utterance slots — so
  the merged fleet digest is bitwise identical to the unsharded
  simulator for every ``shards`` × ``workers`` combination (pinned by
  a hypothesis property over arbitrary partitions and the CI
  shard-determinism job).

Throughput accounting: :attr:`FleetReport.wall_seconds` for a sharded
run is the *slowest shard's streaming wall clock* — the steady-state
critical path, and the denominator of
:attr:`~repro.stream.fleet.FleetReport.realtime_factor`; per-shard
walls are kept in :attr:`~repro.stream.fleet.FleetReport.
shard_wall_seconds` so load imbalance is visible.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.defense.detector import InaudibleVoiceDetector
from repro.errors import StreamError
from repro.obs.metrics import current_metrics
from repro.obs.trace import (
    Span,
    Tracer,
    activate as activate_tracer,
    current_tracer,
    maybe_span,
)
from repro.sim.engine import partition_evenly
from repro.stream.fleet import (
    FleetConfig,
    FleetReport,
    StreamResult,
    check_fleet_rate,
    drive_streams,
    fleet_seed_plan,
    synthesize_utterances,
)
from repro.stream.segmenter import SegmenterConfig

__all__ = [
    "CommitQueue",
    "ShardAccumulator",
    "ShardResult",
    "ShardTask",
    "ShardedFleetSimulator",
    "plan_shards",
    "run_shard",
]


_CLOSE = object()


class CommitQueue:
    """Drain slow result materialisation off an ingestion hot path.

    Producers (stream-driving threads) :meth:`put` raw items and
    return to their next unit of work immediately; a single drainer
    thread applies ``commit`` to each item in arrival order.
    :meth:`close` waits for the backlog, then returns the committed
    results (and re-raises the first commit error, if any — after the
    queue has fully drained, so producers can never block on a dead
    consumer).
    """

    def __init__(self, commit: Callable[[Any], Any]) -> None:
        self._commit = commit
        self._queue: queue.Queue = queue.Queue()
        self._committed: list[Any] = []
        self._error: BaseException | None = None
        self._closed = False
        self._drainer = threading.Thread(
            target=self._drain, daemon=True
        )
        self._drainer.start()

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            if item is _CLOSE:
                return
            if self._error is not None:
                continue  # keep consuming so close() never hangs
            try:
                self._committed.append(self._commit(item))
            except BaseException as error:  # re-raised in close()
                self._error = error

    def put(self, item: Any) -> None:
        """Enqueue one raw item for committing (non-blocking)."""
        if self._closed:
            raise StreamError("cannot put into a closed CommitQueue")
        self._queue.put(item)

    def close(self) -> list[Any]:
        """Drain the backlog and return the committed results."""
        if not self._closed:
            self._closed = True
            self._queue.put(_CLOSE)
            self._drainer.join()
        if self._error is not None:
            raise self._error
        return self._committed


@dataclass(frozen=True)
class ShardTask:
    """One shard's picklable work unit.

    Carries *recipes*, not waveforms: per-stream
    :class:`~numpy.random.SeedSequence` children and per-slot class
    flags. The executing process re-derives generators and
    synthesises its own recordings (through the per-process emission
    cache), so the pickle cost per shard is the detector plus a few
    seed sequences — never audio.
    """

    config: FleetConfig
    shard_index: int
    stream_indices: tuple[int, ...]
    stream_seqs: tuple[np.random.SeedSequence, ...]
    #: Per stream, one SeedSequence per utterance slot.
    slot_seqs: tuple[tuple[np.random.SeedSequence, ...], ...]
    #: Per stream, one is-attack flag per utterance slot.
    slot_attacks: tuple[tuple[bool, ...], ...]
    detector: InaudibleVoiceDetector
    segmenter_config: SegmenterConfig | None
    #: Coordinator-side tracing request. Pool workers cannot see the
    #: coordinator's ambient tracer, so the flag travels with the
    #: task; a traced shard returns its spans in the result for the
    #: coordinator to adopt. Never affects stream outcomes.
    trace: bool = False

    def __post_init__(self) -> None:
        lengths = {
            len(self.stream_indices),
            len(self.stream_seqs),
            len(self.slot_seqs),
            len(self.slot_attacks),
        }
        if lengths != {len(self.stream_indices)}:
            raise StreamError(
                "shard task stream fields must be parallel: got "
                f"lengths {sorted(lengths)}"
            )
        if not self.stream_indices:
            raise StreamError("a shard needs at least one stream")


@dataclass
class ShardResult:
    """One shard's merged-ready outcome slice."""

    shard_index: int
    sample_rate: float
    streams: list[StreamResult]
    prepare_seconds: float
    wall_seconds: float
    #: The shard's trace (empty unless the task asked for one); the
    #: coordinator re-bases these into its own trace with fresh,
    #: non-overlapping span ids.
    spans: list[Span] = field(default_factory=list)


def run_shard(task: ShardTask) -> ShardResult:
    """Execute one shard: synthesise its slice, stream every device.

    Module-level so the process pool pickles it by reference; also
    called inline by the single-shard degenerate case and the
    hypothesis partition property, so every shard count exercises the
    identical code path. With ``task.trace`` set the whole shard runs
    under a fresh local tracer — a ``shard`` root span with the
    synthesis, kernel-cycle and utterance spans nested below — and
    ships its spans home in the result.
    """
    if not task.trace:
        return _run_shard_body(task)
    local = Tracer()
    with activate_tracer(local):
        with local.span(
            "shard",
            shard=task.shard_index,
            streams=len(task.stream_indices),
        ):
            result = _run_shard_body(task)
    result.spans = local.spans
    return result


def _run_shard_body(task: ShardTask) -> ShardResult:
    config = task.config
    rng_children = [
        np.random.default_rng(seq)
        for stream in task.slot_seqs
        for seq in stream
    ]
    attack_mask = np.array(
        [flag for stream in task.slot_attacks for flag in stream],
        dtype=bool,
    )
    prepare_started = time.perf_counter()
    with maybe_span("synthesize", slots=len(rng_children)):
        recordings, recognizer = synthesize_utterances(
            config.scenario,
            config.command,
            config.distance_m,
            rng_children,
            attack_mask,
            voice_seed=config.seed,
        )
    prepare_seconds = time.perf_counter() - prepare_started
    rate = check_fleet_rate(recordings)

    commits = CommitQueue(lambda raw: raw.commit())

    started = time.perf_counter()
    drive_streams(
        config,
        task.detector,
        task.segmenter_config,
        task.stream_indices,
        rate,
        recognizer,
        recordings,
        attack_mask,
        task.stream_seqs,
        commits.put,
    )
    wall_seconds = time.perf_counter() - started
    streams = sorted(commits.close(), key=lambda s: s.index)
    return ShardResult(
        shard_index=task.shard_index,
        sample_rate=rate,
        streams=streams,
        prepare_seconds=prepare_seconds,
        wall_seconds=wall_seconds,
    )


class ShardAccumulator:
    """Mergeable fleet accumulator: shard slices in, one report out.

    Order-insensitive (shards arrive as they finish) and validating:
    a duplicate stream index fails at :meth:`add`, a missing one at
    :meth:`report` — a shard can never be silently dropped or double
    counted.
    """

    def __init__(self, n_streams: int) -> None:
        self.n_streams = n_streams
        self._streams: dict[int, StreamResult] = {}
        self._rate: float | None = None
        self._prepare: list[float] = []
        self._walls: dict[int, float] = {}

    def add(self, result: ShardResult) -> None:
        """Fold one shard's slice in (any completion order)."""
        if self._rate is None:
            self._rate = result.sample_rate
        elif result.sample_rate != self._rate:
            raise StreamError(
                "shards disagree on the device rate: "
                f"{result.sample_rate} vs {self._rate}"
            )
        for stream in result.streams:
            if not 0 <= stream.index < self.n_streams:
                raise StreamError(
                    f"shard {result.shard_index} produced stream "
                    f"{stream.index}, outside the fleet's "
                    f"{self.n_streams} streams"
                )
            if stream.index in self._streams:
                raise StreamError(
                    f"stream {stream.index} produced by two shards — "
                    "the partition overlaps"
                )
            self._streams[stream.index] = stream
        self._prepare.append(result.prepare_seconds)
        self._walls[result.shard_index] = result.wall_seconds

    def report(
        self, config: FleetConfig, wall_seconds: float | None = None
    ) -> FleetReport:
        """The merged fleet report, in stream-index order.

        ``wall_seconds`` defaults to the slowest shard's streaming
        wall — the steady-state critical path.
        """
        missing = [
            index
            for index in range(self.n_streams)
            if index not in self._streams
        ]
        if missing:
            raise StreamError(
                f"streams {missing} missing — the shard partition "
                "does not cover the fleet"
            )
        shard_walls = tuple(
            self._walls[index] for index in sorted(self._walls)
        )
        return FleetReport(
            config=config,
            sample_rate=self._rate,
            streams=[
                self._streams[index]
                for index in range(self.n_streams)
            ],
            prepare_seconds=max(self._prepare, default=0.0),
            wall_seconds=(
                max(shard_walls, default=0.0)
                if wall_seconds is None
                else wall_seconds
            ),
            shard_wall_seconds=shard_walls,
        )


def plan_shards(
    detector: InaudibleVoiceDetector,
    config: FleetConfig,
    segmenter_config: SegmenterConfig | None = None,
    partitions: Sequence[Sequence[int]] | None = None,
    trace: bool = False,
) -> list[ShardTask]:
    """Deterministic shard tasks for one fleet config.

    By default streams are split into ``config.shards`` contiguous,
    near-equal partitions (:func:`~repro.sim.engine.partition_evenly`
    — a pure function of the counts, never of worker scheduling).
    ``partitions`` overrides the layout with any disjoint cover of
    the stream indices, which is how the hypothesis property asserts
    that *every* partition merges to the same digest.
    """
    attack_mask, trial_seqs, stream_seqs = fleet_seed_plan(config)
    per = config.utterances_per_stream
    if partitions is None:
        partitions = partition_evenly(
            list(range(config.n_streams)), config.shards
        )
    tasks = []
    for shard_index, indices in enumerate(partitions):
        indices = tuple(int(i) for i in indices)
        tasks.append(
            ShardTask(
                config=config,
                shard_index=shard_index,
                stream_indices=indices,
                stream_seqs=tuple(stream_seqs[i] for i in indices),
                slot_seqs=tuple(
                    tuple(trial_seqs[i * per : (i + 1) * per])
                    for i in indices
                ),
                slot_attacks=tuple(
                    tuple(
                        bool(flag)
                        for flag in attack_mask[i * per : (i + 1) * per]
                    )
                    for i in indices
                ),
                detector=detector,
                segmenter_config=segmenter_config,
                trace=trace,
            )
        )
    return tasks


class ShardedFleetSimulator:
    """Run the fleet partitioned across processes.

    Parameters
    ----------
    detector:
        A fitted detector; pickled once per shard, shared read-only
        by that shard's streams.
    config:
        The fleet recipe. ``config.shards`` is the process count;
        ``config.workers`` the thread count inside each shard.
    segmenter_config:
        Optional gate tuning shared by every stream.

    ``shards=1`` runs the single shard in-process (no executor, no
    pickling — the degenerate case, same numbers), and is bitwise
    identical to :class:`~repro.stream.fleet.FleetSimulator` for the
    same config.
    """

    def __init__(
        self,
        detector: InaudibleVoiceDetector,
        config: FleetConfig,
        segmenter_config: SegmenterConfig | None = None,
    ) -> None:
        self.detector = detector
        self.config = config
        self.segmenter_config = segmenter_config

    def run(self) -> FleetReport:
        """Plan, fan out, drain and merge the whole fleet."""
        config = self.config
        tracer = current_tracer()
        tasks = plan_shards(
            self.detector,
            config,
            self.segmenter_config,
            trace=tracer is not None,
        )
        accumulator = ShardAccumulator(config.n_streams)

        def fold(result: ShardResult, parent_id: int | None) -> None:
            accumulator.add(result)
            if tracer is not None and result.spans:
                tracer.adopt(result.spans, parent_id=parent_id)
                result.spans = []

        with maybe_span(
            "sharded-fleet",
            shards=len(tasks),
            streams=config.n_streams,
        ) as fleet_span:
            if len(tasks) == 1:
                fold(run_shard(tasks[0]), fleet_span)
            else:
                max_workers = min(len(tasks), os.cpu_count() or 1)
                with ProcessPoolExecutor(
                    max_workers=max_workers
                ) as pool:
                    futures = [
                        pool.submit(run_shard, task)
                        for task in tasks
                    ]
                    # Coordinator-side commit draining: fold each
                    # shard in as it finishes rather than barriering
                    # on the full list.
                    for future in as_completed(futures):
                        fold(future.result(), fleet_span)
            report = accumulator.report(config)
        registry = current_metrics()
        if registry is not None:
            report.record_metrics(registry)
        return report
