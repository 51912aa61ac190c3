"""Online streaming: the defense as it would actually deploy.

Every other execution path in this repository is offline batch — a
complete recording in, a verdict out. This package is the online
counterpart: audio arrives as arbitrary-sized chunks, utterances are
delimited causally, and the defense's features accumulate
incrementally so the verdict lands a bounded, deterministic time
after the speech ends. There is one streaming stack, built for a
group of streams; a single device is a group of one.

``chunker``
    :class:`~repro.stream.chunker.ChunkedStreamBatch`, the
    absolute-indexed ring buffer of a stream group and its frame grid
    (shared with the offline VAD through :mod:`repro.dsp.framing`).
``segmenter``
    :class:`~repro.stream.segmenter.OnlineSegmenterBatch`, the causal
    VAD gate with hysteresis and a noise-floor tracker, per row.
``features``
    :class:`~repro.stream.features.WelchAccumulator` — incremental
    Welch accumulation, bitwise-matched to the offline estimator at
    utterance close.
``kernel``
    :class:`~repro.stream.kernel.StreamGroup`, which composes the
    three above and decides every utterance in the cycle that closes
    it (:func:`~repro.stream.kernel.decide`), and
    :func:`~repro.stream.kernel.drive_stream_group`, the fleet's
    caller.
``guard``
    :class:`~repro.stream.guard.StreamingGuard`, the online guarded
    assistant: a stream group of one (same
    :class:`~repro.defense.guard.GuardedOutcome`, same decision policy
    as the offline one).
``fleet``
    :class:`~repro.stream.fleet.FleetSimulator`, hundreds of
    concurrent device streams in lockstep groups, with per-stream
    ``SeedSequence`` randomness, partitioned into ``shards`` (one
    runs inline, more on a process pool) — digests bitwise identical
    for every grouping, shard count and partition.
"""

from repro.stream.features import WelchAccumulator
from repro.stream.fleet import (
    FleetConfig,
    FleetReport,
    FleetSimulator,
    ShardAccumulator,
    ShardResult,
    ShardTask,
    StreamResult,
    UtteranceDigest,
    plan_shards,
    run_shard,
    synthesize_utterances,
)
from repro.stream.guard import StreamingGuard, UtteranceOutcome
from repro.stream.segmenter import SegmenterConfig

__all__ = [
    "WelchAccumulator",
    "SegmenterConfig",
    "StreamingGuard",
    "UtteranceOutcome",
    "FleetConfig",
    "FleetReport",
    "FleetSimulator",
    "StreamResult",
    "UtteranceDigest",
    "synthesize_utterances",
    "ShardAccumulator",
    "ShardResult",
    "ShardTask",
    "plan_shards",
    "run_shard",
]
