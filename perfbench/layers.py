"""Outside-in layer spans for the traced benchmark run.

The program's own spans (pipeline stages, stream-kernel stages, engine
fan-out, fleet synthesis) cover part of a run. This module adds one
span around every call into each layer's public entry points, from
the benchmark's side: :func:`install` swaps each target for a thin
wrapper that records a span on the ambient :mod:`repro.obs.trace`
tracer, and :func:`restore` puts every original back. No span is
added inside ``src/``.

:func:`layer_metrics` then turns the merged span list into per-layer
counts, busy seconds and self seconds, plus the share of the traced
wall time that no layer span covers (``trace.unattributed_frac``).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


def _trial_groups(args, kwargs, result):
    groups = args[1] if len(args) > 1 else kwargs["groups"]
    return {"trials": sum(group.n_trials for group in groups)}


def _rngs(args, kwargs, result):
    rngs = args[2] if len(args) > 2 else kwargs["rngs"]
    return {"trials": len(rngs)}


def _samples(args, kwargs, result):
    return {"samples": int(result.labels.shape[0])}


def _pairs(args, kwargs, result):
    recognizer = args[0]
    recordings = args[1] if len(args) > 1 else kwargs["recordings"]
    return {"pairs": len(recordings) * len(recognizer.commands)}


def _verdicts(args, kwargs, result):
    return {"verdicts": len(result)}


#: (layer key, "module:qualified.name", extra-attribute function).
#: One key may name several entry points; nested calls of one key
#: count once.
TARGETS = (
    ("engine.run_trial_groups",
     "repro.sim.engine:ExperimentEngine.run_trial_groups", _trial_groups),
    ("pipeline.context", "repro.sim.pipeline:TrialPipeline.context", None),
    ("pipeline.run_trials",
     "repro.sim.pipeline:TrialPipeline.run_trials", _rngs),
    ("pipeline.run_scalar",
     "repro.sim.pipeline:TrialPipeline.run_scalar", None),
    ("defense.build_dataset", "repro.defense.dataset:build_dataset",
     _samples),
    ("defense.fit", "repro.defense.detector:InaudibleVoiceDetector.fit",
     None),
    ("defense.classify",
     "repro.defense.detector:InaudibleVoiceDetector.classify", None),
    ("defense.classify",
     "repro.defense.detector:InaudibleVoiceDetector.classify_features",
     None),
    ("speech.recognize",
     "repro.speech.recognizer:KeywordRecognizer.recognize", None),
    ("speech.recognize_batch",
     "repro.speech.recognizer:KeywordRecognizer.recognize_batch", None),
    ("speech.recognize_many",
     "repro.speech.recognizer:KeywordRecognizer.recognize_many", _pairs),
    ("speech.voice", "repro.speech.commands:synthesize_command", None),
    ("attack.emit", "repro.attack.attacker:SingleSpeakerAttacker.emit",
     None),
    ("attack.emit",
     "repro.attack.attacker:SingleSpeakerAttacker.emit_inaudibly", None),
    ("attack.emit", "repro.attack.attacker:LongRangeAttacker.emit", None),
    ("attack.emit",
     "repro.attack.baselines:AudiblePlaybackAttacker.emit", None),
    ("attack.leakage", "repro.attack.leakage:audible_leakage", None),
    ("attack.leakage", "repro.attack.leakage:leakage_report", None),
    ("attack.leakage", "repro.attack.leakage:max_inaudible_drive", None),
    ("attack.optimizer", "repro.attack.optimizer:allocate_drive_levels",
     None),
    ("psychoacoustics.audibility",
     "repro.psychoacoustics.audibility:evaluate_audibility", None),
    ("psychoacoustics.audibility",
     "repro.psychoacoustics.audibility:audibility_margin_db", None),
    ("psychoacoustics.audibility",
     "repro.psychoacoustics.audibility:audible", None),
    ("fleet.synthesize_utterances",
     "repro.stream.fleet:synthesize_utterances", None),
    ("fleet.assemble_timeline", "repro.stream.fleet:assemble_timeline",
     None),
    ("fleet.drive_streams", "repro.stream.fleet:drive_streams", None),
    ("kernel.drive_stream_group",
     "repro.stream.kernel:drive_stream_group", None),
    ("guard.push", "repro.stream.guard:StreamingGuard.push", _verdicts),
    ("guard.flush", "repro.stream.guard:StreamingGuard.flush", _verdicts),
    ("chunker.push", "repro.stream.chunker:ChunkedStream.push", None),
    ("segmenter.process", "repro.stream.segmenter:OnlineSegmenter.process",
     None),
    ("features.feed",
     "repro.stream.features:StreamingTraceExtractor.feed", None),
    ("features.commit",
     "repro.stream.features:StreamingTraceExtractor.commit", None),
)

EXPERIMENT_IDS = (
    "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9",
    "S1", "T1", "T2", "T3", "A1", "A2", "A3",
)
PIPELINE_STAGES = (
    "transmit", "motion-gain", "interference", "ambient", "microphone",
    "adc", "recognize", "talker-level",
)
KERNEL_STAGES = ("ingest", "segment", "welch", "recognize", "detect", "close")

#: Spans that group layers without being one: the two traced phases
#: and the per-experiment spans of the suite. Their self time is the
#: unattributed time.
ROOTS = ("setup", "measure")
MARKER = "__perfbench_layer__"


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = ["import.s"]
    names += [f"experiments.{exp}.s" for exp in EXPERIMENT_IDS]
    names += [
        "engine.run_trial_groups.calls",
        "engine.run_trial_groups.trials",
        "engine.run_trial_groups.s",
        "engine.cache.hits",
        "engine.cache.misses",
        "engine.cache.hit_ratio",
        "pipeline.context.calls",
        "pipeline.context.s",
        "pipeline.run_trials.calls",
        "pipeline.run_trials.trials",
        "pipeline.run_trials.s",
        "pipeline.run_scalar.calls",
        "pipeline.run_scalar.s",
    ]
    names += [f"pipeline.stage.{stage}.self_s" for stage in PIPELINE_STAGES]
    names += [
        "defense.build_dataset.calls",
        "defense.build_dataset.samples",
        "defense.build_dataset.s",
        "defense.fit.s",
        "defense.classify.calls",
        "defense.classify.s",
        "speech.recognize.calls",
        "speech.recognize.s",
        "speech.recognize_batch.calls",
        "speech.recognize_batch.s",
        "speech.recognize_many.calls",
        "speech.recognize_many.pairs",
        "speech.recognize_many.s",
        "speech.voice.s",
        "attack.emit.calls",
        "attack.emit.s",
        "attack.leakage.s",
        "attack.optimizer.s",
        "psychoacoustics.audibility.s",
        "fleet.synthesize_utterances.s",
        "fleet.assemble_timeline.s",
        "fleet.drive_streams.s",
        "kernel.drive_stream_group.calls",
        "kernel.drive_stream_group.s",
    ]
    names += [f"kernel.stage.{stage}.self_s" for stage in KERNEL_STAGES]
    names += [
        "guard.push.calls",
        "guard.push.s",
        "guard.push_idle.p50_us",
        "guard.flush.s",
        "chunker.push.s",
        "segmenter.process.s",
        "features.feed.s",
        "features.commit.s",
        "trace.unattributed_frac",
        "trace.overhead_frac",
    ]
    return names


def metric_unit(name: str) -> str:
    """The unit of a per-layer metric, read off its suffix."""
    suffix = name.rsplit(".", 1)[1]
    return {
        "s": "s",
        "self_s": "s",
        "p50_us": "us",
        "hit_ratio": "ratio",
        "unattributed_frac": "ratio",
        "overhead_frac": "ratio",
    }.get(suffix, "count")


# -- patching ---------------------------------------------------------


def _resolve(target: str):
    """``(owner, attribute, current value)`` for a target string, or
    ``None`` when the program no longer has that entry point. Its
    metrics then read 0: a later change may delete an entry point
    (the scalar twins are slated for removal) without editing the
    benchmark."""
    module_name, qualname = target.split(":")
    try:
        owner = importlib.import_module(module_name)
        *path, attribute = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attribute, vars(owner)[attribute]
    except (ImportError, AttributeError, KeyError):
        return None


def _wrap(key: str, original, extra):
    from repro.obs.trace import current_tracer

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer = current_tracer()
        if tracer is None:
            return original(*args, **kwargs)
        parent = tracer.current_parent()
        span_id = tracer.new_id()
        attrs = {}
        started = time.perf_counter()
        try:
            with tracer.attached(span_id):
                result = original(*args, **kwargs)
            if extra is not None:
                attrs = extra(args, kwargs, result)
            return result
        finally:
            tracer.record(
                key,
                started,
                time.perf_counter(),
                parent_id=parent,
                span_id=span_id,
                **attrs,
            )

    setattr(wrapper, MARKER, key)
    return wrapper


def install() -> list[tuple[object, str, object]]:
    """Wrap every target; returns the patch records for :func:`restore`.

    A class attribute is patched on its class. A module function is
    patched in its own module and in every loaded ``repro`` module
    that imported it by name, so calls through either binding are
    seen.
    """
    patches = []
    for key, target, extra in TARGETS:
        resolved = _resolve(target)
        if resolved is None:
            continue
        owner, attribute, original = resolved
        wrapper = _wrap(key, original, extra)
        if isinstance(owner, type):
            patches.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)
            continue
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for binding, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, binding, original))
                    setattr(module, binding, wrapper)
    return patches


def restore(patches) -> None:
    """Undo :func:`install`, newest patch first."""
    for owner, attribute, original in reversed(patches):
        setattr(owner, attribute, original)


def unpatched(patches) -> bool:
    """Every patched attribute is its original object again."""
    return all(
        vars(owner).get(attribute) is original
        for owner, attribute, original in patches
    )


def wrapped_targets() -> list[str]:
    """Targets whose current binding is a benchmark wrapper."""
    wrapped = []
    for _, target, _ in TARGETS:
        resolved = _resolve(target)
        if resolved is not None and hasattr(resolved[2], MARKER):
            wrapped.append(target)
    return wrapped


@contextmanager
def span(name: str):
    """A benchmark-side span on the ambient tracer, if one is active."""
    from repro.obs.trace import current_tracer

    tracer = current_tracer()
    with tracer.span(name) if tracer is not None else nullcontext():
        yield


# -- analysis ---------------------------------------------------------


def _key(span, by_id) -> str:
    """The metric key a span's time is booked under."""
    if "mode" in span.attrs:  # a pipeline stage span
        return f"pipeline.stage.{span.name}"
    parent = by_id.get(span.parent_id)
    if parent is not None and parent.name == "stream-group":
        return f"kernel.stage.{span.name}"
    return span.name


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts, busy and self seconds from a merged trace.

    The nesting is rebuilt from the intervals themselves (the traced
    workloads run on one thread), so spans recorded with an explicit
    parent and spans nested by the thread stack fall into one tree.
    A key's calls and busy seconds count only its outermost spans.
    ``trace.unattributed_frac`` is the self time of the roots and of
    the ``experiments.*`` spans over the roots' total duration.
    """
    by_id = {span.span_id: span for span in spans}
    timed = sorted(
        (span for span in spans if span.end_s > span.start_s),
        key=lambda span: (span.start_s, -span.end_s, span.span_id),
    )
    covered: dict[int, float] = defaultdict(float)
    keys: dict[int, str] = {}
    sums: dict[str, float] = defaultdict(float)
    idle_pushes: list[float] = []
    stack: list = []  # (span, key, set of enclosing keys)
    roots_total = 0.0
    for span in timed:
        while stack and stack[-1][0].end_s <= span.start_s:
            stack.pop()
        key = _key(span, by_id)
        keys[span.span_id] = key
        enclosing = stack[-1][2] if stack else frozenset()
        if stack:
            parent = stack[-1][0]
            covered[parent.span_id] += (
                min(span.end_s, parent.end_s) - span.start_s
            )
        if key in ROOTS and not stack:
            roots_total += span.duration_s
        if key not in enclosing:  # outermost span of this key
            sums[f"{key}.calls"] += 1
            sums[f"{key}.s"] += span.duration_s
            for attr in ("trials", "pairs", "samples"):
                if attr in span.attrs:
                    sums[f"{key}.{attr}"] += span.attrs[attr]
            if key == "guard.push" and span.attrs.get("verdicts") == 0:
                idle_pushes.append(span.duration_s)
        stack.append((span, key, enclosing | {key}))
    unattributed = 0.0
    for span in timed:
        self_s = span.duration_s - covered[span.span_id]
        key = keys[span.span_id]
        sums[f"{key}.self_s"] += self_s
        if key in ROOTS or key.startswith("experiments."):
            unattributed += self_s
    sums["guard.push_idle.p50_us"] = (
        1e6 * statistics.median(idle_pushes) if idle_pushes else 0.0
    )
    sums["trace.unattributed_frac"] = (
        unattributed / roots_total if roots_total > 0 else 0.0
    )
    return dict(sums)
