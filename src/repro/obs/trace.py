"""Structured span tracing with monotonic timestamps.

A :class:`Span` is one timed region of the run — a pipeline stage, a
stream-kernel cycle, a shard lifecycle, an engine fan-out — with a
name, ``[start_s, end_s)`` bounds on the monotonic clock
(``time.perf_counter``; on Linux a system-wide clock, so spans taken
in pool workers land on the same axis as the coordinator's), an
integer id, a parent id, and a flat attribute dict (per-trial,
per-stream, per-shard labels). Spans form a tree via ``parent_id``
and serialize to JSONL, one span per line.

A :class:`Tracer` collects spans. Instrumented code never imports a
concrete tracer; it consults the ambient hook::

    tracer = current_tracer()
    ...
    if tracer is not None:
        tracer.record("welch", started, time.perf_counter(), ...)

and :func:`activate` installs one for a ``with`` block. When no
tracer is active the hook returns ``None`` and the hot paths skip
even the timestamp reads — instrumentation is zero-cost when
disabled.

Process-pool workers do **not** see the parent's ambient tracer (and
must not rely on fork-time snapshots of it). The repository has one
process boundary, :meth:`repro.sim.engine.ExperimentEngine.map`, and
it carries the trace: under an active tracer each pooled task runs
under a fresh worker-local :class:`Tracer`, its spans travel home
with the result, and the caller re-bases them under its innermost
open span with :meth:`Tracer.adopt` — allocating fresh,
non-overlapping span ids so merged traces stay a single consistent
tree, the same tree an inline run records. Task functions simply open
their own spans with :func:`maybe_span`.

Tracing is bitwise-inert by construction: a tracer only reads clocks
and copies already-computed attribute values. Nothing in this module
draws randomness, mutates samples, or reorders work.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

__all__ = [
    "Span",
    "Tracer",
    "activate",
    "current_tracer",
    "maybe_span",
    "read_trace",
    "tracing_active",
    "unwritable_reason",
]


@dataclass(frozen=True)
class Span:
    """One timed region; picklable so workers can ship spans home."""

    span_id: int
    parent_id: int | None
    name: str
    start_s: float
    end_s: float
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready mapping (one JSONL line of the trace file)."""
        row: dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
        }
        if self.attrs:
            row["attrs"] = self.attrs
        return row

    @classmethod
    def from_dict(cls, row: dict[str, Any]) -> "Span":
        return cls(
            span_id=int(row["span_id"]),
            parent_id=(
                None if row.get("parent_id") is None else int(row["parent_id"])
            ),
            name=str(row["name"]),
            start_s=float(row["start_s"]),
            end_s=float(row["end_s"]),
            attrs=dict(row.get("attrs", {})),
        )


class Tracer:
    """Collects spans; thread-safe, with a per-thread nesting stack.

    Spans opened with the :meth:`span` context manager nest
    automatically: the innermost open span on the *current thread* is
    the default parent for anything recorded on that thread.
    Manually-timed spans (:meth:`record`) take an explicit parent, or
    inherit the same per-thread default. A parent whose id was
    allocated up front (:meth:`new_id`) is made the default with
    :meth:`attached`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next_id = 1
        self._spans: list[Span] = []
        self._stack = threading.local()
        #: Attributes of the spans open in :meth:`span`, by id.
        self._open: dict[int, dict[str, Any]] = {}

    # -- ids and the nesting stack ---------------------------------

    def new_id(self) -> int:
        """Allocate a fresh span id (for spans recorded after their
        children, e.g. a group span whose id children need up front)."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    def _stack_frames(self) -> list[int]:
        frames = getattr(self._stack, "frames", None)
        if frames is None:
            frames = []
            self._stack.frames = frames
        return frames

    def current_parent(self) -> int | None:
        """Innermost open span on this thread, or ``None``."""
        frames = self._stack_frames()
        return frames[-1] if frames else None

    @contextmanager
    def attached(self, parent_id: int | None) -> Iterator[None]:
        """Make ``parent_id`` the default parent on *this* thread.

        For a span recorded after its children: the caller allocates
        its id with :meth:`new_id`, runs the children attached under
        it, then records it. Work handed to another thread re-attaches
        under a captured ``current_parent()`` the same way.
        """
        if parent_id is None:
            yield
            return
        frames = self._stack_frames()
        frames.append(parent_id)
        try:
            yield
        finally:
            frames.pop()

    # -- recording -------------------------------------------------

    def record(
        self,
        name: str,
        start_s: float,
        end_s: float,
        *,
        parent_id: int | None | str = "inherit",
        span_id: int | None = None,
        **attrs: Any,
    ) -> Span:
        """Append a manually-timed span.

        ``parent_id`` defaults to the innermost open :meth:`span` on
        this thread; pass ``None`` for an explicit root, or an id to
        attach across threads/processes. ``span_id`` pre-allocated via
        :meth:`new_id` lets a parent be recorded after its children.
        """
        if parent_id == "inherit":
            parent_id = self.current_parent()
        if span_id is None:
            span_id = self.new_id()
        span = Span(
            span_id=span_id,
            parent_id=parent_id,  # type: ignore[arg-type]
            name=name,
            start_s=start_s,
            end_s=end_s,
            attrs=dict(attrs),
        )
        with self._lock:
            self._spans.append(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        *,
        parent_id: int | None | str = "inherit",
        **attrs: Any,
    ) -> Iterator[int]:
        """Open a nested span around a block; yields the span id."""
        if parent_id == "inherit":
            parent_id = self.current_parent()
        span_id = self.new_id()
        self._open[span_id] = attrs
        frames = self._stack_frames()
        frames.append(span_id)
        started = time.perf_counter()
        try:
            yield span_id
        finally:
            ended = time.perf_counter()
            frames.pop()
            self.record(
                name,
                started,
                ended,
                parent_id=parent_id,
                span_id=span_id,
                **self._open.pop(span_id),
            )

    def annotate(self, span_id: int, **attrs: Any) -> None:
        """Add attributes to a :meth:`span` that is still open: figures
        known only once its work is done."""
        self._open[span_id].update(attrs)

    # -- merging worker traces -------------------------------------

    def adopt(
        self,
        spans: Iterable[Span],
        *,
        parent_id: int | None | str = "inherit",
    ) -> list[Span]:
        """Re-base another tracer's spans into this trace.

        Every adopted span gets a fresh id from this tracer's counter
        (so per-shard traces merge without id collisions); internal
        parent links are remapped, and the adopted roots hang under
        ``parent_id`` (default: the innermost open span here).
        """
        if parent_id == "inherit":
            parent_id = self.current_parent()
        spans = list(spans)
        remap = {span.span_id: self.new_id() for span in spans}
        adopted = []
        for span in spans:
            if span.parent_id is not None and span.parent_id in remap:
                new_parent: int | None = remap[span.parent_id]
            else:
                new_parent = parent_id  # type: ignore[assignment]
            adopted.append(
                Span(
                    span_id=remap[span.span_id],
                    parent_id=new_parent,
                    name=span.name,
                    start_s=span.start_s,
                    end_s=span.end_s,
                    attrs=span.attrs,
                )
            )
        with self._lock:
            self._spans.extend(adopted)
        return adopted

    # -- export ----------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        """Snapshot of the recorded spans (insertion order)."""
        with self._lock:
            return list(self._spans)

    def write_jsonl(self, path: str | Path) -> int:
        """Write one span per line; returns the span count."""
        spans = self.spans
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.as_dict(), sort_keys=True))
                handle.write("\n")
        return len(spans)


def read_trace(path: str | Path) -> list[Span]:
    """Load a JSONL trace file back into :class:`Span` objects.

    A line that is not a span (bad JSON, not an object, a missing or
    mistyped field) raises :class:`ValueError` naming the file and
    line.
    """
    spans = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                spans.append(Span.from_dict(json.loads(line)))
            except (TypeError, ValueError, KeyError) as error:
                raise ValueError(
                    f"{path}, line {lineno}: not a span ({error!r})"
                ) from error
    return spans


def unwritable_reason(path: str | Path) -> str | None:
    """Why ``path`` cannot be written as an output file, or ``None``.

    The CLIs check their output paths with this before a run, so a
    bad ``--trace`` or ``--json`` fails at once rather than after the
    work it was meant to record.
    """
    target = Path(path)
    if target.is_dir():
        return "is a directory"
    parent = target.parent
    if not parent.is_dir():
        return f"no such directory: {parent}"
    if not os.access(parent, os.W_OK) or (
        target.exists() and not os.access(target, os.W_OK)
    ):
        return "permission denied"
    return None


# -- the ambient hook ---------------------------------------------

_ACTIVE: Tracer | None = None


def current_tracer() -> Tracer | None:
    """The installed tracer, or ``None`` (the common, zero-cost case)."""
    return _ACTIVE


def tracing_active() -> bool:
    return _ACTIVE is not None


@contextmanager
def activate(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the ambient tracer for a ``with`` block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


@contextmanager
def maybe_span(
    name: str,
    *,
    parent_id: int | None | str = "inherit",
    **attrs: Any,
) -> Iterator[int | None]:
    """Open a span on the ambient tracer, or do nothing.

    For coarse, non-hot regions (an experiment, a fleet run, dataset
    synthesis). Hot loops instead fetch :func:`current_tracer` once
    and branch on ``None`` so the disabled path stays free.
    """
    tracer = _ACTIVE
    if tracer is None:
        yield None
        return
    with tracer.span(name, parent_id=parent_id, **attrs) as span_id:
        yield span_id

