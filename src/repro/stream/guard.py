"""The online guarded assistant: chunks in, vetoed utterances out.

:class:`StreamingGuard` is the deployment the paper describes — the
defense sitting *in front of* a live assistant. It is a
:class:`~repro.stream.kernel.StreamGroup` of one: each pushed chunk is
a ``(1, k)`` block, and the group's segmenter, ring, Welch
accumulation and :func:`~repro.stream.kernel.decide` — the *same*
:func:`repro.defense.guard.guard_outcome` policy as the offline
:class:`~repro.defense.guard.GuardedVoiceAssistant` — do the work.

Parity contract: for a given sample sequence forming one utterance,
the emitted :class:`~repro.defense.guard.GuardedOutcome` — verdict,
score and features — is bitwise identical to the offline assistant
processing the same samples as one
:class:`~repro.dsp.signals.Signal`, for **any** partition of those
samples into push chunks.

Two gating modes:

* **gated** (default) — the online segmenter delimits utterances;
  :meth:`push` returns the utterances closed by that chunk, each with
  its deterministic, sample-denominated detection latency.
* **gateless** (``gated=False``) — the caller delimits utterances
  (:meth:`end_utterance`), which is how the parity suites and the S1
  experiment compare a chunked stream against the offline guard on
  identical sample spans. The pushed chunks are buffered and decided
  at the caller's close; the Welch accumulator walks the whole
  utterance then.
"""

from __future__ import annotations

import numpy as np

from repro.defense.detector import InaudibleVoiceDetector
from repro.defense.guard import GuardedOutcome
from repro.dsp.signals import Signal, Unit
from repro.errors import StreamError
from repro.speech.recognizer import KeywordRecognizer
from repro.stream.features import WelchAccumulator
from repro.stream.kernel import (
    StreamGroup,
    UtteranceOutcome,
    check_guard,
    decide,
)
from repro.stream.segmenter import SegmenterConfig


class StreamingGuard:
    """Online counterpart of the offline guarded voice assistant.

    Parameters
    ----------
    recognizer:
        An enrolled :class:`~repro.speech.recognizer.KeywordRecognizer`.
    detector:
        A trained
        :class:`~repro.defense.detector.InaudibleVoiceDetector`.
    sample_rate:
        Device rate of the incoming stream.
    unit:
        Unit of the incoming samples (device recordings are digital).
    gated:
        ``True`` installs the online segmenter; ``False`` leaves
        utterance delimitation to the caller (:meth:`end_utterance`).
    segmenter_config:
        Gate tuning (gated mode only).
    """

    def __init__(
        self,
        recognizer: KeywordRecognizer,
        detector: InaudibleVoiceDetector,
        sample_rate: float,
        unit: str = Unit.DIGITAL,
        gated: bool = True,
        segmenter_config: SegmenterConfig | None = None,
    ) -> None:
        check_guard(recognizer, sample_rate)
        if not gated and segmenter_config is not None:
            raise StreamError(
                "segmenter_config is meaningless with gated=False"
            )
        self.recognizer = recognizer
        self.detector = detector
        self.sample_rate = float(sample_rate)
        self.unit = unit
        self.gated = bool(gated)
        if self.gated:
            self._group = StreamGroup(
                detector,
                segmenter_config,
                [0],
                self.sample_rate,
                recognizer,
                [unit],
            )
        else:
            self._chunks: list[np.ndarray] = []

    def push(self, chunk: np.ndarray) -> list[UtteranceOutcome]:
        """Feed a chunk; returns the utterances it closed (gated), or
        an empty list (gateless — call :meth:`end_utterance`)."""
        samples = np.asarray(chunk, dtype=np.float64)
        if samples.ndim != 1:
            raise StreamError(
                f"push expects a 1-D chunk, got shape {samples.shape}"
            )
        if not self.gated:
            self._chunks.append(samples.copy())
            return []
        return self._group.push(
            samples[np.newaxis, :], (samples.shape[0],)
        )[0]

    def flush(self) -> list[UtteranceOutcome]:
        """End of stream: close and decide any open utterance."""
        if not self.gated:
            raise StreamError(
                "flush() is for gated streams; gateless callers use "
                "end_utterance()"
            )
        return self._group.flush()[0]

    def end_utterance(self) -> GuardedOutcome:
        """Close the caller-delimited utterance and decide it.

        Bitwise identical to the offline assistant's ``process`` of
        the concatenated pushed samples, whatever the chunking.
        """
        if self.gated:
            raise StreamError(
                "end_utterance() is for gateless streams; gated "
                "streams close through their segmenter (or flush())"
            )
        samples = np.concatenate(self._chunks) if self._chunks else None
        self._chunks = []
        if samples is None or samples.shape[0] == 0:
            raise StreamError(
                "no samples pushed since the last utterance"
            )
        welch = WelchAccumulator(self.sample_rate)
        return decide(
            self.recognizer,
            self.detector,
            self.sample_rate,
            [(samples, welch, self.unit)],
        )[0]

    def process_recording(
        self, recording: Signal, chunk_samples: int
    ) -> GuardedOutcome:
        """Stream one recording through in fixed-size chunks.

        Gateless convenience used by the parity suites, the S1
        experiment and the CI differential: pushes ``recording`` in
        ``chunk_samples`` pieces and closes — the result must equal
        ``GuardedVoiceAssistant.process(recording)`` bitwise.
        """
        if self.gated:
            raise StreamError(
                "process_recording() needs a gateless guard "
                "(gated=False)"
            )
        if chunk_samples < 1:
            raise StreamError(
                f"chunk_samples must be >= 1, got {chunk_samples}"
            )
        if recording.sample_rate != self.sample_rate:
            raise StreamError(
                f"recording rate {recording.sample_rate} Hz does not "
                f"match the stream rate {self.sample_rate} Hz"
            )
        if recording.unit != self.unit:
            raise StreamError(
                f"recording unit {recording.unit!r} does not match "
                f"the stream unit {self.unit!r}"
            )
        samples = recording.samples
        for start in range(0, samples.shape[0], chunk_samples):
            self.push(samples[start : start + chunk_samples])
        return self.end_utterance()
