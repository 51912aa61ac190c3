"""Frame/hop arithmetic: the single source of truth.

Several subsystems cut waveforms into short analysis frames — the
energy VAD (:mod:`repro.speech.vad`), the defense's band envelopes
(:mod:`repro.defense.traces`) and the online chunker of the streaming
guard (:mod:`repro.stream.chunker`). They used to restate the same
``int(round(seconds * rate))`` conversions and off-by-one frame-count
edge cases independently; any drift between those restatements breaks
the streaming subsystem's bitwise-parity guarantee (an online frame
count that disagrees with the offline one by one frame shifts every
downstream decision). This module is the one statement of that
arithmetic:

* :func:`frame_params` — seconds to integer ``(frame_len, hop)``;
* :func:`frame_count` — how many complete frames a sample count holds;
* :func:`sliding_frames` — the strided ``(n_frames, frame_len)`` view;
* :func:`frame_rms` — per-frame RMS energies over that view.

Offline callers pass a whole waveform; the streaming chunker applies
the same functions to the growing prefix it has buffered, which is why
its frame boundaries and energies match the offline ones bitwise by
construction.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SignalDomainError


def frame_params(
    sample_rate: float,
    frame_length_s: float,
    hop_length_s: float,
) -> tuple[int, int]:
    """Integer ``(frame_len, hop)`` for second-valued frame settings.

    Uses ``int(round(...))`` — the conversion every framing call site
    in the library has always used — and validates that both come out
    positive, so a pathological rate/length combination fails here
    with one message instead of as a downstream stride error.
    """
    frame_len = int(round(frame_length_s * sample_rate))
    hop = int(round(hop_length_s * sample_rate))
    if frame_len <= 0 or hop <= 0:
        raise SignalDomainError(
            f"frame and hop lengths must be positive, got frame "
            f"{frame_length_s} s and hop {hop_length_s} s at "
            f"{sample_rate} Hz"
        )
    return frame_len, hop


def frame_count(n_samples: int, frame_len: int, hop: int) -> int:
    """Complete frames in ``n_samples`` (frame ``i`` starts at
    ``i * hop`` and spans ``frame_len`` samples).

    Zero when the signal is shorter than one frame — callers decide
    whether that is an error (the VAD raises) or simply "no frames
    yet" (the streaming chunker waits for more samples).
    """
    if frame_len <= 0 or hop <= 0:
        raise SignalDomainError(
            f"frame_len and hop must be positive, got {frame_len} "
            f"and {hop}"
        )
    if n_samples < frame_len:
        return 0
    return (n_samples - frame_len) // hop + 1


def sliding_frames(
    samples: np.ndarray, frame_len: int, hop: int
) -> np.ndarray:
    """The ``(n_frames, frame_len)`` strided frame view of a waveform.

    A zero-copy view when possible (the same
    ``sliding_window_view(...)[::hop]`` the VAD has always used), so
    per-frame reductions over it are bitwise identical wherever they
    run.
    """
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise SignalDomainError(
            f"sliding_frames expects a 1-D waveform, got shape "
            f"{samples.shape}"
        )
    if frame_len <= 0 or hop <= 0:
        raise SignalDomainError(
            f"frame_len and hop must be positive, got {frame_len} "
            f"and {hop}"
        )
    if samples.shape[0] < frame_len:
        raise SignalDomainError(
            f"waveform ({samples.shape[0]} samples) shorter than one "
            f"frame ({frame_len})"
        )
    return np.lib.stride_tricks.sliding_window_view(samples, frame_len)[
        ::hop
    ]


def frame_rms(
    samples: np.ndarray, frame_len: int, hop: int
) -> np.ndarray:
    """Per-frame RMS energies, one value per complete frame.

    The exact reduction the VAD applies —
    ``sqrt(mean(square(frame)))`` along the frame axis — shared so
    that online frame energies computed over a streamed prefix match
    the offline ones over the full recording bitwise.
    """
    frames = sliding_frames(samples, frame_len, hop)
    return np.sqrt(np.mean(np.square(frames), axis=1))


def sliding_frames_matrix(
    samples: np.ndarray, frame_len: int, hop: int
) -> np.ndarray:
    """The ``(n_rows, n_frames, frame_len)`` frame view of a stack.

    Row ``i`` of the result has the shape and strides of
    ``sliding_frames(samples[i])`` — the same strided view, taken
    along the last axis — so per-frame reductions over a whole stream
    batch are bitwise identical to the per-row calls they replace.
    The view is built directly: it is on the streaming hot path, where
    ``sliding_window_view``'s own overhead is a large share of a
    50 ms cycle.
    """
    samples = np.asarray(samples)
    if samples.ndim != 2:
        raise SignalDomainError(
            f"sliding_frames_matrix expects a 2-D (n_rows, n_samples) "
            f"stack, got shape {samples.shape}"
        )
    if frame_len <= 0 or hop <= 0:
        raise SignalDomainError(
            f"frame_len and hop must be positive, got {frame_len} "
            f"and {hop}"
        )
    if samples.shape[-1] < frame_len:
        raise SignalDomainError(
            f"rows ({samples.shape[-1]} samples) shorter than one "
            f"frame ({frame_len})"
        )
    n_rows, n_samples = samples.shape
    row_stride, sample_stride = samples.strides
    return np.lib.stride_tricks.as_strided(
        samples,
        shape=(n_rows, (n_samples - frame_len) // hop + 1, frame_len),
        strides=(row_stride, hop * sample_stride, sample_stride),
        writeable=False,
    )


def frame_rms_matrix(
    samples: np.ndarray, frame_len: int, hop: int
) -> np.ndarray:
    """Per-frame RMS energies of every row of a sample stack.

    The ``(n_rows, n_frames)`` counterpart of :func:`frame_rms`: one
    ``sqrt(mean(square))`` reduction over the strided frame view of
    the whole stack. Each row is bitwise identical to
    ``frame_rms(samples[i], ...)`` — the per-frame pairwise summation
    is unchanged by the leading batch axis — which is what lets the
    fleet kernel compute every stream's frame energies in one op.
    """
    frames = sliding_frames_matrix(samples, frame_len, hop)
    # np.mean's own sum-then-divide, without its per-call overhead.
    return np.sqrt(np.add.reduce(np.square(frames), axis=-1) / frame_len)
