"""Incremental Welch/trace extraction: bitwise equality with offline.

The streaming guard's parity rests on two layers pinned here:

* :class:`WelchAccumulator` reproduces
  :func:`~repro.dsp.spectrum.welch_psd_matrix` bitwise for any chunk
  arrival pattern and any commit schedule, on both sides of the
  one-segment boundary (incremental accumulation vs the padded-FFT
  fallback);
* the close-time analysis — the accumulator's PSD through
  :func:`~repro.defense.traces.analyses_from_psd`, as the stream
  group's decide phase runs it — reproduces
  :func:`~repro.defense.traces.analyze_traces` bitwise, including
  when the utterance end retroactively trims buffered samples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import chunk_partitions
from repro.defense.traces import analyses_from_psd, analyze_traces
from repro.dsp.signals import Signal, SignalBatch
from repro.dsp.spectrum import welch_psd_matrix
from repro.errors import StreamError
from repro.stream.features import WelchAccumulator


def _wave(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=n)


class TestWelchAccumulator:
    @given(
        n=st.integers(min_value=300, max_value=2000),
        seed=st.integers(min_value=0, max_value=2**31),
        parts=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_bitwise_any_commit_schedule(self, n, seed, parts):
        rate = 8000.0
        wave = _wave(n, seed)
        reference = welch_psd_matrix(
            wave[np.newaxis, :],
            rate,
            segment_length=min(256, n),
            window="blackman",
        )
        acc = WelchAccumulator(rate, segment_length=256)
        # Commit in `parts` arbitrary monotone steps, then finalize.
        bounds = sorted(
            np.random.default_rng(seed + 1).integers(0, n + 1, parts)
        )
        for bound in bounds:
            acc.advance(wave, int(bound))
        freqs, psd = acc.finalize(wave, n)
        assert np.array_equal(freqs, reference[0])
        assert np.array_equal(psd, reference[1])

    def test_short_signal_fallback_matches(self):
        rate = 8000.0
        wave = _wave(200, 3)
        acc = WelchAccumulator(rate, segment_length=256)
        acc.advance(wave, 200)  # no whole segment: accumulates nothing
        assert acc.segments_accumulated == 0
        freqs, psd = acc.finalize(wave, 200)
        ref_freqs, ref_psd = welch_psd_matrix(
            wave[np.newaxis, :],
            rate,
            segment_length=200,
            window="blackman",
        )
        assert np.array_equal(freqs, ref_freqs)
        assert np.array_equal(psd, ref_psd)

    def test_exact_one_segment_boundary(self):
        rate = 8000.0
        wave = _wave(256, 4)
        acc = WelchAccumulator(rate, segment_length=256)
        freqs, psd = acc.finalize(wave, 256)
        ref = welch_psd_matrix(
            wave[np.newaxis, :], rate, segment_length=256,
            window="blackman",
        )
        assert np.array_equal(psd, ref[1])

    def test_commit_beyond_buffer_raises(self):
        acc = WelchAccumulator(8000.0, segment_length=256)
        with pytest.raises(StreamError):
            acc.advance(np.zeros(100), 200)

    def test_overrun_caught_on_the_incremental_path_too(self):
        """Committing past the eventual close is an error on both
        sides of the one-segment boundary, never a silent divergence."""
        wave = _wave(2000, 5)
        acc = WelchAccumulator(8000.0, segment_length=256)
        acc.advance(wave, 2000)
        with pytest.raises(StreamError):
            acc.finalize(wave, 600)  # accumulated segments cross 600

    def test_invalid_parameters_rejected(self):
        with pytest.raises(StreamError):
            WelchAccumulator(8000.0, segment_length=1)
        with pytest.raises(StreamError):
            WelchAccumulator(8000.0, overlap=1.0)
        acc = WelchAccumulator(8000.0, segment_length=256)
        with pytest.raises(StreamError):
            acc.finalize(np.zeros(10), 0)


def _close_analysis(wave, rate, commits, length):
    """The close-time trace analysis as the stream group computes it:
    Welch segments committed at each bound in ``commits``, the tail
    finished at close, then the shared band/envelope arithmetic."""
    welch = WelchAccumulator(rate)
    for bound in commits:
        welch.advance(wave, bound)
    freqs, psd = welch.finalize(wave, length)
    batch = SignalBatch(wave[np.newaxis, :length], rate)
    return analyses_from_psd(batch, freqs, psd)[0]


class TestCloseAnalysis:
    @given(
        n=st.integers(min_value=4000, max_value=20000),
        seed=st.integers(min_value=0, max_value=2**31),
        data=st.data(),
    )
    @settings(max_examples=15, deadline=None)
    def test_bitwise_any_partition(self, n, seed, data):
        """Any chunking, eager commits: analysis equals offline."""
        rate = 16000.0
        wave = _wave(n, seed)
        partition = data.draw(chunk_partitions(n, max_parts=6))
        commits = np.cumsum(partition).tolist()
        online = _close_analysis(wave, rate, commits, n)
        offline = analyze_traces(Signal(wave, rate))
        assert online == offline

    def test_retroactive_trim_matches_offline(self):
        """Samples buffered past the close boundary are trimmed
        bitwise: only the committed lower bound was accumulated."""
        rate = 16000.0
        wave = _wave(18000, 11)
        length = 12500
        online = _close_analysis(wave, rate, [9000, length], length)
        offline = analyze_traces(Signal(wave[:length], rate))
        assert online == offline

    def test_commit_overrun_is_caught(self):
        with pytest.raises(StreamError):
            _close_analysis(_wave(18000, 12), 16000.0, [18000], 9000)
