"""The slab DTW kernel against a textbook reference.

:meth:`KeywordRecognizer._dtw_distance_batch` is the recogniser's only
DTW: an anti-diagonal sweep over a padded slab of (query, template)
pairs. Its oracle here is :func:`reference_dtw`, the plain row-by-row
banded DTW the kernel must reproduce bitwise for every pair, whatever
else shares the slab. The ``FUZZ_EXAMPLES`` environment variable
scales the property's example count (CI's fuzz-smoke job raises it;
the default keeps local runs fast).
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RecognitionError
from repro.speech.commands import synthesize_command
from repro.speech.recognizer import KeywordRecognizer

#: Property example budget — CI's fuzz-smoke job raises it, local
#: runs keep the default.
FUZZ_EXAMPLES = int(os.environ.get("FUZZ_EXAMPLES", "6"))


def reference_dtw(a: np.ndarray, b: np.ndarray, band_fraction: float) -> float:
    """Band-constrained DTW, normalised by path-independent length.

    Frame-pair cost is Euclidean distance in feature space; steps are
    the standard (diagonal, vertical, horizontal) with unit weights;
    the Sakoe-Chiba band half-width is ``band_fraction`` of the longer
    sequence, widened to cover the length mismatch; the final distance
    is divided by ``len(a) + len(b)``. The table is filled row by row.
    """
    n, m = a.shape[0], b.shape[0]
    if n == 0 or m == 0:
        raise RecognitionError("cannot DTW-match empty feature matrices")
    band = max(int(band_fraction * max(n, m)), abs(n - m) + 1)
    inf = np.inf
    cost = np.full((n + 1, m + 1), inf)
    cost[0, 0] = 0.0
    for i in range(1, n + 1):
        j_low = max(1, i - band)
        j_high = min(m, i + band)
        diffs = b[j_low - 1 : j_high] - a[i - 1]
        local = np.sqrt(np.sum(diffs * diffs, axis=1))
        for offset, j in enumerate(range(j_low, j_high + 1)):
            step = min(cost[i - 1, j - 1], cost[i - 1, j], cost[i, j - 1])
            cost[i, j] = local[offset] + step
    distance = cost[n, m]
    if not np.isfinite(distance):
        raise RecognitionError(
            "DTW band too narrow for the length mismatch between "
            f"sequences ({n} vs {m} frames)"
        )
    return float(distance / (n + m))


@st.composite
def dtw_slabs(draw):
    """A slab of (query, template) pairs with mixed frame counts.

    Every matrix has 1-60 frames and the slab shares one coefficient
    count. Sometimes one query is scaled to ``1e200``: its squared
    local costs overflow, its score is infinite, and both DTWs must
    raise the band-too-narrow :class:`RecognitionError`.
    """
    n_pairs = draw(st.integers(min_value=1, max_value=6))
    n_coeffs = draw(st.integers(min_value=1, max_value=13))
    frames = st.integers(min_value=1, max_value=60)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = [
        (
            rng.normal(size=(draw(frames), n_coeffs)),
            rng.normal(size=(draw(frames), n_coeffs)),
        )
        for _ in range(n_pairs)
    ]
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        k = draw(st.integers(min_value=0, max_value=n_pairs - 1))
        pairs[k] = (pairs[k][0] * 1e200, pairs[k][1])
    return pairs


class TestSlabKernel:
    @settings(max_examples=5 * FUZZ_EXAMPLES, deadline=None)
    @given(
        pairs=dtw_slabs(),
        band_fraction=st.floats(
            min_value=0.0, max_value=1.0, exclude_min=True
        ),
    )
    def test_kernel_equals_reference_dtw_bitwise(self, pairs, band_fraction):
        recognizer = KeywordRecognizer(band_fraction=band_fraction)
        with np.errstate(over="ignore"):
            expected = []
            for a, b in pairs:
                try:
                    expected.append(reference_dtw(a, b, band_fraction))
                except RecognitionError:
                    expected.append(None)
            if None in expected:
                with pytest.raises(RecognitionError, match="too narrow"):
                    recognizer._dtw_distance_batch(pairs)
                return
            got = recognizer._dtw_distance_batch(pairs)
        assert [score.hex() for score in got] == [
            score.hex() for score in expected
        ]

    def test_recognize_matches_reference_dtw_on_mfcc(
        self, enrolled_recognizer
    ):
        # Real MFCC features end to end: every per-command distance
        # recognize() reports is the best reference score over that
        # command's templates.
        wave = synthesize_command("alexa", np.random.default_rng(91))
        result = enrolled_recognizer.recognize(wave)
        query = enrolled_recognizer._featurize(wave)
        for command, templates in enrolled_recognizer._templates.items():
            best = min(
                reference_dtw(
                    query, template, enrolled_recognizer.band_fraction
                )
                for template in templates
            )
            assert result.distances[command] == best
