"""DTW template keyword recogniser.

Stands in for the victim device's speech recogniser (Google Assistant /
Alexa). Templates are MFCC matrices of enrolled commands; an incoming
recording is trimmed, featurised and matched against every template
with dynamic time warping under a Sakoe-Chiba band. The best-scoring
command wins if its normalised distance clears the acceptance
threshold, otherwise the recogniser rejects ("not understood" — the
outcome an attack at excessive range produces).

This recogniser is simple but *real*: its accuracy falls smoothly as
noise, reverberation and demodulation distortion grow, which is the
property every accuracy-vs-distance figure in the evaluation relies on.

There is one DTW implementation, over a batch of (recording,
template) pairs: the pairs are sorted by band and cut into slabs of
at most :attr:`KeywordRecognizer.MAX_SLAB_CELLS` table cells; each
slab's in-band local costs are computed first, one vectorised pass
per band offset, and the slab is then swept along anti-diagonals, two
``np.minimum`` and one ``np.add`` per diagonal. Recognising one
recording is a batch of one; the trial pipeline and the streaming
kernel hand in whole batches.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from repro.dsp.signals import Signal
from repro.speech.features import MfccConfig, MfccExtractor
from repro.speech.vad import trim_silence
from repro.errors import RecognitionError


@dataclass(frozen=True)
class RecognitionResult:
    """Outcome of one recognition attempt.

    Attributes
    ----------
    accepted:
        Whether any command cleared the acceptance threshold.
    command:
        Best-matching command name (set even when rejected, for
        diagnostics).
    distance:
        Normalised DTW distance of the best match (lower = better).
    distances:
        Every command's normalised distance, for margin analyses.
    """

    accepted: bool
    command: str
    distance: float
    distances: dict[str, float] = field(repr=False)

    def margin(self) -> float:
        """Distance gap between the best and second-best commands.

        Larger margins mean a more confident decision; experiments use
        this to study how distance erodes confidence before it breaks
        accuracy.
        """
        ordered = sorted(self.distances.values())
        if len(ordered) < 2:
            return float("inf")
        return float(ordered[1] - ordered[0])


class KeywordRecognizer:
    """Enroll commands, then recognise recordings.

    Parameters
    ----------
    acceptance_threshold:
        Maximum normalised DTW distance accepted as a successful
        recognition. Calibrated default suits the bundled MFCC recipe;
        the threshold is exposed because the defense experiments sweep
        it.
    band_fraction:
        Sakoe-Chiba band half-width as a fraction of the longer
        sequence, constraining pathological warps.
    mfcc:
        Feature front-end configuration.
    """

    #: Canonical feature-extraction rate. Every input — template or
    #: query, whatever device rate it arrives at — is resampled here
    #: first, so features are always comparable. 16 kHz matches real
    #: ASR front-ends, which keep only the sub-8 kHz band.
    CANONICAL_RATE_HZ = 16000.0

    #: Most float64 cells in one DTW slab's table (8 MB); bounds the
    #: DTW's working set whatever the batch size.
    MAX_SLAB_CELLS = 1 << 20

    def __init__(
        self,
        acceptance_threshold: float = 3.0,
        band_fraction: float = 0.2,
        mfcc: MfccConfig | None = None,
    ) -> None:
        if acceptance_threshold <= 0:
            raise RecognitionError(
                "acceptance_threshold must be positive, got "
                f"{acceptance_threshold}"
            )
        if not 0 < band_fraction <= 1:
            raise RecognitionError(
                f"band_fraction must be in (0, 1], got {band_fraction}"
            )
        self.acceptance_threshold = acceptance_threshold
        self.band_fraction = band_fraction
        self._extractor = MfccExtractor(mfcc)
        self._templates: dict[str, list[np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Enrollment
    # ------------------------------------------------------------------
    def enroll(self, command: str, recording: Signal) -> None:
        """Add a template recording for a command.

        Multiple enrollments per command are supported; recognition
        scores against the closest template.
        """
        features = self._featurize(recording)
        self._templates.setdefault(command, []).append(features)

    def enroll_multi_condition(
        self,
        command: str,
        recording: Signal,
        rng: np.random.Generator,
        noise_levels: tuple[float, ...] = (0.05, 0.3),
    ) -> None:
        """Enroll a clean template plus noise-corrupted variants.

        Commercial recognisers are trained on noisy data and are far
        more robust than a single clean template; this helper gives the
        DTW recogniser the same property (one clean template plus one
        per noise level, each level an RMS fraction of the clean
        signal's RMS).
        """
        from repro.dsp.signals import white_noise

        self.enroll(command, recording)
        for level in noise_levels:
            if level <= 0:
                raise RecognitionError(
                    f"noise levels must be positive, got {level}"
                )
            noise = white_noise(
                recording.duration,
                recording.sample_rate,
                rng,
                rms_level=level * recording.rms(),
                unit=recording.unit,
            ).padded_to(recording.n_samples)
            self.enroll(command, recording + noise)

    @property
    def commands(self) -> list[str]:
        """Enrolled command names, sorted."""
        return sorted(self._templates)

    # ------------------------------------------------------------------
    # Recognition
    # ------------------------------------------------------------------
    def recognize(self, recording: Signal) -> RecognitionResult:
        """Match a recording against every enrolled command: a batch of
        one through :meth:`recognize_many`."""
        return self.recognize_many([recording])[0]

    def recognize_many(
        self, recordings: list[Signal]
    ) -> list[RecognitionResult]:
        """Match recordings of any lengths against every command.

        The one recognition body and the one override point:
        :meth:`recognize` and the trial pipeline's ``recognize`` stage
        both land here. Each recording is featurised on its own
        (resample, silence trim, MFCC) and only the DTW, the dominant
        cost, is batched: every (recording, template) pair goes to
        one :meth:`_dtw_distance_batch` call, whose slabs of at most
        :attr:`MAX_SLAB_CELLS` table cells bound the working set
        whatever the batch size. Every pair's cells are confined to
        its own band, so slab composition cannot change a score:
        entry ``i`` is bitwise ``recognize_many([recordings[i]])[0]``.
        """
        if not self._templates:
            raise RecognitionError(
                "no commands enrolled; call enroll() before recognize()"
            )
        templates = [
            (command, template)
            for command, group in self._templates.items()
            for template in group
        ]
        features = [self._featurize(r) for r in recordings]
        scores = iter(
            self._dtw_distance_batch(
                [
                    (query, template)
                    for query in features
                    for _, template in templates
                ]
            )
        )
        results: list[RecognitionResult] = []
        for _ in features:
            distances: dict[str, float] = {}
            for command, _ in templates:
                score = next(scores)
                distances[command] = min(
                    distances.get(command, score), score
                )
            best_command = min(distances, key=distances.get)
            best_distance = distances[best_command]
            results.append(
                RecognitionResult(
                    accepted=best_distance <= self.acceptance_threshold,
                    command=best_command,
                    distance=best_distance,
                    distances=distances,
                )
            )
        return results

    def recognizes_as(self, recording: Signal, command: str) -> bool:
        """True if the recording is accepted *and* matches ``command``.

        This is the per-trial success criterion of the attack
        experiments: the device must both wake and parse the intended
        command.
        """
        result = self.recognize(recording)
        return result.accepted and result.command == command

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _featurize(self, recording: Signal) -> np.ndarray:
        from repro.dsp.resample import resample

        canonical = resample(recording, self.CANONICAL_RATE_HZ)
        trimmed = trim_silence(canonical)
        return self._extractor.extract(trimmed)

    def _dtw_distance_batch(
        self, pairs: list[tuple[np.ndarray, np.ndarray]]
    ) -> list[float]:
        """Banded DTW over many (query, template) pairs at once.

        The per-cell arithmetic is the textbook banded DTW's:
        Euclidean local cost, ``min`` of the three unit-weight
        predecessors, out-of-band cells at infinity, and the score of
        a pair is its cell ``(n, m)`` divided by ``n + m`` so
        sequences of different lengths are comparable. Pairs are
        sorted by band half-width and cut into slabs whose table holds
        at most :attr:`MAX_SLAB_CELLS` cells (a slab holds at least
        one pair); :meth:`_dtw_slab` sweeps each. No pair reads
        another's cells, so neither the order nor the slab around a
        pair changes its score.
        """
        ns: list[int] = []
        ms: list[int] = []
        bands: list[int] = []
        for a, b in pairs:
            n, m = a.shape[0], b.shape[0]
            if n == 0 or m == 0:
                raise RecognitionError(
                    "cannot DTW-match empty feature matrices"
                )
            ns.append(n)
            ms.append(m)
            bands.append(
                max(int(self.band_fraction * max(n, m)), abs(n - m) + 1)
            )
        # Similar bands share slabs and cost blocks, so few cells
        # outside a pair's own band are ever computed.
        order = sorted(
            range(len(pairs)), key=lambda k: (bands[k], ns[k] + ms[k])
        )
        costs = np.empty(len(pairs))
        lo = 0
        while lo < len(order):
            hi, diags, band = lo, 0, 0
            while hi < len(order):
                k = order[hi]
                grown_diags = max(diags, ns[k] + ms[k])
                grown_band = max(band, bands[k])
                cells = (hi + 1 - lo) * (grown_diags + 1) * (grown_band + 3)
                if hi > lo and cells > self.MAX_SLAB_CELLS:
                    break
                hi, diags, band = hi + 1, grown_diags, grown_band
            slab = order[lo:hi]
            costs[slab] = self._dtw_slab(
                [pairs[k] for k in slab],
                [ns[k] for k in slab],
                [ms[k] for k in slab],
                [bands[k] for k in slab],
            )
            lo = hi
        out = []
        for n, m, cost in zip(ns, ms, costs):
            if not np.isfinite(cost):
                raise RecognitionError(
                    "DTW band too narrow for the length mismatch "
                    f"between sequences ({n} vs {m} frames)"
                )
            out.append(float(cost / (n + m)))
        return out

    def _dtw_slab(
        self,
        pairs: list[tuple[np.ndarray, np.ndarray]],
        ns: list[int],
        ms: list[int],
        bands: list[int],
    ) -> np.ndarray:
        """Cumulative cost at cell ``(n, m)`` of every pair in a slab.

        ``bands`` must ascend. The slab's DP tables live in one
        diagonal-major array: ``table[d, p, k]`` is cell ``(i, j)`` of
        pair ``k`` with ``i + j = d`` and ``p = (j - i + B) // 2 + 1``,
        ``B`` being the slab's widest band. Positions ``0`` and
        ``B + 2`` are guards; they, padding and every out-of-band cell
        hold infinity from the start.

        First every in-band cell receives its local cost: one pass
        per band offset ``j - i``, over blocks of pairs sized so the
        ``(pairs, frames, coefficients)`` difference temporary is
        1/32 of the cell budget (256 KB, cache-sized, at the
        default). The subtraction writes a fresh contiguous
        temporary, so the coefficient-axis reduction order is that of
        one row of the textbook DTW. Query padding is ``+inf`` and
        template padding ``-inf``, so cells past a pair's own length
        cost infinity with no mask (their difference is never
        ``inf - inf``), and an offset only visits pairs whose band
        reaches it. Then the sweep: the predecessors of a diagonal-``d``
        cell sit at ``p`` on diagonal ``d - 2`` and at ``p`` and
        ``p - 1`` (``p + 1`` when ``j - i + B`` is odd) on diagonal
        ``d - 1``, so each diagonal is two ``np.minimum`` and one
        in-place ``np.add`` over contiguous rows of the array.
        """
        n_pairs = len(pairs)
        band_max = bands[-1]
        n_diags = max(map(sum, zip(ns, ms))) + 1
        n_coeffs = pairs[0][0].shape[1]
        inf = np.inf
        width = band_max + 3
        table = np.full((n_diags, width, n_pairs), inf)
        table[0, band_max // 2 + 1] = 0.0  # cell (0, 0)
        per_block = max(
            1, (self.MAX_SLAB_CELLS // 32) // (max(ns) * n_coeffs)
        )
        for p0 in range(0, n_pairs, per_block):
            p1 = min(n_pairs, p0 + per_block)
            n_blk, m_blk = max(ns[p0:p1]), max(ms[p0:p1])
            d_blk = max(map(sum, zip(ns[p0:p1], ms[p0:p1])))
            a_pad = np.full((p1 - p0, n_blk, n_coeffs), inf)
            b_pad = np.full((p1 - p0, m_blk, n_coeffs), -inf)
            for k, (a, b) in enumerate(pairs[p0:p1]):
                a_pad[k, : a.shape[0]] = a
                b_pad[k, : b.shape[0]] = b
            for off in range(-bands[p1 - 1], bands[p1 - 1] + 1):
                # Cells (i, i + off) of the pairs whose band reaches
                # off, on diagonals 2i + off.
                first = bisect_left(bands, abs(off), p0, p1)
                i_lo = max(1, 1 - off)
                i_hi = min(n_blk, m_blk - off, (d_blk - off) // 2)
                if i_lo > i_hi:
                    continue
                diffs = (
                    a_pad[first - p0 :, i_lo - 1 : i_hi]
                    - b_pad[first - p0 :, i_lo - 1 + off : i_hi + off]
                )
                np.multiply(diffs, diffs, out=diffs)
                np.sqrt(
                    np.add.reduce(diffs, axis=-1).T,
                    out=table[
                        2 * i_lo + off : 2 * i_hi + off + 1 : 2,
                        (off + band_max) // 2 + 1,
                        first:p1,
                    ],
                )
        rows = table.reshape(n_diags, width * n_pairs)
        same = slice(n_pairs, (width - 1) * n_pairs)
        below = slice(0, (width - 2) * n_pairs)
        above = slice(2 * n_pairs, width * n_pairs)
        step = np.empty((width - 2) * n_pairs)
        for diag in range(2, n_diags):
            odd = (diag + band_max) % 2
            # (i - 1, j - 1), then (i - 1, j) and (i, j - 1).
            np.minimum(
                rows[diag - 2, same],
                rows[diag - 1, above if odd else same],
                out=step,
            )
            np.minimum(
                step, rows[diag - 1, same if odd else below], out=step
            )
            cells = rows[diag, same]
            np.add(cells, step, out=cells)
        return table[
            np.add(ns, ms),
            (np.subtract(ms, ns) + band_max) // 2 + 1,
            np.arange(n_pairs),
        ]
