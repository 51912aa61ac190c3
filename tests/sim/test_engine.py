"""Unit tests for the parallel cached experiment engine.

The load-bearing guarantees:

* results are bit-identical for every ``jobs`` value (the paper's
  numbers must not depend on the machine's core count);
* the emission cache computes each recipe once per process and
  accounts hits/misses;
* invalid configuration fails loudly with :class:`ExperimentError`;
* the adaptive range search never measures a distance twice;
* ``map`` is one process boundary that carries the trace: spans a
  pooled task records come home under the caller's open span, in the
  tree an inline run records.
"""

import os

import numpy as np
import pytest

from repro.dsp.signals import Signal
from repro.errors import ExperimentError
from repro.obs.trace import Tracer, activate, maybe_span
from repro.experiments._emissions import (
    ATTACKER_POSITION,
    single_full,
)
from repro.sim.engine import (
    EmissionCache,
    EmissionSpec,
    ExperimentEngine,
    TrialGroup,
    attack_range_search,
    cached_voice,
    process_cache,
    stable_key,
)
from repro.sim.cache import array_nbytes
from repro.sim.pipeline import TrialContext
from repro.sim.scenario import Scenario, VictimDevice


def spanned_square(x):
    """A module-level map task (pickled by reference) that traces."""
    with maybe_span("task", x=x):
        with maybe_span("inner", x=x):
            pass
    return x * x


def span_paths(spans):
    """Sorted root-to-span (name, attrs) paths: the tree's shape,
    independent of span ids and recording order."""
    by_id = {span.span_id: span for span in spans}
    paths = []
    for span in spans:
        path, cursor = [], span
        while cursor is not None:
            path.append((cursor.name, sorted(cursor.attrs.items())))
            cursor = by_id.get(cursor.parent_id)
        paths.append(tuple(reversed(path)))
    return sorted(paths)


@pytest.fixture(scope="module")
def phone_device():
    return VictimDevice.phone(commands=("ok_google",), seed=91)


@pytest.fixture(scope="module")
def scenario():
    return Scenario(
        command="ok_google",
        attacker_position=ATTACKER_POSITION,
        victim_position=ATTACKER_POSITION.translated(2.0, 0.0, 0.0),
    )


@pytest.fixture(scope="module")
def emission_spec():
    return EmissionSpec(single_full, ("ok_google", 5))


class TestJobsValidation:
    @pytest.mark.parametrize("jobs", [0, -1, -8])
    def test_non_positive_jobs_rejected(self, jobs):
        with pytest.raises(ExperimentError):
            ExperimentEngine(jobs=jobs)

    @pytest.mark.parametrize("jobs", [1.5, "4", True])
    def test_non_integer_jobs_rejected(self, jobs):
        with pytest.raises(ExperimentError):
            ExperimentEngine(jobs=jobs)

    def test_default_jobs_is_cpu_count(self):
        engine = ExperimentEngine()
        assert engine.jobs == (os.cpu_count() or 1)

    def test_serial_engine_never_builds_a_pool(self):
        engine = ExperimentEngine(jobs=1)
        assert engine.map(str, [1, 2, 3]) == ["1", "2", "3"]
        assert engine._pool is None


class TestDeterminismAcrossJobs:
    """Same seed => identical results at jobs=1 and jobs=4."""

    @pytest.fixture(scope="class")
    def outcome_pair(self, scenario, phone_device, emission_spec):
        def trials(jobs):
            group = TrialGroup(scenario, phone_device, emission_spec, 4)
            with ExperimentEngine(jobs=jobs) as engine:
                return engine.run_trial_groups(
                    [group], np.random.default_rng(17)
                )[0]

        return trials(1), trials(4)

    def test_outcomes_bit_identical(self, outcome_pair):
        serial, parallel = outcome_pair
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert a.success == b.success
            assert a.recognized_command == b.recognized_command
            assert a.distance == b.distance  # exact float equality
            assert np.array_equal(
                a.recording.samples, b.recording.samples
            )

    def test_group_wave_identical(
        self, scenario, phone_device, emission_spec
    ):
        groups = [
            TrialGroup(
                scenario.at_distance(distance),
                phone_device,
                emission_spec,
                2,
            )
            for distance in (1.0, 2.0)
        ]

        def rates(jobs):
            with ExperimentEngine(jobs=jobs) as engine:
                return engine.success_rates(
                    groups, np.random.default_rng(23)
                )

        assert rates(1) == rates(4)


class TestTrialValidation:
    def test_zero_trials_rejected(
        self, scenario, phone_device, emission_spec
    ):
        group = TrialGroup(scenario, phone_device, emission_spec, 0)
        engine = ExperimentEngine(jobs=1)
        with pytest.raises(ExperimentError):
            engine.run_trial_groups([group], np.random.default_rng(0))

    def test_empty_groups_rejected(self):
        engine = ExperimentEngine(jobs=1)
        with pytest.raises(ExperimentError):
            engine.run_trial_groups([], np.random.default_rng(0))

    def test_bad_threshold_rejected(
        self, scenario, phone_device, emission_spec
    ):
        engine = ExperimentEngine(jobs=1)
        with pytest.raises(ExperimentError):
            engine.attack_range_m(
                scenario,
                phone_device,
                emission_spec,
                np.random.default_rng(0),
                success_threshold=1.5,
            )


class TestEmissionCache:
    def test_hit_and_miss_accounting(self):
        cache = EmissionCache()
        built = []

        def factory():
            built.append(1)
            return "value"

        assert cache.get_or_compute("k", factory) == "value"
        assert cache.get_or_compute("k", factory) == "value"
        assert len(built) == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_lru_eviction(self):
        """Past its byte budget the cache drops least recently used
        entries until the rest fit, and counts each eviction."""
        block = np.zeros(100)  # 800 bytes
        cache = EmissionCache(max_bytes=2000)
        cache.get_or_compute("a", lambda: block.copy())
        cache.get_or_compute("b", lambda: block.copy())
        cache.get_or_compute("a", lambda: block.copy())  # refresh a
        assert cache.nbytes == 1600
        cache.get_or_compute("c", lambda: block.copy())  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1
        assert cache.nbytes == 1600
        cache.get_or_compute("d", lambda: np.zeros(200))  # evicts a, c
        assert len(cache) == 1 and "d" in cache
        assert cache.stats.evictions == 3
        assert cache.nbytes == 1600

    def test_entry_larger_than_the_budget_is_held_alone(self):
        cache = EmissionCache(max_bytes=1000)
        small = cache.get_or_compute("small", lambda: np.zeros(10))
        built = []

        def big():
            built.append(1)
            return Signal(np.zeros(1000), 48000.0)

        first = cache.get_or_compute("big", big)
        assert first.samples.nbytes == 8000
        assert len(cache) == 1 and "big" in cache
        assert cache.nbytes == 8000
        assert cache.get_or_compute("big", big) is first
        assert built == [1]
        assert small.nbytes == 80  # the caller's reference survives

    def test_views_of_one_buffer_count_once(self):
        base = np.zeros(1000)
        value = {
            "whole": base,
            "halves": (base[:500], base[500:]),
            "signal": Signal(np.zeros(100), 48000.0),
        }
        assert array_nbytes(value) == 8000 + 800
        assert array_nbytes([base[::2], base.reshape(10, 100)]) == 8000
        cache = EmissionCache()
        cache.get_or_compute("views", lambda: value)
        assert cache.nbytes == 8800

    def test_sizes_the_cached_types(self, phone_device, emission_spec):
        """A voice, an emission, a trial context and a device are sized
        by the sample buffers they hold."""
        voice = cached_voice("alexa", 987654)
        assert array_nbytes(voice) == voice.samples.nbytes
        emission = emission_spec.emission()
        assert array_nbytes(emission) >= sum(
            source.pressure_at_1m.samples.nbytes
            for source in emission.sources
        )
        ctx = TrialContext(voice, Signal(np.zeros(10), 48000.0))
        assert array_nbytes(ctx) == voice.samples.nbytes + 80
        assert array_nbytes(phone_device) > 0  # enrolled templates

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ExperimentError, match="max_bytes"):
            EmissionCache(max_bytes=0)
        with pytest.raises(ExperimentError):
            EmissionCache(max_bytes=-1)

    def test_cached_voice_hits_process_cache(self):
        stats = process_cache().stats
        first = cached_voice("alexa", 987654)
        misses = stats.misses
        hits_before = stats.hits
        second = cached_voice("alexa", 987654)
        assert second is first
        assert stats.misses == misses
        assert stats.hits == hits_before + 1

    def test_stable_key_is_stable_and_discriminating(self):
        assert stable_key("a", 1) == stable_key("a", 1)
        assert stable_key("a", 1) != stable_key("a", 2)
        assert stable_key("ab") != stable_key("a", "b")


class TestEmissionSpec:
    def test_materialises_once_per_process(self, emission_spec):
        first = emission_spec.emission()
        second = emission_spec.emission()
        assert second is first
        assert len(emission_spec.sources()) == 1

    def test_key_depends_on_args(self):
        a = EmissionSpec(single_full, ("ok_google", 5))
        b = EmissionSpec(single_full, ("ok_google", 6))
        assert a.key != b.key
        assert a.key == EmissionSpec(single_full, ("ok_google", 5)).key


class TestAttackRangeSearch:
    def probe_counts(self, threshold, **kwargs):
        counts = {}

        def works(distance):
            counts[distance] = counts.get(distance, 0) + 1
            return distance <= threshold

        measured = attack_range_search(works, **kwargs)
        return measured, counts

    def test_no_distance_probed_twice(self):
        measured, counts = self.probe_counts(5.0)
        assert max(counts.values()) == 1
        assert 5.0 - 0.25 <= measured <= 5.0

    def test_never_works_returns_zero(self):
        measured, counts = self.probe_counts(0.0)
        assert measured == 0.0
        assert max(counts.values()) == 1

    def test_always_works_returns_max(self):
        measured, counts = self.probe_counts(100.0, max_distance_m=16.0)
        assert measured == 16.0
        assert max(counts.values()) == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"resolution_m": 0.0},
            {"resolution_m": -0.5},
            {"resolution_m": float("nan")},
            {"max_distance_m": 0.0},
        ],
    )
    def test_degenerate_geometry_rejected(self, kwargs):
        with pytest.raises(ExperimentError):
            attack_range_search(lambda distance: True, **kwargs)


class TestRecordingStripping:
    def test_success_rate_wave_strips_recordings(
        self, scenario, phone_device, emission_spec
    ):
        engine = ExperimentEngine(jobs=1)
        group = TrialGroup(scenario, phone_device, emission_spec, 2)
        stripped = engine.run_trial_groups(
            [group], np.random.default_rng(3), keep_recordings=False
        )[0]
        kept = engine.run_trial_groups(
            [group], np.random.default_rng(3)
        )[0]
        assert all(o.recording is None for o in stripped)
        assert all(o.recording is not None for o in kept)
        # Stripping must not perturb the trial outcomes themselves.
        assert [o.success for o in stripped] == [
            o.success for o in kept
        ]
        assert [o.distance for o in stripped] == [
            o.distance for o in kept
        ]


class TestTracedMap:
    """``map`` carries the trace across the process boundary."""

    @staticmethod
    def traced_map(jobs):
        tracer = Tracer()
        with activate(tracer), ExperimentEngine(jobs=jobs) as engine:
            with tracer.span("caller") as caller_id:
                results = engine.map(spanned_square, [1, 2, 3])
        return results, caller_id, tracer.spans

    def test_pool_spans_come_home_under_the_callers_span(self):
        results, caller_id, spans = self.traced_map(jobs=2)
        assert results == [1, 4, 9]
        assert len({span.span_id for span in spans}) == len(spans)
        tasks = [span for span in spans if span.name == "task"]
        assert sorted(span.attrs["x"] for span in tasks) == [1, 2, 3]
        assert {span.parent_id for span in tasks} == {caller_id}
        task_ids = {span.attrs["x"]: span.span_id for span in tasks}
        inner = [span for span in spans if span.name == "inner"]
        assert len(inner) == 3
        for span in inner:
            assert span.parent_id == task_ids[span.attrs["x"]]

    def test_pool_trace_has_the_inline_tree(self):
        pooled = self.traced_map(jobs=2)
        inline = self.traced_map(jobs=1)
        assert pooled[0] == inline[0]
        assert span_paths(pooled[2]) == span_paths(inline[2])
