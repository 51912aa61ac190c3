"""Unit and property tests for the declarative trial pipeline.

Three groups of guarantees:

* **stage ordering** — :func:`build_pipeline` declares the canonical
  list (transmit -> motion-gain -> [interference] -> ambient ->
  microphone -> adc -> recognize), conditionally shaped by the
  scenario's data and the caller's options, and there is no second
  statement of that order anywhere;
* **invariant precompute** — the trial-invariant transmissions are
  computed once per context and kept in the byte-bounded process
  cache;
* **chunking invariance** — for *arbitrary* stage lists (hypothesis:
  random compositions of deterministic and draw-consuming stages) the
  executor gives bitwise the same rows at every trial count however
  the generators are split over calls, and its working set is one
  trial's.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import run_in_calls
from repro.errors import ExperimentError
from repro.experiments._emissions import array_split, single_full
from repro.hardware.microphone import Microphone
from repro.sim import cache as cache_module
from repro.sim.cache import (
    CACHE_BUDGET_BYTES,
    EmissionCache,
    array_nbytes,
    stable_key,
)
from repro.sim.engine import EmissionSpec
from repro.sim.pipeline import (
    Stage,
    TrialContext,
    TrialPipeline,
    build_pipeline,
    level_stage,
)
from repro.sim.scenario import VictimDevice
from repro.sim.spec import get_scenario


@pytest.fixture(scope="module")
def phone_device():
    return VictimDevice.phone(commands=("ok_google",), seed=91)


@pytest.fixture(scope="module")
def emission_sources():
    return list(EmissionSpec(single_full, ("ok_google", 5)).sources())


class TestStageOrdering:
    def test_free_field_stage_list(self, phone_device):
        scenario = get_scenario("free_field").build("ok_google", 2.0)
        pipeline = build_pipeline(scenario, phone_device)
        assert pipeline.stage_names() == (
            "transmit",
            "motion-gain",
            "ambient",
            "microphone",
            "adc",
            "recognize",
        )

    def test_interference_scene_inserts_interference_stage(
        self, phone_device
    ):
        scenario = get_scenario("tv_interference").build("ok_google", 2.0)
        pipeline = build_pipeline(scenario, phone_device)
        assert pipeline.stage_names() == (
            "transmit",
            "motion-gain",
            "interference",
            "ambient",
            "microphone",
            "adc",
            "recognize",
        )

    def test_recording_pipeline_ends_at_the_adc(self, phone_device):
        scenario = get_scenario("living_room").build("ok_google", 2.0)
        pipeline = build_pipeline(
            scenario, phone_device.microphone, recognize=False
        )
        assert pipeline.stage_names()[-1] == "adc"
        assert "recognize" not in pipeline.stage_names()

    def test_gain_stage_inserted_after_transmit(self, phone_device):
        scenario = get_scenario("free_field").build("ok_google", 2.0)
        pipeline = build_pipeline(
            scenario,
            phone_device.microphone,
            recognize=False,
            gain_stage=level_stage(55.0, 68.0, 60.0),
        )
        names = pipeline.stage_names()
        assert names.index("talker-level") == names.index("transmit") + 1

    def test_bare_microphone_cannot_recognize(self, phone_device):
        scenario = get_scenario("free_field").build("ok_google", 2.0)
        with pytest.raises(ExperimentError, match="cannot recognise"):
            build_pipeline(scenario, phone_device.microphone)

    def test_subclassed_microphone_collapses_to_record_stage(
        self, phone_device
    ):
        class _CustomMicrophone(Microphone):
            pass

        scenario = get_scenario("free_field").build("ok_google", 2.0)
        device = VictimDevice(
            name="custom",
            microphone=_CustomMicrophone(phone_device.microphone.config),
            recognizer=phone_device.recognizer,
        )
        names = build_pipeline(scenario, device).stage_names()
        assert "record" in names
        assert "microphone" not in names
        assert "adc" not in names

    def test_duplicate_stage_names_rejected(self):
        stage = Stage(name="x", kernel=lambda ctx, v, rngs: v)
        with pytest.raises(ExperimentError, match="unique"):
            TrialPipeline([stage, stage])

    def test_empty_stage_list_rejected(self):
        with pytest.raises(ExperimentError, match="at least one"):
            TrialPipeline([])


@pytest.fixture()
def fresh_process_cache(monkeypatch):
    """A fresh, empty process cache at the real byte budget, so
    accounting is exact whatever earlier tests cached."""
    cache = EmissionCache()
    monkeypatch.setattr(cache_module, "_PROCESS_CACHE", cache)
    return cache


class TestInvariantPrecompute:
    def test_interference_bed_cached_and_bounded(
        self, phone_device, emission_sources, fresh_process_cache
    ):
        scenario = get_scenario("tv_interference").build("ok_google", 2.0)
        pipeline = build_pipeline(scenario, phone_device)
        ctx_a = pipeline.context(emission_sources)
        bed = ctx_a.clean_interference
        bed_key = stable_key(
            "interference-bed",
            scenario.interference,
            scenario.victim_position,
            scenario.room,
            scenario.conditions,
            bed.sample_rate,
        )
        # One miss on the bed and one on the waveform it transmits.
        assert bed_key in fresh_process_cache
        assert fresh_process_cache.stats.misses == 2
        assert fresh_process_cache.stats.hits == 0
        ctx_b = pipeline.context(emission_sources)
        # One transmission of the bed, shared by every later context.
        assert fresh_process_cache.stats.misses == 2
        assert fresh_process_cache.stats.hits == 1
        assert ctx_a.clean_interference is ctx_b.clean_interference
        assert fresh_process_cache.nbytes <= CACHE_BUDGET_BYTES

    def test_free_field_context_skips_the_bed(
        self, phone_device, emission_sources, fresh_process_cache
    ):
        scenario = get_scenario("free_field").build("ok_google", 2.0)
        pipeline = build_pipeline(scenario, phone_device)
        ctx = pipeline.context(emission_sources)
        assert ctx.clean_interference is None
        assert len(fresh_process_cache) == 0

    def test_process_cache_holds_at_most_its_budget(
        self, fresh_process_cache
    ):
        """Array emissions built through their recipes evict least
        recently used entries: past every build the cache holds at
        most its byte budget, or only the newest entry."""
        cache = fresh_process_cache
        built = []
        for seed in range(5):
            spec = EmissionSpec(array_split, ("ok_google", seed, 16))
            emission = spec.emission()
            assert spec.key in cache
            assert cache.nbytes <= CACHE_BUDGET_BYTES or len(cache) == 1
            built.append(array_nbytes(emission))
        assert sum(built) > CACHE_BUDGET_BYTES
        assert cache.stats.evictions > 0
        assert EmissionSpec(array_split, ("ok_google", 0, 16)).key not in cache

    def test_largest_array_emission_fits_the_budget(
        self, fresh_process_cache
    ):
        """T2's 32-element emission caches its radiated sources only,
        so it fits the byte budget rather than overflowing it alone."""
        spec = EmissionSpec(array_split, ("ok_google", 0, 32))
        emission = spec.emission()
        assert spec.key in fresh_process_cache
        assert array_nbytes(emission) < CACHE_BUDGET_BYTES
        assert fresh_process_cache.nbytes <= CACHE_BUDGET_BYTES

    def test_empty_sources_rejected(self, phone_device):
        scenario = get_scenario("free_field").build("ok_google", 2.0)
        pipeline = build_pipeline(scenario, phone_device)
        with pytest.raises(ExperimentError, match="at least one source"):
            pipeline.context([])

    def test_synthetic_pipeline_has_no_context(self):
        pipeline = TrialPipeline(
            [Stage(name="x", kernel=lambda ctx, v, rngs: 0.0)]
        )
        with pytest.raises(ExperimentError, match="context builder"):
            pipeline.context([object()])


# ----------------------------------------------------------------------
# Chunking invariance on randomized stage lists
# ----------------------------------------------------------------------

_BASE = np.linspace(-1.0, 1.0, 64)


def _inject() -> Stage:
    return Stage(
        name="inject",
        kernel=lambda ctx, v, rngs: np.tile(_BASE, (len(rngs), 1)),
    )


def _scale(index: int, factor: float) -> Stage:
    return Stage(
        name=f"scale-{index}", kernel=lambda ctx, v, rngs: v * factor
    )


def _offset(index: int, amount: float) -> Stage:
    return Stage(
        name=f"offset-{index}", kernel=lambda ctx, v, rngs: v + amount
    )


def _noise(index: int) -> Stage:
    """A draw-consuming stage: one normal vector per trial generator."""

    def kernel(ctx, v, rngs):
        out = np.empty_like(v)
        for row, rng in enumerate(rngs):
            out[row] = v[row] + rng.normal(0.0, 1.0, v.shape[-1])
        return out

    return Stage(name=f"noise-{index}", kernel=kernel)


def _build_random_stages(spec: list[tuple[str, float]]) -> list[Stage]:
    stages = [_inject()]
    for index, (kind, parameter) in enumerate(spec):
        if kind == "scale":
            stages.append(_scale(index, parameter))
        elif kind == "offset":
            stages.append(_offset(index, parameter))
        else:
            stages.append(_noise(index))
    return stages


class TestExecutorEquivalence:
    @given(
        spec=st.lists(
            st.tuples(
                st.sampled_from(["scale", "offset", "noise"]),
                st.floats(
                    min_value=-2.0,
                    max_value=2.0,
                    allow_nan=False,
                    allow_infinity=False,
                ),
            ),
            min_size=0,
            max_size=6,
        ),
        n_trials=st.integers(min_value=1, max_value=10),
        cuts=st.sets(st.integers(min_value=1, max_value=9), max_size=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_executor_is_chunking_invariant(
        self, spec, n_trials, cuts, seed
    ):
        """Any split of the generators over calls on one pipeline
        object gives the same rows as one call, for any stage list."""
        pipeline = TrialPipeline(_build_random_stages(spec))
        ctx = TrialContext(clean_attack=None)
        whole = pipeline.run_trials(
            ctx, np.random.default_rng(seed).spawn(n_trials)
        )
        split = run_in_calls(
            pipeline,
            ctx,
            np.random.default_rng(seed).spawn(n_trials),
            sorted(cut for cut in cuts if cut < n_trials),
        )
        assert len(whole) == len(split) == n_trials
        for row, reference in zip(split, whole):
            assert np.array_equal(row, reference)

    def test_run_trials_rejects_empty_generators(self):
        pipeline = TrialPipeline([_inject()])
        with pytest.raises(ExperimentError, match=">= 1"):
            pipeline.run_trials(TrialContext(None), [])

    def test_final_stage_must_produce_rows(self):
        pipeline = TrialPipeline(
            [
                Stage(
                    name="broken",
                    kernel=lambda ctx, v, rngs: 1.0,  # not per-trial
                )
            ]
        )
        with pytest.raises(ExperimentError, match="final stage"):
            pipeline.run_trials(
                TrialContext(None), np.random.default_rng(0).spawn(2)
            )

    def test_row_count_mismatch_rejected(self):
        pipeline = TrialPipeline(
            [
                Stage(
                    name="short",
                    kernel=lambda ctx, v, rngs: [],  # no row per trial
                )
            ]
        )
        with pytest.raises(ExperimentError, match="rows"):
            pipeline.run_trials(
                TrialContext(None), np.random.default_rng(0).spawn(2)
            )


class TestTrialWorkingSet:
    def test_working_set_is_bounded_by_one_trial(
        self, phone_device, emission_sources
    ):
        """Sixteen trials over a 388k-sample interference bed run one
        row at a time, so the executor's peak traced allocation,
        beyond the recordings it returns, stays within a small
        multiple of one row's bytes whatever the trial count (one
        trial peaks near 8 rows; a 16-trial stack of the same rows
        peaked near 80)."""
        scenario = get_scenario("tv_interference").build("ok_google", 3.0)
        pipeline = build_pipeline(
            scenario, phone_device.microphone, recognize=False
        )
        ctx = pipeline.context(emission_sources)
        row_bytes = 8 * max(
            ctx.clean_attack.n_samples, ctx.clean_interference.n_samples
        )
        rngs = np.random.default_rng(3).spawn(16)
        tracemalloc.start()
        try:
            rows = pipeline.run_trials(ctx, rngs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = sum(row.samples.nbytes for row in rows)
        assert len(rows) == 16
        assert peak - returned < 10 * row_bytes


class TestLevelStage:
    def test_inverted_range_rejected(self):
        with pytest.raises(ExperimentError, match="inverted"):
            level_stage(70.0, 60.0, 60.0)

    def test_capture_receives_levels_in_trial_order(self, phone_device):
        from repro.attack.baselines import AudiblePlaybackAttacker
        from repro.sim.spec import RIG_POSITION
        from repro.speech.commands import synthesize_command

        voice = synthesize_command(
            "ok_google", np.random.default_rng(0)
        )
        sources = list(
            AudiblePlaybackAttacker(RIG_POSITION).emit(voice).sources
        )
        scenario = get_scenario("free_field").build("ok_google", 1.0)
        captured: list[float] = []
        pipeline = build_pipeline(
            scenario,
            phone_device.microphone,
            recognize=False,
            gain_stage=level_stage(55.0, 68.0, 60.0, capture=captured),
        )
        ctx = pipeline.context(sources)
        whole = pipeline.run_trials(
            ctx, np.random.default_rng(7).spawn(4)
        )
        split = run_in_calls(
            pipeline, ctx, np.random.default_rng(7).spawn(4)
        )
        # The talker level is each trial's first draw.
        expected = [
            float(rng.uniform(55.0, 68.0))
            for rng in np.random.default_rng(7).spawn(4)
        ]
        assert captured == expected + expected
        assert all(55.0 <= spl <= 68.0 for spl in captured)
        for x, y in zip(whole, split):
            assert np.array_equal(x.samples, y.samples)
