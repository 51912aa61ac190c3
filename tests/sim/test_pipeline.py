"""Unit and property tests for the declarative trial pipeline.

Three groups of guarantees:

* **stage ordering** — :func:`build_pipeline` declares the canonical
  list (transmit -> motion-gain -> [interference] -> ambient ->
  microphone -> adc -> recognize), conditionally shaped by the
  scenario's data and the caller's options, and there is no second
  statement of that order anywhere;
* **invariant precompute** — the trial-invariant transmissions are
  computed once per context and cached, bounded;
* **chunking invariance** — for *arbitrary* stage lists (hypothesis:
  random compositions of deterministic and draw-consuming stages) the
  executor gives bitwise the same rows at every trial count and chunk
  size.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.experiments._emissions import single_full
from repro.hardware.microphone import Microphone
from repro.sim.cache import EmissionCache
from repro.sim.engine import EmissionSpec
from repro.sim.pipeline import (
    MAX_CHUNK_CELLS,
    Stage,
    TrialContext,
    TrialPipeline,
    build_pipeline,
    chunk_trials_for,
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


class TestInvariantPrecompute:
    def test_interference_bed_cached_and_bounded(
        self, phone_device, emission_sources
    ):
        scenario = get_scenario("tv_interference").build("ok_google", 2.0)
        pipeline = build_pipeline(scenario, phone_device)
        assert isinstance(pipeline.invariants, EmissionCache)
        assert pipeline.invariants.max_entries <= 8  # bounded
        ctx_a = pipeline.context(emission_sources)
        ctx_b = pipeline.context(emission_sources)
        # One transmission of the bed, shared by every later context.
        assert pipeline.invariants.stats.misses == 1
        assert pipeline.invariants.stats.hits == 1
        assert ctx_a.clean_interference is ctx_b.clean_interference

    def test_free_field_context_skips_the_bed(
        self, phone_device, emission_sources
    ):
        scenario = get_scenario("free_field").build("ok_google", 2.0)
        pipeline = build_pipeline(scenario, phone_device)
        ctx = pipeline.context(emission_sources)
        assert ctx.clean_interference is None
        assert len(pipeline.invariants) == 0

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
        chunk_trials=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_executor_is_chunking_invariant(
        self, spec, n_trials, chunk_trials, seed
    ):
        """Any chunk size gives the same rows, for any stage list."""
        pipeline = TrialPipeline(_build_random_stages(spec))
        ctx = TrialContext(clean_attack=None)
        runs = [
            pipeline.run_trials(
                ctx,
                np.random.default_rng(seed).spawn(n_trials),
                chunk_trials=chunk,
            )
            for chunk in (1, chunk_trials, None)
        ]
        for rows in runs:
            assert len(rows) == n_trials
            for row, reference in zip(rows, runs[0]):
                assert np.array_equal(row, reference)

    def test_run_trials_rejects_empty_generators(self):
        pipeline = TrialPipeline([_inject()])
        with pytest.raises(ExperimentError, match=">= 1"):
            pipeline.run_trials(TrialContext(None), [])

    def test_run_trials_rejects_bad_chunking(self):
        pipeline = TrialPipeline([_inject()])
        with pytest.raises(ExperimentError, match="chunk_trials"):
            pipeline.run_trials(
                TrialContext(None),
                np.random.default_rng(0).spawn(2),
                chunk_trials=0,
            )

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
                    kernel=lambda ctx, v, rngs: [1.0],  # one row short
                )
            ]
        )
        with pytest.raises(ExperimentError, match="rows"):
            pipeline.run_trials(
                TrialContext(None), np.random.default_rng(0).spawn(2)
            )


class TestChunkBudget:
    def test_default_chunk_is_the_cell_budget_over_the_longest_row(
        self, phone_device, emission_sources
    ):
        """The default chunk holds as many trials as the cell budget
        fits at the longest row it carries — the interference bed when
        it outlasts the attack wave — and at least one."""
        contexts = {}
        for name in ("free_field", "tv_interference"):
            scenario = get_scenario(name).build("ok_google", 3.0)
            pipeline = build_pipeline(scenario, phone_device)
            contexts[name] = pipeline.context(emission_sources)
        attack = contexts["free_field"].clean_attack.n_samples
        bed = contexts["tv_interference"].clean_interference.n_samples
        assert bed > attack
        assert chunk_trials_for(contexts["free_field"]) == (
            MAX_CHUNK_CELLS // attack
        )
        assert chunk_trials_for(contexts["tv_interference"]) == (
            MAX_CHUNK_CELLS // bed
        )
        assert chunk_trials_for(TrialContext(None)) == MAX_CHUNK_CELLS

    def test_working_set_is_bounded_by_the_cell_budget(
        self, phone_device, emission_sources
    ):
        """Sixteen trials over a 388k-sample interference bed run in
        budget-sized chunks, so the executor's peak traced allocation,
        beyond the recordings it returns, stays within a small
        multiple of the budget's bytes (a 16-trial stack of the same
        rows peaked near 30x)."""
        scenario = get_scenario("tv_interference").build("ok_google", 3.0)
        pipeline = build_pipeline(
            scenario, phone_device.microphone, recognize=False
        )
        ctx = pipeline.context(emission_sources)
        assert ctx.clean_interference.n_samples * 16 > 4 * MAX_CHUNK_CELLS
        rngs = np.random.default_rng(3).spawn(16)
        tracemalloc.start()
        try:
            rows = pipeline.run_trials(ctx, rngs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = sum(row.samples.nbytes for row in rows)
        assert len(rows) == 16
        assert peak - returned < 6 * 8 * MAX_CHUNK_CELLS


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
        captured_chunked: list[float] = []
        captured_single: list[float] = []
        outcomes = {}
        for label, capture, chunk in (
            ("chunked", captured_chunked, None),
            ("single", captured_single, 1),
        ):
            pipeline = build_pipeline(
                scenario,
                phone_device.microphone,
                recognize=False,
                gain_stage=level_stage(
                    55.0, 68.0, 60.0, capture=capture
                ),
            )
            outcomes[label] = pipeline.run_trials(
                pipeline.context(sources),
                np.random.default_rng(7).spawn(4),
                chunk_trials=chunk,
            )
        assert captured_chunked == captured_single
        assert len(captured_chunked) == 4
        assert all(55.0 <= spl <= 68.0 for spl in captured_chunked)
        for x, y in zip(outcomes["chunked"], outcomes["single"]):
            assert np.array_equal(x.samples, y.samples)
