"""Scenario execution: a trial-by-trial convenience over the pipeline.

The runner separates *emission* (expensive, deterministic per command
and attacker) from *trials* (cheap, stochastic): the attacker's
radiated waveforms are computed once and reused while ambient noise and
microphone self-noise are redrawn per trial — matching how the paper
repeats a fixed attack signal 50 times.

The runner does not state the trial chain itself: it builds the
declarative :class:`TrialPipeline` for its (scenario, device) pair and
runs each trial as a chunk of one through the pipeline's executor.
The per-trial draw order — motion gain, ambient noise, microphone
self-noise — therefore lives in exactly one place, and a caller's
single generator is consumed trial after trial, in that order.
"""

from __future__ import annotations

import numpy as np

from repro.acoustics.channel import PlacedSource
from repro.dsp.signals import Signal
from repro.sim.pipeline import TrialOutcome, build_pipeline
from repro.sim.scenario import Scenario, VictimDevice
from repro.speech.commands import synthesize_command
from repro.errors import ExperimentError

__all__ = ["ScenarioRunner", "TrialOutcome"]


class ScenarioRunner:
    """Runs trials of a scenario against a victim device.

    Parameters
    ----------
    scenario:
        The physical setup.
    device:
        The victim; its recogniser must have the scenario's command
        enrolled, otherwise success is impossible by construction and
        the runner refuses to proceed (enforced by
        :func:`repro.sim.pipeline.build_pipeline`).
    """

    def __init__(self, scenario: Scenario, device: VictimDevice) -> None:
        self.scenario = scenario
        self.device = device
        self.pipeline = build_pipeline(scenario, device)

    def synthesize_voice(self, rng: np.random.Generator) -> Signal:
        """The target command waveform the attacker starts from."""
        return synthesize_command(self.scenario.command, rng)

    def run_trial(
        self,
        sources: list[PlacedSource],
        rng: np.random.Generator,
    ) -> TrialOutcome:
        """One trial: a chunk of one through the shared stage list.

        The trial-invariant transmissions (attack wave and, if the
        scene has competing audio, the interference bed) come from the
        pipeline's precompute step — the bed is cached per sample rate
        in a bounded :class:`~repro.sim.cache.EmissionCache` rather
        than re-propagated every trial.
        """
        ctx = self.pipeline.context(sources)
        return self.pipeline.run_trials(ctx, [rng])[0]

    def run_trials(
        self,
        sources: list[PlacedSource],
        n_trials: int,
        rng: np.random.Generator,
    ) -> list[TrialOutcome]:
        """Repeated trials with fresh noise draws.

        The trial-invariant precompute runs once for the whole
        repetition — the same amortisation the engine path gets — so
        only the per-trial stages repeat.
        """
        if n_trials < 1:
            raise ExperimentError(
                f"n_trials must be >= 1, got {n_trials}"
            )
        ctx = self.pipeline.context(sources)
        return [
            self.pipeline.run_trials(ctx, [rng])[0]
            for _ in range(n_trials)
        ]
