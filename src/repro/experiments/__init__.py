"""Reproduction experiments, one module per paper artefact.

Every module exposes ``run(quick=..., seed=..., engine=...,
scenario=...) -> ResultTable``. ``quick=True`` shrinks trial counts
and sweep grids so the full suite finishes in minutes. ``engine`` is
the one parallelism handle: trials fan out over that
:class:`repro.sim.engine.ExperimentEngine`'s worker pool, and
``engine=None`` means a serial ``ExperimentEngine(jobs=1)``, which
starts no pool. Results are identical for every ``jobs`` value. The
benchmark harness in ``benchmarks/`` wraps these functions, and
EXPERIMENTS.md records their output against the paper's reported
numbers.

Experiment IDs (see EXPERIMENTS.md):

====  =====================================================
F1    Microphone nonlinearity demodulation demo
F2    Speaker leakage vs drive power (single speaker)
F3    Single-speaker attack success vs distance
F4    Long-range: attack range vs number of speakers
F5    Per-speaker audibility across array sizes
F6    Per-device accuracy vs distance (phone vs echo)
F7    Defense trace feature separation
F8    Defense ROC / accuracy
F9    Adaptive attacker vs defense
S1    Streaming guard: online parity, latency, device fleet
T1    Attack range vs speaker input power
T2    End-to-end success rates (50 trials)
T3    Defense accuracy across generalisation splits
A1    Ablation: carrier separation
A2    Ablation: drive allocation strategy
A3    Ablation: defense feature subsets
====  =====================================================
"""

from repro.experiments import (  # noqa: F401
    a1_carrier_separation,
    a2_power_allocation,
    a3_defense_features,
    f1_nonlinearity_demo,
    f2_speaker_leakage,
    f3_single_speaker_range,
    f4_long_range,
    f5_split_audibility,
    f6_device_accuracy,
    f7_defense_traces,
    f8_defense_roc,
    f9_adaptive_attacker,
    s1_streaming,
    t1_range_vs_power,
    t2_success_rates,
    t3_defense_accuracy,
)

ALL_EXPERIMENTS = {
    "F1": f1_nonlinearity_demo,
    "F2": f2_speaker_leakage,
    "F3": f3_single_speaker_range,
    "F4": f4_long_range,
    "F5": f5_split_audibility,
    "F6": f6_device_accuracy,
    "F7": f7_defense_traces,
    "F8": f8_defense_roc,
    "F9": f9_adaptive_attacker,
    "S1": s1_streaming,
    "T1": t1_range_vs_power,
    "T2": t2_success_rates,
    "T3": t3_defense_accuracy,
    "A1": a1_carrier_separation,
    "A2": a2_power_allocation,
    "A3": a3_defense_features,
}
