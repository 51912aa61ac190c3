"""The three benchmark workloads, driven through the public API.

Each workload has three phases, run in one fresh interpreter by
``child.py``:

* ``setup(seed)`` builds everything the measured phase needs;
* ``measure(state)`` is the timed phase;
* ``check(state, outcome)`` compares the outputs with a reference
  that does not come from the run itself and returns the operation
  counts plus the workload's own figures.

A mismatch is counted as a failed operation; it never stops the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np

from layers import span

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
GOLDEN_DIR = Path("tests") / "golden"
SCENARIO = "free_field"

#: Seeds with recorded references; any other seed maps onto them.
SUITE_SEEDS = 6
FLEET_SEEDS = 6

FLEET_STREAMS = 240
FLEET_GAP_S = 6.0
GUARD_UTTERANCES = 200
GUARD_GAP_S = 0.5
CHUNK_S = 0.05


def load_references(path: Path = REFERENCES) -> dict:
    """The recorded references; a missing file checks as all-failed."""
    if not path.is_file():
        return {"suite": {}, "fleet_idle": {}}
    return json.loads(path.read_text())


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def quantile(values, q: float) -> float:
    if len(values) == 0:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=float), q))


# -- suite: all 16 experiments, quick mode --------------------------


class Suite:
    name = "suite"

    def setup(self, seed: int) -> dict:
        from repro.sim.engine import ExperimentEngine

        return {
            "seed": seed % SUITE_SEEDS,
            "engine": ExperimentEngine(jobs=1).__enter__(),
        }

    def measure(self, state: dict) -> dict:
        from repro.experiments import ALL_EXPERIMENTS

        tables, errors = {}, {}
        for exp, module in ALL_EXPERIMENTS.items():
            try:
                with span(f"experiments.{exp}"):
                    table = module.run(
                        quick=True,
                        seed=state["seed"],
                        engine=state["engine"],
                        scenario=SCENARIO,
                    )
                    tables[exp] = table.render() + "\n"
            except Exception as error:  # counted as a failed operation
                errors[exp] = f"{type(error).__name__}: {error}"
        state["engine"].close()
        return {"tables": tables, "errors": errors}

    def check(self, state: dict, outcome: dict, references: dict) -> dict:
        from repro.experiments import ALL_EXPERIMENTS

        seed = state["seed"]
        failed = []
        for exp in ALL_EXPERIMENTS:
            rendered = outcome["tables"].get(exp)
            if rendered is None:
                failed.append(exp)
            elif seed == 0:
                golden = GOLDEN_DIR / f"{exp}.txt"
                if not golden.is_file() or golden.read_text() != rendered:
                    failed.append(exp)
            elif references["suite"].get(str(seed), {}).get(exp) != sha(
                rendered
            ):
                failed.append(exp)
        return {
            "attempted": len(ALL_EXPERIMENTS),
            "failed": len(failed),
            "failures": failed,
            "errors": outcome["errors"],
            "figures": {},
        }

    def record(self, seed: int, outcome: dict) -> dict:
        return {exp: sha(text) for exp, text in outcome["tables"].items()}


# -- shared streaming set-up -----------------------------------------


def train(seed: int):
    from repro.experiments.s1_streaming import train_detector

    return train_detector(SCENARIO, seed, n_trials=2)


def utterance_key(utterance) -> tuple:
    """The deterministic fields of one fleet utterance digest."""
    return (
        utterance.start_sample,
        utterance.end_sample,
        utterance.emitted_at_sample,
        utterance.accepted,
        utterance.command,
        utterance.vetoed,
        utterance.executed_command,
        utterance.score,
        utterance.forced,
    )


def stream_digest(stream) -> str:
    body = (
        stream.index,
        stream.is_attack,
        stream.duration_s,
        tuple(utterance_key(u) for u in stream.utterances),
    )
    return sha(repr(body))[:16]


# -- fleet_idle: 240 mostly idle streams through the kernel -----------


class FleetIdle:
    name = "fleet_idle"

    def config(self, seed: int, vectorized: bool = True):
        from repro.stream.fleet import FleetConfig

        return FleetConfig(
            scenario=SCENARIO,
            n_streams=FLEET_STREAMS,
            utterances_per_stream=1,
            attack_fraction=0.5,
            chunk_s=CHUNK_S,
            gap_s=FLEET_GAP_S,
            seed=seed,
            workers=1,
            shards=1,
            vectorized=vectorized,
        )

    def setup(self, seed: int) -> dict:
        seed %= FLEET_SEEDS
        return {"seed": seed, "detector": train(seed),
                "config": self.config(seed)}

    def measure(self, state: dict) -> dict:
        from repro.stream.fleet import FleetSimulator

        report = FleetSimulator(state["detector"], state["config"]).run()
        return {"report": report}

    def check(self, state: dict, outcome: dict, references: dict) -> dict:
        report = outcome["report"]
        expected = references["fleet_idle"].get(str(state["seed"]), [])
        got = [stream_digest(stream) for stream in report.streams]
        failed = sum(a != b for a, b in zip(got, expected))
        failed += abs(len(expected) - len(got))
        latencies = report.latencies_s()
        return {
            "attempted": FLEET_STREAMS,
            "failed": min(failed, FLEET_STREAMS),
            "failures": [],
            "errors": {},
            "figures": {
                "audio_s": report.audio_seconds,
                "utterances": report.n_utterances,
                "stream_latency_p50_ms": 1e3 * quantile(latencies, 0.5),
                "stream_latency_p95_ms": 1e3 * quantile(latencies, 0.95),
            },
        }

    def record(self, seed: int, outcome: dict) -> list[str]:
        return [stream_digest(s) for s in outcome["report"].streams]


# -- guard_dense: one StreamingGuard, closed push loop ----------------


def outcomes_equal(online, offline) -> bool:
    """Bitwise equality of everything a guarded verdict carries."""
    a, b = online.recognition, offline.recognition
    if (
        online.executed_command != offline.executed_command
        or online.vetoed != offline.vetoed
        or a.accepted != b.accepted
        or a.command != b.command
        or a.distance != b.distance
        or a.distances != b.distances
        or (online.detection is None) != (offline.detection is None)
    ):
        return False
    if online.detection is None:
        return True
    c, d = online.detection, offline.detection
    return (
        c.is_attack == d.is_attack
        and c.score == d.score
        and np.array_equal(c.features, d.features)
    )


def count_in_two_processes(count, items) -> int:
    """``count(items[0::2]) + count(items[1::2])``, the second half in a
    forked process, so the offline oracle takes half the wall time on
    two cores. Runs after the measured phase; the fork is waited for."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the helper: count its half, report, exit
        status = 1
        try:
            os.close(read_end)
            os.write(write_end, str(count(items[1::2])).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        mine = count(items[0::2])
    finally:
        with os.fdopen(read_end) as pipe:
            theirs = pipe.read()
        _, status = os.waitpid(pid, 0)
    if status != 0 or not theirs:
        raise RuntimeError("the oracle helper process failed")
    return mine + int(theirs)


class GuardDense:
    name = "guard_dense"

    def setup(self, seed: int) -> dict:
        from repro.stream import fleet

        detector = train(seed)
        config = fleet.FleetConfig(
            scenario=SCENARIO,
            n_streams=1,
            utterances_per_stream=GUARD_UTTERANCES,
            chunk_s=CHUNK_S,
            gap_s=GUARD_GAP_S,
            seed=seed,
        )
        _, trial_seqs, stream_seqs = fleet.fleet_seed_plan(config)
        # Exactly half attacks, in a seeded order.
        mask = np.zeros(GUARD_UTTERANCES, dtype=bool)
        mask[: GUARD_UTTERANCES // 2] = True
        np.random.default_rng([seed, 1]).shuffle(mask)
        recordings, recognizer = fleet.synthesize_utterances(
            config.scenario,
            config.command,
            config.distance_m,
            [np.random.default_rng(child) for child in trial_seqs],
            mask,
            voice_seed=seed,
        )
        rate = fleet.check_fleet_rate(recordings)
        timeline = fleet.assemble_timeline(
            config, rate, recordings, np.random.default_rng(stream_seqs[0])
        )
        return {
            "detector": detector,
            "recognizer": recognizer,
            "rate": rate,
            "unit": recordings[0].unit,
            "timeline": timeline,
            "chunk": max(1, int(round(CHUNK_S * rate))),
        }

    def measure(self, state: dict) -> dict:
        from repro.stream.guard import StreamingGuard

        timeline, chunk = state["timeline"], state["chunk"]
        guard = StreamingGuard(
            state["recognizer"],
            state["detector"],
            state["rate"],
            unit=state["unit"],
            gated=True,
        )
        outcomes, verdict_s = [], []
        for start in range(0, timeline.shape[0], chunk):
            began = time.perf_counter()
            closed = guard.push(timeline[start : start + chunk])
            waited = time.perf_counter() - began
            if closed:
                verdict_s.append(waited)
                outcomes.extend(closed)
        began = time.perf_counter()
        closed = guard.flush()
        waited = time.perf_counter() - began
        if closed:
            verdict_s.append(waited)
            outcomes.extend(closed)
        return {"outcomes": outcomes, "verdict_s": verdict_s}

    def check(self, state: dict, outcome: dict, references: dict) -> dict:
        from repro.defense.guard import GuardedVoiceAssistant
        from repro.dsp.signals import Signal

        offline = GuardedVoiceAssistant(state["recognizer"], state["detector"])
        timeline, rate = state["timeline"], state["rate"]
        outcomes = outcome["outcomes"]

        def agrees(online) -> bool:
            segment = timeline[online.start_sample : online.end_sample]
            try:
                reference = offline.process(
                    Signal(segment, rate, unit=state["unit"])
                )
            except Exception:  # a verdict the oracle cannot reproduce
                return False
            return outcomes_equal(online.outcome, reference)

        def mismatches(part) -> int:
            return sum(not agrees(online) for online in part)

        failed = abs(GUARD_UTTERANCES - len(outcomes))
        failed += count_in_two_processes(mismatches, outcomes)
        latencies = [online.latency_s(rate) for online in outcomes]
        verdict_ms = [1e3 * s for s in outcome["verdict_s"]]
        return {
            "attempted": GUARD_UTTERANCES,
            "failed": min(failed, GUARD_UTTERANCES),
            "failures": [],
            "errors": {},
            "figures": {
                "audio_s": timeline.shape[0] / rate,
                "utterances": len(outcomes),
                "verdict_samples": len(verdict_ms),
                "verdict_p50_ms": quantile(verdict_ms, 0.5),
                "verdict_p95_ms": quantile(verdict_ms, 0.95),
                "stream_latency_p50_ms": 1e3 * quantile(latencies, 0.5),
                "stream_latency_p95_ms": 1e3 * quantile(latencies, 0.95),
            },
        }


WORKLOADS = {w.name: w for w in (Suite(), FleetIdle(), GuardDense())}
