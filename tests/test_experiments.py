"""Structural tests for every reproduction experiment.

Each experiment runs once in quick mode (via the session-scoped
``experiment_tables`` fixture shared with the golden-trace and
batch-equivalence suites) and its table is checked for the *shape*
properties the paper reports — these are the assertions that make the
reproduction claims executable.
"""

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.__main__ import build_parser, main
from repro.experiments.f9_adaptive_attacker import depth_sweep
from repro.sim import engine


@pytest.fixture(scope="module")
def tables(experiment_tables):
    """The session-wide quick-mode tables (seed 0)."""
    return experiment_tables


class TestHarness:
    def test_registry_complete(self):
        expected = {
            "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9",
            "S1", "T1", "T2", "T3", "A1", "A2", "A3",
        }
        assert set(ALL_EXPERIMENTS) == expected

    def test_every_table_renders(self, tables):
        for name, table in tables.items():
            text = table.render()
            assert name in text.split(":")[0]
            assert len(table.rows) >= 1


class TestF1:
    def test_attack_waveform_is_ultrasonic(self, tables):
        table = tables["F1"]
        attack_row = [r for r in table.rows if "attack" in r[0]][0]
        # voice band at least 60 dB below the ultrasonic content.
        assert attack_row[1] < attack_row[3] - 60

    def test_recording_recovers_voice_band(self, tables):
        table = tables["F1"]
        recording_row = [r for r in table.rows if "recording" in r[0]][0]
        assert recording_row[1] > -6.0  # voice band dominates


class TestF2:
    def test_leakage_monotone_in_power(self, tables):
        margins = tables["F2"].column("margin dB")
        assert margins == sorted(margins)

    def test_full_power_is_audible(self, tables):
        assert tables["F2"].column("audible")[-1] is True


class TestF3:
    def test_full_drive_beats_capped(self, tables):
        table = tables["F3"]
        full = table.column("full drive")
        capped = table.column("inaudible drive")
        assert sum(full) >= sum(capped)

    def test_capped_fails_beyond_arms_length(self, tables):
        table = tables["F3"]
        far_rows = [
            row for row in table.rows if row[0] >= 2.0
        ]
        assert all(row[2] <= 0.5 for row in far_rows)


class TestF4:
    def test_array_extends_range_over_capped_single(self, tables):
        table = tables["F4"]
        single = [r for r in table.rows if "single" in r[1]][0][2]
        arrays = [r[2] for r in table.rows if r[1] == "split array"]
        assert max(arrays) > single


class TestF5:
    def test_narrower_chunks_leak_less(self, tables):
        margins = tables["F5"].column("worst margin dB")
        assert margins[-1] < margins[0]

    def test_no_chunk_audible_at_moderate_splits(self, tables):
        table = tables["F5"]
        for row in table.rows:
            if row[0] >= 8:
                assert row[3] == 0


class TestF7:
    def test_trace_power_separates_classes(self, tables):
        table = tables["F7"]
        for row in table.rows:
            if row[1] == "trace_power_db":
                genuine, attacked, d_prime = row[2], row[3], row[4]
                assert attacked > genuine + 5.0
                assert d_prime > 1.0


class TestF8:
    def test_auc_near_paper_claim(self, tables):
        for auc in tables["F8"].column("AUC"):
            assert auc > 0.9


class TestF9:
    def test_detection_survives_depth_reduction(self, tables):
        table = tables["F9"]
        assert table.column("detection rate")[0] == 1.0

    def test_success_collapses_before_detection(self):
        """Below the quick table's depths the delivered command
        starves while the trace still gives the attack away: at depth
        0.01 no trial succeeds and the detector flags every one."""
        ((_, success, detection, _),) = depth_sweep((0.01,))
        assert success == 0.0
        assert detection == 1.0


class TestT1:
    def test_range_grows_with_power(self, tables):
        phone = tables["T1"].column("phone range m")
        assert phone[-1] >= phone[0]

    def test_phone_outranges_echo(self, tables):
        table = tables["T1"]
        phone = table.column("phone range m")
        echo = table.column("echo range m")
        assert sum(phone) >= sum(echo)


class TestT2:
    def test_array_attack_succeeds_at_paper_positions(self, tables):
        table = tables["T2"]
        array_rows = [r for r in table.rows if r[3] == "split array"]
        assert all(row[4] >= 0.6 for row in array_rows)


class TestT3:
    def test_random_split_accuracy_high(self, tables):
        table = tables["T3"]
        random_rows = [r for r in table.rows if r[0] == "random"]
        assert all(row[2] >= 0.85 for row in random_rows)


class TestA1:
    def test_carrier_separation_removes_leakage(self, tables):
        table = tables["A1"]
        for row in table.rows:
            separate, mixed = row[1], row[2]
            assert separate < mixed - 10.0


class TestA2:
    def test_waterfill_at_least_uniform(self, tables):
        table = tables["A2"]
        by_strategy = {}
        for row in table.rows:
            by_strategy.setdefault(row[0], {})[row[1]] = row[2]
        for ranges in by_strategy.values():
            assert ranges["waterfill"] >= ranges["uniform"] - 0.5


class TestA3:
    def test_power_features_dominant(self, tables):
        table = tables["A3"]
        auc = {row[0]: row[1] for row in table.rows}
        assert auc["power only"] >= auc["correlation only"]
        assert auc["all features"] >= 0.9


class TestS1:
    def test_every_parity_probe_is_bitwise(self, tables):
        table = tables["S1"]
        parity_rows = [
            row for row in table.rows if row[0] in ("attack", "genuine")
        ]
        assert len(parity_rows) >= 6
        assert all(row[4] == "yes" for row in parity_rows)

    def test_parity_verdicts_separate_classes(self, tables):
        table = tables["S1"]
        for row in table.rows:
            if row[0] == "attack":
                assert row[2] == "veto"

    def test_fleet_latency_is_bounded(self, tables):
        table = tables["S1"]
        fleet_rows = [
            row for row in table.rows if str(row[0]).startswith("fleet")
        ]
        assert fleet_rows
        # Stream-time detection latency: positive, under a second.
        assert all(0.0 < row[5] < 1000.0 for row in fleet_rows)

    def test_serial_engine_runs_shards_inline(
        self, tables, capsys, monkeypatch
    ):
        """S1 runs its shards on the CLI's engine: ``--jobs 1
        --shards 2`` starts no process pool and prints the one-shard
        table."""

        def no_pool(*args, **kwargs):
            raise AssertionError("a serial run built a process pool")

        monkeypatch.setattr(engine, "ProcessPoolExecutor", no_pool)
        assert main(["S1", "--jobs", "1", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert out == f"=== S1\n{tables['S1'].render()}\n\n"


class TestCli:
    def test_single_experiment(self, capsys):
        assert main(["F1"]) == 0
        out = capsys.readouterr().out
        assert "F1" in out

    def test_unknown_experiment(self, capsys):
        assert main(["ZZ"]) == 2

    def test_parser_flags(self):
        args = build_parser().parse_args(["F2", "--full", "--seed", "7"])
        assert args.full and args.seed == 7
        assert args.jobs is None  # default: engine picks cpu count

    def test_parser_jobs_flag(self):
        args = build_parser().parse_args(["T2", "--jobs", "4"])
        assert args.jobs == 4

    def test_parser_no_batch_flag(self, capsys):
        # The trial pipeline has one kernel per stage; the old
        # scalar-path switch is gone and argparse rejects it.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["T2", "--no-batch"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_invalid_jobs_is_a_clean_cli_error(self, capsys):
        assert main(["F1", "--jobs", "0"]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_parser_scenario_flag(self):
        args = build_parser().parse_args(
            ["T2", "--scenario", "living_room"]
        )
        assert args.scenario == "living_room"
        assert build_parser().parse_args(["T2"]).scenario == "free_field"

    def test_unknown_scenario_is_a_clean_cli_error(self, capsys):
        # No longer a parser-level choices= rejection: the name is
        # resolved up front in main() so random:<seed> fuzz names
        # stay valid, and typos still fail before any experiment.
        assert main(["T2", "--scenario", "underwater"]) == 2
        err = capsys.readouterr().err
        assert "underwater" in err
        assert "random:<seed>" in err

    def test_every_experiment_is_scenario_capable(self):
        """The skip-list era is over: all 15 accept ``scenario``."""
        import inspect

        for name, module in ALL_EXPERIMENTS.items():
            parameters = inspect.signature(module.run).parameters
            assert "scenario" in parameters, name

    def test_engine_is_the_one_parallelism_handle(self):
        """Every experiment takes an ``engine`` and no ``jobs``: the
        caller sizes the one engine."""
        import inspect

        for name, module in ALL_EXPERIMENTS.items():
            parameters = inspect.signature(module.run).parameters
            assert parameters["engine"].default is None, name
            assert "jobs" not in parameters, name

    def test_scenario_on_every_experiment_cli(self, capsys):
        # F1 is the cheapest full-chain experiment; the same kwarg
        # plumbing serves all 15 (pinned by the signature test above).
        assert main(["F1", "--scenario", "living_room"]) == 0
        out = capsys.readouterr().out
        assert "scenario: living_room" in out

    def test_trace_flag(self, tmp_path, capsys):
        """--trace writes the span trace and leaves stdout
        byte-identical to the untraced run (zero digest drift,
        checked here on the cheapest engine-backed experiment and by
        CI's observability job on S1); the experiment span carries
        the process cache's figures."""
        from repro.obs.trace import read_trace

        assert main(["F3", "--jobs", "1"]) == 0
        untraced = capsys.readouterr().out
        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "F3", "--jobs", "1", "--trace", str(trace_path),
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out == untraced
        assert "trace:" in captured.err
        spans = read_trace(trace_path)
        experiment = [s for s in spans if s.name == "experiment"]
        assert experiment[0].attrs["experiment"] == "F3"
        # The process cache's figures over the experiment, and what it
        # holds at the end.
        attrs = experiment[0].attrs
        for figure in (
            "cache_hits", "cache_misses", "cache_evictions", "cache_bytes"
        ):
            assert isinstance(attrs[figure], int), figure
            assert attrs[figure] >= 0, figure
        assert attrs["cache_hits"] + attrs["cache_misses"] > 0
        # Engine fan-out is in the trace: trial-batch spans adopted
        # under the experiment.
        assert any(s.name == "trial-batch" for s in spans)

    def test_unwritable_trace_path_fails_before_any_work(
        self, tmp_path, capsys
    ):
        trace_path = tmp_path / "missing" / "t.jsonl"
        assert main(["F1", "--trace", str(trace_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write ")
        assert len(captured.err.splitlines()) == 1

    def test_removed_metrics_flag_is_a_usage_error(self, tmp_path, capsys):
        """The metrics registry and its output flag are gone: the
        trace is the one telemetry channel."""
        flag = "--metrics" + "-out"
        with pytest.raises(SystemExit) as excinfo:
            main(["F1", flag, str(tmp_path / "m.json")])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_list_scenarios_flag(self, capsys):
        from repro.sim.spec import scenario_names

        assert main(["--list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out
        assert "anechoic baseline" in out  # one-line descriptions

    def test_missing_experiment_is_a_clean_error(self, capsys):
        assert main([]) == 2
        assert "experiment ID" in capsys.readouterr().err
