"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


class TestCli:
    def test_apps_lists_table1(self):
        code, out = run_cli("apps")
        assert code == 0
        for name in ("xsbench", "kmeans", "needle"):
            assert name in out

    def test_run_golden(self):
        code, out = run_cli("run", "pathfinder")
        assert code == 0
        assert "dynamic instructions" in out

    def test_ir_prints_module(self):
        code, out = run_cli("ir", "knn")
        assert code == 0
        assert out.startswith("module knn")
        assert "func @main" in out

    def test_inject_reports_ci(self):
        code, out = run_cli("inject", "pathfinder", "--faults", "40")
        assert code == 0
        assert "SDC probability" in out and "CI" in out

    def test_inject_checkpointed_matches_cold(self):
        _, cold = run_cli(
            "inject", "pathfinder", "--faults", "40",
            "--checkpoint-interval", "0",
        )
        _, auto = run_cli("inject", "pathfinder", "--faults", "40")
        _, fixed = run_cli(
            "inject", "pathfinder", "--faults", "40",
            "--checkpoint-interval", "512",
        )
        assert cold == auto == fixed

    def test_bad_checkpoint_interval_rejected(self):
        for bad in ("soon", "-8"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["inject", "pathfinder", "--checkpoint-interval", bad]
                )

    def test_checkpoint_interval_default_and_cold(self):
        parse = build_parser().parse_args
        assert parse(["inject", "pathfinder"]).checkpoint_interval == "auto"
        cold = parse(["inject", "pathfinder", "--checkpoint-interval", "0"])
        assert cold.checkpoint_interval == 0

    def test_protect_sid(self):
        code, out = run_cli(
            "protect", "pathfinder", "--method", "sid",
            "--level", "0.4", "--trials", "3",
        )
        assert code == 0
        assert "classic SID" in out and "expected SDC coverage" in out

    def test_protect_minpsid_with_eval(self):
        code, out = run_cli(
            "protect", "pathfinder", "--method", "minpsid",
            "--trials", "2", "--search-inputs", "1",
            "--eval-inputs", "2", "--faults", "30",
        )
        assert code == 0
        assert "MINPSID" in out
        assert "incubative found" in out
        assert "measured coverage" in out

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "doom"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestSupervisorFlags:
    def test_flags_parse_on_campaign_commands(self):
        for cmd in (["inject", "pathfinder"], ["protect", "pathfinder"]):
            args = build_parser().parse_args(
                cmd + ["--max-retries", "5", "--task-timeout", "1.5"]
            )
            assert args.max_retries == 5
            assert args.task_timeout == 1.5

    def test_chaos_campaign_matches_serial(self, monkeypatch):
        _, serial = run_cli("inject", "pathfinder", "--faults", "48",
                            "--seed", "31")
        monkeypatch.setenv("REPRO_CHAOS", "crash@1")
        code, chaos = run_cli(
            "inject", "pathfinder", "--faults", "48", "--seed", "31",
            "--workers", "2", "--max-retries", "3",
        )
        assert code == 0
        assert chaos == serial

    def test_harness_failure_exits_3_with_summary(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CHAOS", "exc@0#*")
        code, _ = run_cli(
            "inject", "pathfinder", "--faults", "48", "--seed", "31",
            "--workers", "2", "--max-retries", "1",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "harness failure" in err
        assert "WorkerError" in err
        assert "Traceback" not in err


class TestFleetCli:
    ARGS = ("--hosts", "24", "--defective", "2", "--rounds", "8",
            "--seed", "3", "--apps", "kmeans,fft", "--workers", "0")

    def test_fleet_run_renders_summary(self, tmp_path):
        trace = tmp_path / "fleet.jsonl"
        code, out = run_cli("fleet", "run", *self.ARGS,
                            "--trace", str(trace))
        assert code == 0
        assert "Fleet summary" in out
        assert "Defective hosts" in out
        # The trace feeds the obs-side report.
        code, view = run_cli("obs", "fleet", str(trace))
        assert code == 0
        assert "escape rate" in view and "fleet.jobs" in view

    def test_fleet_run_policy_flag(self):
        code, out = run_cli("fleet", "run", *self.ARGS,
                            "--policy", "paranoid,test_depth=64")
        assert code == 0
        assert "test_every=1" in out and "test_depth=64" in out

    def test_fleet_sweep_check_monotone(self):
        code, out = run_cli("fleet", "sweep", *self.ARGS,
                            "--check-monotone")
        assert code == 0
        assert "paranoid" in out
        assert "monotone" in out

    def test_bad_policy_is_a_config_error(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            run_cli("fleet", "run", *self.ARGS, "--policy", "bogus")
