"""CLI tests for the resilience flags (fault injection / auto-recovery)."""

import json

import pytest

from repro.harness.cli import EXIT_TASK_FAILURE, build_parser, main

_BASE = ["--s", "8", "--r", "3", "--i", "6", "--execute", "--threads", "4",
         "--q"]
_FAULT = ["--inject-fault", "task:CalcQ*@3", "--fault-seed", "1"]


class TestFlags:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.inject_fault is None
        assert args.fault_seed == 0
        assert args.max_retries == 0
        assert args.max_rollbacks == 3
        assert args.checkpoint_every == 10
        assert not args.auto_recover

    def test_inject_fault_repeatable(self):
        args = build_parser().parse_args(
            ["--inject-fault", "task:a*", "--inject-fault", "field:e:nan@2"]
        )
        assert args.inject_fault == ["task:a*", "field:e:nan@2"]

    def test_bad_spec_rejected_before_run(self):
        with pytest.raises(SystemExit, match="bad --inject-fault"):
            main(_BASE + ["--inject-fault", "disk:a*"])

    def test_auto_recover_requires_execute(self):
        with pytest.raises(SystemExit, match="requires --execute"):
            main(["--s", "8", "--i", "2", "--q", "--auto-recover"])


class TestFailurePath:
    def test_unrecovered_fault_exits_nonzero_naming_tag(self, capsys):
        assert main(_BASE + _FAULT) == EXIT_TASK_FAILURE
        err = capsys.readouterr().err
        assert "run failed" in err
        assert "failed task tags:" in err
        assert "monoq" in err  # CalcQ* resolved onto the port's real tag

    @pytest.mark.parametrize("impl", ["hpx", "naive", "omp"])
    def test_failure_still_exports_counters(self, capsys, tmp_path, impl):
        out = tmp_path / "counters.json"
        code = main(_BASE + _FAULT + ["--impl", impl, "--counters", str(out)])
        assert code == EXIT_TASK_FAILURE
        counters = json.loads(out.read_text())["counters"]
        samples = counters["/resilience/injected-faults"]["samples"]
        assert samples[-1]["value"] == 1.0


class TestRecoveryPath:
    @pytest.mark.parametrize("impl", ["hpx", "naive", "omp"])
    def test_auto_recover_completes(self, capsys, tmp_path, impl):
        out = tmp_path / "counters.json"
        code = main(
            _BASE + _FAULT + [
                "--impl", impl, "--auto-recover", "--checkpoint-every", "2",
                "--counters", str(out),
            ]
        )
        assert code == 0
        counters = json.loads(out.read_text())["counters"]
        rollbacks = counters["/resilience/rollbacks"]["samples"][-1]["value"]
        assert rollbacks >= 1.0

    def test_recovered_energy_matches_fault_free(self, capsys):
        def final_energy(extra):
            assert main(_BASE + extra) == 0
            line = capsys.readouterr().out.strip().splitlines()[-1]
            return float(line.split(",")[-1])

        clean = final_energy([])
        recovered = final_energy(
            _FAULT + ["--auto-recover", "--checkpoint-every", "2"]
        )
        assert recovered == pytest.approx(clean, rel=1e-8)
