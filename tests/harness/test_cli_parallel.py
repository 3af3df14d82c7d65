"""CLI surface of the process backend: flag validation and a tiny run."""

import pytest

from repro.harness.cli import build_parser, main
from repro.parallel import process_backend_supported


class TestFlagValidation:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.backend == "sim"
        assert args.workers is None

    def test_workers_requires_process_backend(self):
        with pytest.raises(SystemExit, match="--backend process"):
            main(["--workers", "2", "--s", "4", "--i", "1"])

    def test_process_requires_execute(self):
        with pytest.raises(SystemExit, match="--execute"):
            main(["--backend", "process", "--s", "4", "--i", "1"])

    def test_process_requires_hpx_impl(self):
        with pytest.raises(SystemExit, match="--impl hpx"):
            main(["--backend", "process", "--impl", "omp",
                  "--execute", "--s", "4", "--i", "1"])

    def test_process_rejects_multirank(self):
        with pytest.raises(SystemExit, match="single-rank"):
            main(["--backend", "process", "--execute", "--ranks", "2",
                  "--s", "4", "--i", "1"])

    def test_workers_must_be_positive(self):
        with pytest.raises(SystemExit, match=">= 1"):
            main(["--backend", "process", "--execute", "--workers", "0",
                  "--s", "4", "--i", "1"])

    @pytest.mark.parametrize("flag", [
        ("--worker-timeout", "5"),
        ("--max-worker-respawns", "1"),
        ("--no-degrade",),
    ])
    def test_supervision_flags_require_process_backend(self, flag):
        with pytest.raises(SystemExit, match="--backend process"):
            main([*flag, "--s", "4", "--i", "1"])

    def test_worker_timeout_must_be_positive(self):
        with pytest.raises(SystemExit, match="--worker-timeout must be > 0"):
            main(["--backend", "process", "--execute",
                  "--worker-timeout", "0", "--s", "4", "--i", "1"])

    def test_max_respawns_must_be_nonnegative(self):
        with pytest.raises(SystemExit, match=">= 0"):
            main(["--backend", "process", "--execute",
                  "--max-worker-respawns", "-1", "--s", "4", "--i", "1"])

    def test_worker_fault_spec_parses(self):
        args = build_parser().parse_args(
            ["--inject-fault", "worker:0:kill@3"]
        )
        assert args.inject_fault == ["worker:0:kill@3"]

    def test_bad_worker_fault_spec_rejected(self):
        with pytest.raises(SystemExit, match="bad --inject-fault"):
            main(["--backend", "process", "--execute",
                  "--inject-fault", "worker:zero:kill",
                  "--s", "4", "--i", "1"])


@pytest.mark.parallel
@pytest.mark.skipif(
    not process_backend_supported(),
    reason="host cannot run the process backend",
)
class TestProcessRun:
    def test_tiny_process_run(self, capsys):
        assert main([
            "--backend", "process", "--workers", "2", "--execute",
            "--s", "8", "--i", "3", "--threads", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "backend: process (2 worker processes" in out
        assert "final origin energy" in out
        assert "size,regions,iterations,threads,runtime,result" in out

    def test_counters_exported(self, capsys):
        assert main([
            "--backend", "process", "--workers", "1", "--execute",
            "--s", "6", "--i", "3", "--threads", "4", "--q",
            "--print-counters", "/parallel/*",
        ]) == 0
        out = capsys.readouterr().out
        assert "/parallel/workers" in out
        # the closing sample must reflect the finished run, not just the
        # serial capture cycle (warm cycles never flush the DES sampler)
        cycle_rows = [l for l in out.splitlines()
                      if l.startswith("/parallel/cycles,")]
        assert cycle_rows and cycle_rows[-1].split(",")[-1] == "2"

    def test_chaos_run_recovers_and_exits_zero(self, capsys, tmp_path):
        """End-to-end CLI chaos: seeded kill + hang, run still exits 0 and
        the flight record carries the supervision trail."""
        import json

        flight = tmp_path / "chaos-flight.jsonl"
        assert main([
            "--backend", "process", "--workers", "2", "--execute",
            "--s", "8", "--i", "6", "--threads", "4", "--q",
            "--inject-fault", "worker:0:kill@3",
            "--inject-fault", "worker:1:hang@5",
            "--worker-timeout", "2",
            "--flight-record", str(flight),
            "--print-counters", "/parallel/supervision/*",
        ]) == 0
        out = capsys.readouterr().out
        # first JSONL line is the schema header; events carry a "kind"
        kinds = {
            rec["kind"]
            for rec in map(json.loads, flight.read_text().splitlines())
            if "kind" in rec
        }
        assert {"worker_lost", "worker_respawn", "wave_retry"} <= kinds
        assert "backend_degraded" not in kinds
        losses = [l for l in out.splitlines()
                  if l.startswith("/parallel/supervision/worker-losses,")]
        assert losses and losses[-1].split(",")[-1] == "2"
