"""CLI tests for the observability surface.

Covers the flight recorder (success dump and the failure auto-dump), the
``--trace``/``--metrics`` exports, the multi-rank merged timeline, and the
``obs baseline`` / ``obs diff`` regression gate with its exit code.
"""

import json

import pytest

from repro.harness.cli import EXIT_PERF_REGRESSION, EXIT_TASK_FAILURE, main

_BASE = ["--s", "6", "--i", "2", "--q"]


def read_jsonl(path):
    return [json.loads(raw) for raw in path.read_text().splitlines()]


class TestFlightRecord:
    def test_dump_on_success(self, capsys, tmp_path):
        out = tmp_path / "flight.jsonl"
        assert main(_BASE + ["--flight-record", str(out)]) == 0
        rows = read_jsonl(out)
        assert rows[0]["schema"] == "lulesh-hpx-flight/1"
        kinds = {r["kind"] for r in rows[1:]}
        assert {"run_begin", "task_spawn", "flush", "task_retire",
                "run_end"} <= kinds

    def test_auto_dump_on_task_failure(self, capsys, tmp_path):
        out = tmp_path / "flight.jsonl"
        code = main(_BASE + [
            "--execute", "--inject-fault", "task:*", "--fault-seed", "1",
            "--flight-record", str(out),
        ])
        assert code == EXIT_TASK_FAILURE
        rows = read_jsonl(out)  # the post-mortem survived the crash
        assert "fault" in {r["kind"] for r in rows[1:]}

    def test_capacity_flag_bounds_ring(self, capsys, tmp_path):
        out = tmp_path / "flight.jsonl"
        assert main(_BASE + ["--flight-record", str(out),
                             "--flight-capacity", "8"]) == 0
        rows = read_jsonl(out)
        assert rows[0]["capacity"] == 8
        assert rows[0]["n_dropped"] > 0
        assert len(rows) - 1 == 8

    def test_bad_capacity_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="flight-capacity"):
            main(_BASE + ["--flight-record",
                          str(tmp_path / "f.jsonl"),
                          "--flight-capacity", "0"])

    def test_graph_events_present_with_replay(self, capsys, tmp_path):
        out = tmp_path / "flight.jsonl"
        assert main(["--s", "6", "--i", "3", "--q",
                     "--flight-record", str(out)]) == 0
        kinds = {r["kind"] for r in read_jsonl(out)[1:]}
        assert "graph_capture" in kinds
        assert "graph_replay" in kinds


class TestTraceExport:
    def test_trace_spans_carry_cycles(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["--s", "6", "--i", "3", "--q",
                     "--trace", str(out)]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        cycles = {e["args"]["cycle"] for e in events if e.get("ph") == "X"}
        assert cycles == {1, 2, 3}  # replayed cycles distinguishable

    def test_metrics_jsonl_export(self, capsys, tmp_path):
        out = tmp_path / "metrics.jsonl"
        assert main(_BASE + ["--metrics", str(out)]) == 0
        header, *rows = read_jsonl(out)
        assert header == {"schema": "lulesh-hpx-metrics/1",
                          "n_series": len(rows)}
        values = {r["path"]: [s["value"] for s in r["samples"]] for r in rows}
        assert values["/amt/flushes"] == [1.0, 2.0]
        for path, series in values.items():  # no series steps backwards
            assert series == sorted(series), path

    def test_trace_rejected_for_omp(self, capsys, tmp_path):
        with pytest.raises(SystemExit, match="trace"):
            main(_BASE + ["--impl", "omp", "--trace",
                          str(tmp_path / "t.json")])


class TestMultiRankTimeline:
    def test_merged_timeline_with_cross_rank_parents(self, capsys, tmp_path):
        chrome = tmp_path / "timeline.json"
        assert main(["--s", "6", "--i", "2", "--ranks", "3",
                     "--trace", str(chrome)]) == 0
        jsonl = tmp_path / "timeline.jsonl"
        rows = read_jsonl(jsonl)
        assert rows[0]["schema"] == "lulesh-hpx-spans/1"
        assert rows[0]["n_ranks"] == 3
        spans = rows[1:]
        recvs = [s for s in spans
                 if s.get("parent_rank") is not None
                 and s["parent_rank"] != s["rank"]]
        assert recvs  # halo receives parented to sends on other ranks
        by_id = {s["span_id"]: s for s in spans}
        for r in recvs:
            parent = by_id[r["parent_id"]]
            assert r["clock"] > parent["clock"]  # Lamport order holds
            assert r["start_ns"] >= parent["end_ns"]  # happens-before
        events = json.loads(chrome.read_text())["traceEvents"]
        pids = {e["pid"] for e in events}
        assert pids == {0, 1, 2}  # one process per rank
        assert [e for e in events if e.get("ph") == "s"]  # arrows present

    def test_distributed_flight_events(self, capsys, tmp_path):
        out = tmp_path / "flight.jsonl"
        assert main(["--s", "6", "--i", "2", "--ranks", "2",
                     "--flight-record", str(out)]) == 0
        kinds = {r["kind"] for r in read_jsonl(out)[1:]}
        assert {"halo_send", "halo_recv", "allreduce"} <= kinds

    def test_ranks_require_hpx_impl(self, capsys):
        with pytest.raises(SystemExit, match="ranks"):
            main(_BASE + ["--impl", "omp", "--ranks", "2"])

    def test_bad_rank_count_rejected(self, capsys):
        with pytest.raises(SystemExit, match="ranks"):
            main(_BASE + ["--ranks", "0"])


class TestObsGate:
    def run_baseline(self, tmp_path, capsys):
        path = tmp_path / "base.json"
        assert main(["obs", "baseline", "--baseline", str(path)]
                    + _BASE) == 0
        capsys.readouterr()
        return path

    def test_baseline_then_identical_diff_passes(self, capsys, tmp_path):
        base = self.run_baseline(tmp_path, capsys)
        assert main(["obs", "diff", "--baseline", str(base)] + _BASE) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "REGRESSION" not in out

    def test_out_of_band_metric_fails_with_exit_code(self, capsys, tmp_path):
        base = self.run_baseline(tmp_path, capsys)
        # inject a slowdown into the stored baseline: claim the run used to
        # be twice as fast, so the (deterministic) current run regresses
        payload = json.loads(base.read_text())
        payload["metrics"]["/runtime/total-time"] *= 0.5
        base.write_text(json.dumps(payload))
        code = main(["obs", "diff", "--baseline", str(base)] + _BASE)
        assert code == EXIT_PERF_REGRESSION
        captured = capsys.readouterr()
        assert "/runtime/total-time" in captured.err

    def test_warn_only_reports_but_passes(self, capsys, tmp_path):
        base = self.run_baseline(tmp_path, capsys)
        payload = json.loads(base.read_text())
        payload["metrics"]["/runtime/total-time"] *= 0.5
        base.write_text(json.dumps(payload))
        code = main(["obs", "diff", "--baseline", str(base), "--warn-only"]
                    + _BASE)
        assert code == 0
        assert "WARNING" in capsys.readouterr().out

    def test_diff_against_snapshot_file(self, capsys, tmp_path):
        base = self.run_baseline(tmp_path, capsys)
        assert main(["obs", "diff", "--baseline", str(base),
                     "--current", str(base)]) == 0

    def test_custom_skip_pattern(self, capsys, tmp_path):
        base = self.run_baseline(tmp_path, capsys)
        payload = json.loads(base.read_text())
        payload["metrics"]["/runtime/total-time"] *= 0.5
        base.write_text(json.dumps(payload))
        code = main(["obs", "diff", "--baseline", str(base),
                     "--skip", "/runtime/*", "--skip", "*-time*"] + _BASE)
        assert code == 0

    def test_diff_requires_baseline(self, capsys):
        with pytest.raises(SystemExit, match="baseline"):
            main(["obs", "diff"] + _BASE)

    def test_unknown_action_rejected(self, capsys):
        with pytest.raises(SystemExit, match="obs"):
            main(["obs", "frobnicate"] + _BASE)

    def test_committed_smoke_baseline_is_current(self, capsys):
        """The checked-in CI baseline must match what the code produces."""
        code = main(["obs", "diff", "--baseline",
                     "baselines/obs_s10_smoke.json",
                     "--s", "10", "--i", "2", "--q"])
        assert code == 0
