"""Tests for the baseline diff gate: bands, verdicts, snapshot loaders."""

import json

import pytest

from repro.obs import (
    DEFAULT_SKIP,
    diff_metrics,
    load_metric_values,
    write_baseline,
)


class TestBands:
    def test_inside_band_is_ok(self):
        res = diff_metrics({"/t": 100.0}, {"/t": 104.0}, tolerance=0.05)
        assert res.verdicts[0].status == "ok"
        assert res.ok

    def test_above_band_regresses(self):
        res = diff_metrics({"/t": 100.0}, {"/t": 110.0}, tolerance=0.05)
        assert res.verdicts[0].status == "regression"
        assert not res.ok
        assert res.regressions[0].path == "/t"

    def test_below_band_improves_without_failing(self):
        res = diff_metrics({"/t": 100.0}, {"/t": 80.0}, tolerance=0.05)
        assert res.verdicts[0].status == "improved"
        assert res.ok  # improvements never fail the gate

    def test_zero_baseline_gets_absolute_grace(self):
        # 0 -> 0.02 jitter on an empty counter stays inside the band
        res = diff_metrics({"/c": 0.0}, {"/c": 0.02}, tolerance=0.05)
        assert res.verdicts[0].status == "ok"
        res = diff_metrics({"/c": 0.0}, {"/c": 1.0}, tolerance=0.05)
        assert res.verdicts[0].status == "regression"

    def test_missing_and_new_do_not_fail(self):
        res = diff_metrics({"/gone": 1.0}, {"/added": 2.0})
        statuses = {v.path: v.status for v in res.verdicts}
        assert statuses == {"/gone": "missing", "/added": "new"}
        assert res.ok

    def test_skip_patterns(self):
        res = diff_metrics(
            {"/graph/build-time": 1.0, "/t": 1.0},
            {"/graph/build-time": 99.0, "/t": 1.0},
        )
        statuses = {v.path: v.status for v in res.verdicts}
        assert statuses["/graph/build-time"] == "skipped"
        assert res.ok

    def test_default_skip_only_wall_clock_counters(self):
        assert DEFAULT_SKIP == (
            "*build-time*",
            "*replay-time*",
            "/parallel/*",
            "/serve/wall-time",
            "/serve/jobs-per-sec",
        )

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            diff_metrics({}, {}, tolerance=-0.1)


class TestResult:
    def test_counts_and_table(self):
        res = diff_metrics(
            {"/a": 1.0, "/b": 100.0}, {"/a": 1.0, "/b": 200.0}
        )
        assert res.counts() == {"ok": 1, "regression": 1}
        table = res.format_table()
        assert any("REGRESSION" in line for line in table)
        assert "tolerance" in table[-1]

    def test_rel_change(self):
        res = diff_metrics({"/a": 100.0}, {"/a": 150.0})
        assert res.verdicts[0].rel_change == pytest.approx(0.5)


class TestSnapshotLoaders:
    def test_baseline_round_trip(self, tmp_path):
        path = tmp_path / "base.json"
        write_baseline(str(path), {"/t": 3.0, "/a": 1.0}, note="seed")
        payload = json.loads(path.read_text())
        assert payload["schema"] == "lulesh-hpx-obs-baseline/1"
        assert payload["note"] == "seed"
        assert load_metric_values(str(path)) == {"/a": 1.0, "/t": 3.0}

    def test_counters_export_loads_last_samples(self, tmp_path):
        path = tmp_path / "counters.json"
        path.write_text(json.dumps({
            "schema": "lulesh-hpx-counters/1",
            "counters": {
                "/amt/flushes": {"samples": [
                    {"interval": 1, "time_ns": 10, "value": 1.0},
                    {"interval": 2, "time_ns": 20, "value": 2.0},
                ]},
            },
        }))
        assert load_metric_values(str(path)) == {"/amt/flushes": 2.0}

    def test_metrics_jsonl_loads(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text(
            json.dumps({"schema": "lulesh-hpx-metrics/1", "n_series": 1})
            + "\n"
            + json.dumps({"path": "/x", "samples": [
                {"interval": 1, "time_ns": 5, "value": 7.0}]})
            + "\n"
        )
        assert load_metric_values(str(path)) == {"/x": 7.0}

    def test_bench_trajectory_flattens_numeric_leaves(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({
            "runs": {"s10": {"runtime_ns": 123, "ok": True}},
            "label": "graph",
        }))
        flat = load_metric_values(str(path))
        assert flat == {"runs/s10/runtime_ns": 123.0}  # bools/strs skipped

    def test_committed_bench_files_load(self):
        # the repo's own trajectory files must stay diffable
        for name in ("BENCH_graph.json", "BENCH_kernels.json"):
            values = load_metric_values(name)
            assert values
            assert all(isinstance(v, float) for v in values.values())

    def test_empty_snapshot_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"label": "nothing numeric"}))
        with pytest.raises(ValueError, match="no numeric metrics"):
            load_metric_values(str(path))

    def test_non_object_snapshot_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_metric_values(str(path))


class TestInjectedSlowdownGate:
    """Acceptance check: a real slowdown must push the gate out of band."""

    def test_slower_run_regresses_total_time(self):
        from repro.core.driver import run_hpx
        from repro.lulesh.options import LuleshOptions
        from repro.obs.registry import CounterRegistry

        def snapshot(elements_partition):
            registry = CounterRegistry()
            run_hpx(LuleshOptions(nx=10, numReg=3), 8, 2,
                    registry=registry,
                    elements_partition=elements_partition)
            return registry.last_values()

        base = snapshot(elements_partition=2048)
        # a pathological partition size slows the simulated run well past
        # any reasonable tolerance band
        slow = snapshot(elements_partition=1)
        res = diff_metrics(base, slow, tolerance=0.05)
        assert not res.ok
        assert "/runtime/total-time" in {v.path for v in res.regressions}
