"""Tests for the ``--metrics`` JSONL and counter-trajectory monotonicity."""

import json

import pytest

from repro.core.driver import run_hpx
from repro.harness.cli import main
from repro.lulesh.options import LuleshOptions
from repro.obs.diff import load_metric_values, write_metrics_jsonl
from repro.obs.registry import CounterRegistry


def negative_deltas(samples) -> list[tuple[int, float]]:
    """``(interval, delta)`` of each sample that steps below its predecessor."""
    return [
        (b["interval"], b["value"] - a["value"])
        for a, b in zip(samples, samples[1:])
        if b["value"] < a["value"]
    ]


class TestStore:
    """The metrics JSONL: a registry's trajectories, one line per counter."""

    def test_jsonl_round_trip(self, tmp_path):
        registry = CounterRegistry()
        value = iter([2.0, 4.0])
        registry.register_gauge("/a", lambda: next(value), unit="[ns]",
                                description="d")
        registry.record(100)
        registry.record(200)
        out = tmp_path / "metrics.jsonl"
        assert write_metrics_jsonl(str(out), registry.to_json_dict()) == 1
        header, row = map(json.loads, out.read_text().splitlines())
        assert header == {"schema": "lulesh-hpx-metrics/1", "n_series": 1}
        assert [s["value"] for s in row["samples"]] == [2.0, 4.0]
        assert row["unit"] == "[ns]"
        assert load_metric_values(str(out)) == {"/a": 4.0}

    def test_from_registry_captures_trajectories(self, tmp_path):
        registry = CounterRegistry()
        run_hpx(LuleshOptions(nx=6, numReg=2), 4, 3, registry=registry)
        out = tmp_path / "metrics.jsonl"
        write_metrics_jsonl(str(out), registry.to_json_dict())
        rows = {r["path"]: r["samples"]
                for r in map(json.loads, out.read_text().splitlines()[1:])}
        assert rows.keys() == set(registry.paths())
        flushes = [s["value"] for s in rows["/amt/flushes"]]
        assert len(flushes) == 3  # one sample per iteration
        assert flushes == sorted(flushes)
        violations = {p: negative_deltas(s) for p, s in rows.items()}
        assert not any(violations.values()), violations


class TestRollbackMonotonicity:
    """Cumulative counters must never lose history across a rollback.

    A checkpoint restore rewinds the *domain*, not the accounting: the
    ``/resilience/*`` and ``/graph/*`` series sampled through a
    fault-and-recover run must stay monotone non-decreasing — a negative
    interval delta in the counters export means a stats object was rolled
    back along with the physics state.
    """

    @pytest.mark.parametrize("impl", ["hpx", "naive"])
    def test_rollback_never_yields_negative_deltas(self, capsys, tmp_path,
                                                   impl):
        out = tmp_path / "counters.json"
        code = main([
            "--impl", impl, "--s", "8", "--r", "3", "--i", "6", "--execute",
            "--threads", "4", "--q",
            "--inject-fault", "task:CalcQ*@3", "--fault-seed", "1",
            "--auto-recover", "--checkpoint-every", "2",
            "--counters", str(out),
        ])
        assert code == 0
        counters = json.loads(out.read_text())["counters"]
        rollbacks = counters["/resilience/rollbacks"]["samples"]
        assert rollbacks[-1]["value"] >= 1.0  # the run really rolled back
        guarded = {
            path: negative_deltas(entry["samples"])
            for path, entry in counters.items()
            if path.startswith(("/resilience/", "/graph/"))
        }
        assert not any(guarded.values()), guarded
