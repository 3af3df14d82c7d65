"""Tiny-size (s=5) runs of every workload through the real entry point.

Each run must print every metric of its mode by name with its unit, end
with the result object, and pass its own correctness checks.  Also checks
that ``BENCHMARK.json`` and the benchmark's metric catalogue agree.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from layers import END_TO_END, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ("exec-s20", "process-s20", "campaign-miss")


def _run(workload, trace, tmp_path):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "0.5",
           "--trace", str(trace), "--smoke",
           "--out", str(tmp_path)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_printed_with_its_unit(workload, trace, tmp_path):
    printed, result = _run(workload, trace, tmp_path)
    catalogue = PER_LAYER if trace else END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, printed
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(catalogue)
    for name, unit in catalogue.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float))
        assert any(
            line.split()[:1] == [name] and line.split()[2] == unit
            for line in printed
        ), f"{name} not printed with {unit}"
    if trace:
        assert os.path.exists(tmp_path / f"{workload}-3.spans.jsonl")
    else:
        assert result["metrics"]["op_ms_p50_ref"]["value"] > 0
        assert any("error_rate" in line for line in printed)


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exec-s20",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
