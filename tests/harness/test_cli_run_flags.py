"""The CLI's single run and ``obs`` snapshot build the same run.

``obs baseline``/``obs diff`` go through the single run's session builder
and its flag checks, so partition, balance, tuning and backend flags
reach the recorded metrics.
"""

import json

import pytest

from repro.harness.cli import main

_BASE = ["--s", "6", "--i", "2", "--q"]


def test_obs_baseline_honours_run_flags(capsys, tmp_path):
    path = tmp_path / "base.json"
    assert main(["obs", "baseline", "--baseline", str(path),
                 "--partition-nodal", "16"] + _BASE) == 0
    metrics = json.loads(path.read_text())["metrics"]
    assert metrics["/hpx/partition-size/nodal"] == 16


def test_obs_baseline_applies_the_run_flag_checks(capsys, tmp_path):
    with pytest.raises(SystemExit, match="--impl hpx only"):
        main(["obs", "baseline", "--baseline", str(tmp_path / "b.json"),
              "--impl", "omp", "--partition-nodal", "16"] + _BASE)
