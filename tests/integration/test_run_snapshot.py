"""Snapshot of what every run path writes, at one small size.

Pins one sha256 per artifact at s=6, 3 regions and 3 iterations:

* CLI single runs: hpx fig5/fig6/fig7/full, naive and omp at 1 and 4
  threads (timing-only); ``--execute`` fig5, full, naive and omp; an
  injected stall on hpx and on omp; an explicit nodal partition with
  balanced partitions; a ``--tuned`` run against a tuning database; and
  ``obs baseline`` for hpx with default flags.  The artifacts are stdout
  (temporary paths normalised), the ``--counters`` JSON without the
  obs-diff ``DEFAULT_SKIP`` families, the ``--trace`` Chrome trace (hpx
  and naive only), the ``--flight-record`` JSONL and the baseline file;
* campaign payloads for the same jobs plus one process-backend job: the
  payload without its counters, its counters without the idle rates, and
  its idle-rate counters on their own.  The process job leaves out its
  host wall-clock runtime.

A failure names the config and the artifact.  Regenerate the JSON (only
for an intended change of output) with::

    PYTHONPATH=src:. python tests/integration/test_run_snapshot.py
"""

from __future__ import annotations

import contextlib
import fnmatch
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from repro.harness.cli import main
from repro.obs.diff import DEFAULT_SKIP
from repro.parallel import process_backend_supported
from repro.serve import CampaignScheduler, JobSpec
from repro.simcore.machine import MachineConfig
from repro.tuning import TuningDatabase

SNAPSHOT = Path(__file__).with_name("run_snapshot.json")
S, R, I = 6, 3, 3
#: What the --tuned configs' database says for (s=6, r=3, 4 threads).
TUNED = {"nodal_partition": 48, "elements_partition": 24}

#: name -> (CLI flags after --s/--r/--i, the equivalent JobSpec fields).
RUNS: dict[str, tuple[list[str], dict]] = {}
for _threads in (1, 4):
    for _variant in ("fig5", "fig6", "fig7", "full"):
        RUNS[f"hpx-{_variant}-t{_threads}"] = (
            ["--variant", _variant, "--threads", str(_threads)],
            {"variant": _variant, "threads": _threads},
        )
    for _impl in ("naive", "omp"):
        RUNS[f"{_impl}-t{_threads}"] = (
            ["--impl", _impl, "--threads", str(_threads)],
            {"impl": _impl, "threads": _threads},
        )
for _name, _flags, _fields in (
    ("fig5", ["--variant", "fig5"], {"variant": "fig5"}),
    ("full", [], {}),
    ("naive", ["--impl", "naive"], {"impl": "naive"}),
    ("omp", ["--impl", "omp"], {"impl": "omp"}),
):
    RUNS[f"execute-{_name}"] = (
        _flags + ["--threads", "4", "--execute"],
        dict(_fields, threads=4, execute=True),
    )
for _impl in ("hpx", "omp"):
    RUNS[f"inject-{_impl}"] = (
        ["--impl", _impl, "--threads", "4", "--execute",
         "--inject-fault", "task:*:stall@2"],
        {"impl": _impl, "threads": 4, "execute": True,
         "inject": ("task:*:stall@2",)},
    )
RUNS["partition-balanced"] = (
    ["--threads", "4", "--partition-nodal", "16", "--balanced-partitions"],
    {"threads": 4, "nodal_partition": 16, "balanced": True},
)
RUNS["tuned"] = (["--threads", "4", "--tuned"], {"threads": 4, "tuned": True})

#: Campaign-only job: the process backend (needs real worker processes).
PROCESS_JOB = {"threads": 4, "execute": True, "backend": "process",
               "workers": 2}


def _digest(obj) -> str:
    data = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _tuning_db(tmp: Path) -> str:
    machine = MachineConfig()
    path = str(tmp / "tuning.json")
    db = TuningDatabase(path)
    db.record(
        {"n_cores": machine.n_cores, "smt_per_core": machine.smt_per_core,
         "smt_efficiency": machine.smt_efficiency, "runtime": "hpx"},
        {"nx": S, "numReg": R, "threads": 4}, TUNED,
        runtime_ns=1, strategy="snapshot", seed=0, n_trials=1,
    )
    db.save()
    return path


def _kept(paths) -> list[str]:
    return [p for p in paths
            if not any(fnmatch.fnmatch(p, pat) for pat in DEFAULT_SKIP)]


def _cli(argv: list[str], tmp: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue().replace(str(tmp), "<tmp>")


def cli_artifacts(name: str) -> dict[str, str]:
    """Run one CLI config in a fresh temp dir; artifact -> sha256."""
    with tempfile.TemporaryDirectory() as raw:
        tmp = Path(raw)
        if name == "obs-baseline":
            stdout = _cli(["obs", "baseline", "--baseline", str(tmp / "b.json"),
                           "--s", str(S), "--r", str(R), "--i", str(I)], tmp)
            metrics = json.loads((tmp / "b.json").read_text())["metrics"]
            return {
                "stdout": _digest(stdout),
                "baseline": _digest({p: metrics[p] for p in _kept(metrics)}),
            }
        flags, _ = RUNS[name]
        if "--tuned" in flags:
            flags = flags + ["--tuning-db", _tuning_db(tmp)]
        impl = flags[flags.index("--impl") + 1] if "--impl" in flags else "hpx"
        files = {"counters": tmp / "counters.json",
                 "flight": tmp / "flight.jsonl"}
        argv = ["--s", str(S), "--r", str(R), "--i", str(I), *flags,
                "--counters", str(files["counters"]),
                "--flight-record", str(files["flight"])]
        if impl != "omp":
            files["trace"] = tmp / "trace.json"
            argv += ["--trace", str(files["trace"])]
        out = {"stdout": _digest(_cli(argv, tmp))}
        counters = json.loads(files["counters"].read_text())
        counters["counters"] = {
            p: counters["counters"][p] for p in _kept(counters["counters"])
        }
        out["counters"] = _digest(counters)
        out["flight"] = _digest(files["flight"].read_text())
        if "trace" in files:
            out["trace"] = _digest(files["trace"].read_text())
        return out


def _is_idle_rate(path: str) -> bool:
    return path.endswith("/idle-rate")


def payload_artifacts(payload: dict, wall_clock: bool) -> dict[str, str]:
    """A campaign payload's three artifacts -> sha256."""
    fields = {k: v for k, v in payload.items() if k != "counters"}
    if wall_clock:
        del fields["runtime_ns"], fields["per_iteration_ns"]
    counters = payload["counters"]
    return {
        "payload": _digest(fields),
        "counters": _digest(
            {p: v for p, v in counters.items() if not _is_idle_rate(p)}
        ),
        "idle-rate": _digest(
            {p: v for p, v in counters.items() if _is_idle_rate(p)}
        ),
    }


def campaign_artifacts(names: list[str]) -> dict[str, dict[str, str]]:
    """Run *names* (RUNS keys, or ``process``) as one campaign."""
    specs = [
        JobSpec(s=S, r=R, i=I,
                **(PROCESS_JOB if name == "process" else RUNS[name][1]))
        for name in names
    ]
    with tempfile.TemporaryDirectory() as raw:
        db = TuningDatabase.load(_tuning_db(Path(raw)))
        with CampaignScheduler(cache=None, tuning=db) as sched:
            records = sched.run_campaign(specs)
    out = {}
    for name, record in zip(names, records):
        assert record.status == "completed", (name, record.error)
        out[name] = payload_artifacts(record.result, name == "process")
    return out


def generate() -> dict:
    snapshot = {"cli": {}, "campaign": {}}
    for name in [*RUNS, "obs-baseline"]:
        snapshot["cli"][name] = cli_artifacts(name)
    names = list(RUNS)
    if process_backend_supported():
        names.append("process")
    snapshot["campaign"] = campaign_artifacts(names)
    return snapshot


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(SNAPSHOT.read_text())


def _assert_same(kind: str, name: str, got: dict, want: dict) -> None:
    assert set(got) == set(want), (kind, name)
    for artifact in want:
        assert got[artifact] == want[artifact], (
            f"{kind} {name}: {artifact} differs from the snapshot"
        )


@pytest.mark.parametrize("name", [*RUNS, "obs-baseline"])
def test_cli_run_matches_snapshot(name, pinned, capsys):
    _assert_same("cli", name, cli_artifacts(name), pinned["cli"][name])


def test_campaign_payloads_match_snapshot(pinned):
    got = campaign_artifacts(list(RUNS))
    for name in RUNS:
        _assert_same("campaign", name, got[name], pinned["campaign"][name])


@pytest.mark.parallel
@pytest.mark.skipif(not process_backend_supported(),
                    reason="host cannot run the process backend")
def test_process_campaign_payload_matches_snapshot(pinned):
    got = campaign_artifacts(["process"])
    _assert_same("campaign", "process", got["process"],
                 pinned["campaign"]["process"])


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    SNAPSHOT.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {SNAPSHOT}")
