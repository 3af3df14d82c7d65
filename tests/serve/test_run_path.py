"""Campaign jobs run through the same Session as single runs.

A warm executor's job must observe what the same run through
``run_hpx``/``run_naive_hpx``/``run_omp`` or the CLI observes: injected
faults reach the flight record, and each payload counter is the last
sample ``--counters`` shows.  The cache keys are pinned, so stored
tuning-database memo entries keep hitting and a payload change comes with
a fingerprint schema bump.
"""

import fnmatch
import json

import pytest

from repro.core.driver import run_hpx, run_naive_hpx, run_omp
from repro.harness.cli import main
from repro.lulesh.options import LuleshOptions
from repro.obs.recorder import FlightRecorder
from repro.resilience.plan import ResiliencePlan
from repro.serve import CampaignScheduler, JobSpec, job_fingerprint, resolve_spec
from repro.serve.executor import SNAPSHOT_SKIP
from repro.tuning.evaluate import Evaluator
from repro.tuning.space import TuningConfig

RUNS = {"hpx": run_hpx, "naive": run_naive_hpx, "omp": run_omp}


def run_job(spec, flight=None):
    with CampaignScheduler(cache=None, flight_recorder=flight) as sched:
        (record,) = sched.run_campaign([spec])
    assert record.status == "completed", record.error
    return record


@pytest.mark.parametrize("impl", list(RUNS))
def test_injected_faults_reach_the_flight_record(impl):
    spec = JobSpec(s=6, r=3, i=3, threads=4, impl=impl,
                   inject=("task:*:stall@2",))
    flight = FlightRecorder()
    run_job(spec, flight)
    direct = FlightRecorder()
    RUNS[impl](LuleshOptions(nx=6, numReg=3), 4, 3, flight_recorder=direct,
               resilience=ResiliencePlan(inject=spec.inject))
    assert len(flight.events_of("fault")) == len(direct.events_of("fault"))
    assert flight.events_of("fault")


@pytest.mark.parametrize("execute", [False, True])
@pytest.mark.parametrize("impl,variant", [
    ("hpx", "fig5"), ("hpx", "full"), ("naive", "full"), ("omp", "full"),
])
def test_payload_counters_are_the_last_cli_samples(
    impl, variant, execute, tmp_path, capsys
):
    spec = JobSpec(s=6, r=3, i=3, threads=4, impl=impl, variant=variant,
                   execute=execute)
    record = run_job(spec)
    path = tmp_path / "counters.json"
    assert main(["--s", "6", "--r", "3", "--i", "3", "--threads", "4",
                 "--impl", impl, "--variant", variant, "--q",
                 "--counters", str(path)]
                + (["--execute"] if execute else [])) == 0
    counters = json.loads(path.read_text())["counters"]
    last = {
        p: c["samples"][-1]["value"] for p, c in counters.items()
        if not any(fnmatch.fnmatch(p, pat) for pat in SNAPSHOT_SKIP)
    }
    assert record.result["counters"] == last
    assert last["/threads/idle-rate"] > 0


def test_trial_key_is_pinned():
    ev = Evaluator(LuleshOptions(nx=30, numReg=11), 24)
    config = TuningConfig.from_mapping({
        "elements_partition": 256, "nodal_partition": 512,
        "policy": "hpx-default", "replay_graph": True,
    })
    assert ev.trial_key(config) == (
        "da7b6f2209c96b235b3e15f225fffde4543a3eb487a026a4527b53b7e93fb070"
    )


def test_default_job_fingerprint_is_pinned():
    assert job_fingerprint(resolve_spec(JobSpec())) == (
        "3a5072b9c301d450965659e830e29f91d4dbaa58576fde584c8ed1e17283fc1a"
    )
