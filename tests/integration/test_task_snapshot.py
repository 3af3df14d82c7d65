"""Snapshot of every orchestration's task structure at one small size.

Pins, at nx=5 with 3 regions, partitions of 32 and 4 simulated workers:

* the ordered tag list of each captured HPX template (fig5/fig6/fig7/full);
* the naive port's loop-chunk tags, in capture order;
* the OpenMP port's parallel-region names, in issue order;
* each HPX variant's lowered process-backend schedule: per spec
  ``(kind, names, lo, hi, region, rep)``, plus the spec costs and the
  waves.  An EOS kernel name is written ``eos``: its repetition count is
  the spec's ``rep``.

Tags are what traces, flight records, profiles and fault patterns show
the user, and the lowered schedule is what the process backend runs, so
a refactor of how tasks are described must keep all of these verbatim.

Regenerate the JSON (only for an intended structural change) with::

    PYTHONPATH=src:. python tests/integration/test_task_snapshot.py
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.amt.runtime import AmtRuntime
from repro.core.hpx_lulesh import HpxLuleshProgram, HpxVariant
from repro.core.kernel_graph import ProblemShape
from repro.core.naive_hpx import NaiveHpxProgram
from repro.core.omp_lulesh import omp_iteration
from repro.lulesh.costs import DEFAULT_COSTS
from repro.lulesh.options import LuleshOptions
from repro.openmp.runtime import OmpRuntime
from repro.parallel.plan import lower_template
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig

SNAPSHOT = Path(__file__).with_name("task_snapshot.json")
VARIANTS = ("fig5", "fig6", "fig7", "full")
NX, REGIONS, PARTITION, WORKERS = 5, 3, 32, 4


def _shape() -> ProblemShape:
    return ProblemShape.from_options(LuleshOptions(nx=NX, numReg=REGIONS))


def _tags(template) -> list[str]:
    return [task.tag for seg in template.segments for task in seg.tasks]


def _hpx(variant: str) -> dict:
    rt = AmtRuntime(MachineConfig(), CostModel(), WORKERS)
    program = HpxLuleshProgram(
        rt, _shape(), DEFAULT_COSTS, nodal_partition=PARTITION,
        elements_partition=PARTITION, variant=getattr(HpxVariant, variant)(),
    )
    program.step()  # cycle 1 captures the graph
    schedule = lower_template(program._template)
    return {
        "tags": _tags(program._template),
        "specs": [
            [s.kind,
             ["eos" if n.startswith("eos") else n for n in s.names],
             s.lo, s.hi, s.region, s.rep]
            for s in schedule.specs
        ],
        "costs": list(schedule.costs),
        "waves": [[list(w.parallel), list(w.serial)] for w in schedule.waves],
    }


def _naive() -> list[str]:
    rt = AmtRuntime(MachineConfig(), CostModel(), WORKERS)
    program = NaiveHpxProgram(rt, _shape(), DEFAULT_COSTS)
    program.step()
    return _tags(program._template)


class _RegionLog:
    """Stand-in fault injector that only records the regions it sees."""

    def __init__(self) -> None:
        self.names: list[str] = []

    def draw_task(self, probe):
        self.names.append(probe.tag)
        return None


def _omp() -> list[str]:
    omp = OmpRuntime(MachineConfig(), CostModel(), WORKERS)
    log = _RegionLog()
    omp.fault_injector = log
    omp_iteration(omp, _shape(), DEFAULT_COSTS)
    return log.names


def snapshot() -> dict:
    return {
        "hpx": {v: _hpx(v) for v in VARIANTS},
        "naive": _naive(),
        "omp": _omp(),
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(SNAPSHOT.read_text())


@pytest.mark.parametrize("variant", VARIANTS)
def test_hpx_template_tags(pinned, variant):
    assert _hpx(variant)["tags"] == pinned["hpx"][variant]["tags"]


@pytest.mark.parametrize("variant", VARIANTS)
def test_hpx_lowered_schedule(pinned, variant):
    got = _hpx(variant)
    want = pinned["hpx"][variant]
    assert got["specs"] == want["specs"]
    assert got["costs"] == want["costs"]
    assert got["waves"] == want["waves"]


def test_naive_loop_tags(pinned):
    assert _naive() == pinned["naive"]


def test_omp_region_names(pinned):
    assert _omp() == pinned["omp"]


def test_snapshot_sizes(pinned):
    """The pinned structure is the size the snapshot was taken at."""
    counts = {v: len(pinned["hpx"][v]["tags"]) for v in VARIANTS}
    assert counts == {"fig5": 93, "fig6": 101, "fig7": 51, "full": 48}
    assert len(pinned["naive"]) == 108
    assert len(pinned["omp"]) == 24


if __name__ == "__main__":
    text = json.dumps(snapshot(), indent=1)
    # one line per innermost list: a spec, a wave half, a tag list
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m[1].split()) + "]", text)
    SNAPSHOT.write_text(text + "\n")
    print(f"wrote {SNAPSHOT}")
