"""Which tasks a reference-name fault pattern strikes, on every port.

A ``task:`` pattern matches a task (an OpenMP region) when it globs the
tag, or any LULESH 2.0 function on the call path of a kernel the task
runs.  Pinned here, for the twelve reference names the fault grammar has
always documented, at nx=5 with 3 regions, partitions of 32 and 4
simulated workers: the tags each ``task:<name>*`` pattern matches in the
four HPX ladder variants and the naive port (partition ranges stripped),
and the OpenMP regions it matches.  ``full`` renders the same tags as
``fig7`` and is checked against that row.
"""

from __future__ import annotations

import re

import pytest

from repro.amt.runtime import AmtRuntime
from repro.core.hpx_lulesh import HpxLuleshProgram, HpxVariant
from repro.core.kernel_graph import ProblemShape
from repro.core.naive_hpx import NaiveHpxProgram
from repro.core.omp_lulesh import omp_iteration
from repro.harness.cli import EXIT_TASK_FAILURE, main
from repro.lulesh.costs import DEFAULT_COSTS
from repro.lulesh.options import LuleshOptions
from repro.openmp.runtime import OmpRuntime
from repro.resilience import FaultInjector
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig

WORKERS = 4

EXPECTED = {
    "CalcQ": {
        "fig5": {
            "k:monoq_gradients", "prologue:qstop_check",
            "region0:monoq_region", "region1:monoq_region",
            "region2:monoq_region",
        },
        "fig6": {
            "kin:monoq_gradients", "prologue:qstop_check",
            "region0:monoq_region", "region1:monoq_region",
            "region2:monoq_region",
        },
        "fig7": {
            "kin:kinematics+strain_rates+monoq_gradients",
            "prologue:material_prologue+qstop_check+update_volumes",
            "region0:monoq_region+eos[x1]", "region1:monoq_region+eos[x2]",
            "region2:monoq_region+eos[x2]",
        },
        "naive": {
            "monoq[0]", "monoq[1]", "monoq[2]", "q_gradients", "qstop_check",
        },
        "omp": {
            "CalcMonotonicQGradients", "MonotonicQRegion[0]",
            "MonotonicQRegion[1]", "MonotonicQRegion[2]", "QStopCheck",
        },
    },
    "CalcMonotonicQ": {
        "fig5": {
            "k:monoq_gradients", "region0:monoq_region",
            "region1:monoq_region", "region2:monoq_region",
        },
        "fig6": {
            "kin:monoq_gradients", "region0:monoq_region",
            "region1:monoq_region", "region2:monoq_region",
        },
        "fig7": {
            "kin:kinematics+strain_rates+monoq_gradients",
            "region0:monoq_region+eos[x1]", "region1:monoq_region+eos[x2]",
            "region2:monoq_region+eos[x2]",
        },
        "naive": {"monoq[0]", "monoq[1]", "monoq[2]", "q_gradients"},
        "omp": {
            "CalcMonotonicQGradients", "MonotonicQRegion[0]",
            "MonotonicQRegion[1]", "MonotonicQRegion[2]",
        },
    },
    "CalcForceForNodes": {
        "fig5": {
            "k:fb_hourglass", "k:hg_control", "k:init_stress",
            "k:integrate_stress", "k:sum_forces", "k:zero_forces",
        },
        "fig6": {
            "hg:fb_hourglass", "hg:hg_control", "node:sum_forces",
            "node:zero_forces", "stress:init_stress",
            "stress:integrate_stress",
        },
        "fig7": {
            "hg:hg_control+fb_hourglass",
            "node:zero_forces+sum_forces+acceleration",
            "stress:init_stress+integrate_stress",
        },
        "naive": {
            "collect_hg", "collect_stress", "fb_hourglass", "hg_control",
            "init_stress", "integrate_stress", "zero_forces",
        },
        "omp": {
            "CalcFBHourglassForce", "CalcForceForNodes",
            "CalcHourglassControl", "InitStressTerms", "IntegrateStress",
        },
    },
    "IntegrateStressForElems": {
        "fig5": {"k:integrate_stress"},
        "fig6": {"stress:integrate_stress"},
        "fig7": {"stress:init_stress+integrate_stress"},
        "naive": {"integrate_stress"},
        "omp": {"IntegrateStress"},
    },
    "CalcFBHourglassForce": {
        "fig5": {"k:fb_hourglass"},
        "fig6": {"hg:fb_hourglass"},
        "fig7": {"hg:hg_control+fb_hourglass"},
        "naive": {"fb_hourglass"},
        "omp": {"CalcFBHourglassForce"},
    },
    "CalcKinematics": {
        "fig5": {"k:kinematics"},
        "fig6": {"kin:kinematics"},
        "fig7": {"kin:kinematics+strain_rates+monoq_gradients"},
        "naive": {"kinematics"},
        "omp": {"CalcKinematics"},
    },
    "CalcLagrangeElements": {
        "fig5": {"k:kinematics", "k:strain_rates"},
        "fig6": {"kin:kinematics", "kin:strain_rates"},
        "fig7": {"kin:kinematics+strain_rates+monoq_gradients"},
        "naive": {"kinematics", "strain_rates"},
        "omp": {"CalcKinematics", "CalcLagrangeElements"},
    },
    "EvalEOSForElems": {
        "fig5": {"region0:eos[x1]", "region1:eos[x2]", "region2:eos[x2]"},
        "fig6": {"region0:eos[x1]", "region1:eos[x2]", "region2:eos[x2]"},
        "fig7": {
            "region0:monoq_region+eos[x1]", "region1:monoq_region+eos[x2]",
            "region2:monoq_region+eos[x2]",
        },
        "naive": {"eos[0]", "eos[1]", "eos[2]"},
        "omp": {"EvalEOS[0]", "EvalEOS[1]", "EvalEOS[2]"},
    },
    "CalcEnergyForElems": {
        "fig5": {"region0:eos[x1]", "region1:eos[x2]", "region2:eos[x2]"},
        "fig6": {"region0:eos[x1]", "region1:eos[x2]", "region2:eos[x2]"},
        "fig7": {
            "region0:monoq_region+eos[x1]", "region1:monoq_region+eos[x2]",
            "region2:monoq_region+eos[x2]",
        },
        "naive": {"eos[0]", "eos[1]", "eos[2]"},
        "omp": {"EvalEOS[0]", "EvalEOS[1]", "EvalEOS[2]"},
    },
    "ApplyMaterialProperties": {
        "fig5": {
            "prologue:material_prologue", "region0:eos[x1]", "region1:eos[x2]",
            "region2:eos[x2]",
        },
        "fig6": {
            "prologue:material_prologue", "region0:eos[x1]", "region1:eos[x2]",
            "region2:eos[x2]",
        },
        "fig7": {
            "prologue:material_prologue+qstop_check+update_volumes",
            "region0:monoq_region+eos[x1]", "region1:monoq_region+eos[x2]",
            "region2:monoq_region+eos[x2]",
        },
        "naive": {"eos[0]", "eos[1]", "eos[2]", "prologue"},
        "omp": {
            "ApplyMaterialProperties", "EvalEOS[0]", "EvalEOS[1]",
            "EvalEOS[2]",
        },
    },
    "UpdateVolumesForElems": {
        "fig5": {"prologue:update_volumes"},
        "fig6": {"prologue:update_volumes"},
        "fig7": {"prologue:material_prologue+qstop_check+update_volumes"},
        "naive": {"update_volumes"},
        "omp": {"UpdateVolumes"},
    },
    "CalcTimeConstraints": {
        "fig5": {"constraints[0]", "constraints[1]", "constraints[2]"},
        "fig6": {"constraints[0]", "constraints[1]", "constraints[2]"},
        "fig7": {"constraints[0]", "constraints[1]", "constraints[2]"},
        "naive": {
            "courant[0]", "courant[1]", "courant[2]", "hydro[0]", "hydro[1]",
            "hydro[2]",
        },
        "omp": {
            "TimeConstraints[0]", "TimeConstraints[1]", "TimeConstraints[2]",
        },
    },
}


def _shape() -> ProblemShape:
    return ProblemShape.from_options(LuleshOptions(nx=5, numReg=3))


@pytest.fixture(scope="module")
def tasks() -> dict:
    """Every captured task of each task-based orchestration."""
    out = {}
    for variant in ("fig5", "fig6", "fig7", "full"):
        rt = AmtRuntime(MachineConfig(), CostModel(), WORKERS)
        program = HpxLuleshProgram(
            rt, _shape(), DEFAULT_COSTS, 32, 32,
            variant=getattr(HpxVariant, variant)(),
        )
        program.step()
        out[variant] = program._template
    rt = AmtRuntime(MachineConfig(), CostModel(), WORKERS)
    program = NaiveHpxProgram(rt, _shape(), DEFAULT_COSTS)
    program.step()
    out["naive"] = program._template
    return {
        k: [t for seg in tpl.segments for t in seg.tasks] for k, tpl in out.items()
    }


class _RegionMatches:
    """Stand-in injector: records the regions the real one would strike."""

    def __init__(self, injector: FaultInjector) -> None:
        self.injector = injector
        self.names: set[str] = set()

    def draw_task(self, probe):
        if self.injector.draw_task(probe) is not None:
            self.names.add(probe.tag)
        return None


@pytest.mark.parametrize("name", list(EXPECTED))
def test_reference_name_matches(tasks, name):
    injector = FaultInjector([f"task:{name}*@1"], seed=0)
    injector.begin_cycle(1)
    for orch, orch_tasks in tasks.items():
        got = {
            re.sub(r"\[\d+:\d+\]$", "", t.tag)
            for t in orch_tasks if injector.draw_task(t) is not None
        }
        assert got == EXPECTED[name]["fig7" if orch == "full" else orch], orch
    omp = OmpRuntime(MachineConfig(), CostModel(), WORKERS)
    omp.fault_injector = regions = _RegionMatches(injector)
    omp_iteration(omp, _shape(), DEFAULT_COSTS)
    assert regions.names == EXPECTED[name]["omp"]


def test_time_constraint_fault_strikes_the_naive_port(capsys):
    code = main([
        "--s", "5", "--r", "3", "--i", "3", "--execute", "--threads", "4",
        "--q", "--impl", "naive",
        "--inject-fault", "task:CalcTimeConstraints*@2",
    ])
    assert code == EXIT_TASK_FAILURE
    assert "courant[0]" in capsys.readouterr().err
