"""The kernel catalogue checked against the kernels it describes.

One real cycle runs in reference order over partitions.  After each entry
runs over a range, it runs a second time on its own output:

* an idempotent entry must leave every float64 Domain array byte-identical;
* a non-idempotent entry may change only the fields it declares
  ``in_place``, and must change one of them somewhere in the cycle.

The state is rewound after each second run, so the cycle continues from
one application of every kernel.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.amt.runtime import AmtRuntime
from repro.core.hpx_lulesh import HpxLuleshProgram
from repro.core.kernel_graph import ProblemShape
from repro.core.partitioning import partition_ranges
from repro.lulesh.catalogue import KERNELS, TaskSpec, kernels_of, lookup
from repro.lulesh.costs import DEFAULT_COSTS, KernelCosts
from repro.lulesh.domain import Domain
from repro.lulesh.kernels.constraints import time_increment
from repro.lulesh.options import LuleshOptions
from repro.lulesh.reference import SequentialDriver
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig

NX, REGIONS, WARMUP_CYCLES, PARTITION = 6, 3, 5, 64

#: LagrangeLeapFrog's kernel order: (name, range kind), where the range
#: kind is "node", "elem", "region" (each region's element list) or "once".
REFERENCE_ORDER = (
    ("zero_forces", "node"),
    ("init_stress", "elem"),
    ("integrate_stress", "elem"),
    ("hg_control", "elem"),
    ("fb_hourglass", "elem"),
    ("sum_forces", "node"),
    ("acceleration", "node"),
    ("accel_bc", "once"),
    ("velocity", "node"),
    ("position", "node"),
    ("kinematics", "elem"),
    ("strain_rates", "elem"),
    ("monoq_gradients", "elem"),
    ("monoq_region", "region"),
    ("qstop_check", "elem"),
    ("material_prologue", "elem"),
    ("eos", "region"),
    ("update_volumes", "elem"),
    ("courant", "region"),
    ("hydro", "region"),
)


def _float_fields(d: Domain) -> dict[str, np.ndarray]:
    return {
        name: a for name, a in vars(d).items()
        if isinstance(a, np.ndarray) and a.dtype == np.float64
    }


def _ranges(d: Domain, kind: str):
    """``(lo, hi, region, rep)`` of every partition the kernel runs over."""
    if kind == "once":
        return [(0, 0, -1, 0)]
    if kind != "region":
        n = d.numNode if kind == "node" else d.numElem
        return [(lo, hi, -1, 0) for lo, hi in partition_ranges(n, PARTITION)]
    regions = d.regions
    return [
        (lo, hi, r, regions.rep(r))
        for r in range(regions.num_reg)
        for lo, hi in partition_ranges(len(regions.reg_elem_lists[r]), PARTITION)
    ]


@pytest.fixture(scope="module")
def rerun_changes() -> dict[str, set[str]]:
    """Fields each kernel's second run changed, over one whole cycle."""
    d = Domain(LuleshOptions(nx=NX, numReg=REGIONS))
    driver = SequentialDriver(d)
    for _ in range(WARMUP_CYCLES):
        driver.step()
    time_increment(d)
    changed: dict[str, set[str]] = {}
    with d.workspace.phase():
        for name, kind in REFERENCE_ORDER:
            k = KERNELS[name]
            seen = changed.setdefault(name, set())
            for lo, hi, r, rep in _ranges(d, kind):
                k.body(d, lo, hi, r, rep)
                once = {f: a.copy() for f, a in _float_fields(d).items()}
                k.body(d, lo, hi, r, rep)
                diff = {
                    f for f, a in _float_fields(d).items()
                    if a.tobytes() != once[f].tobytes()
                }
                seen |= diff
                for f in diff:
                    getattr(d, f)[...] = once[f]
                d.touch(*diff)
    return changed


def test_reference_order_covers_the_catalogue():
    assert [name for name, _ in REFERENCE_ORDER] == list(KERNELS)


@pytest.mark.parametrize("name", list(KERNELS))
def test_rerun_changes_only_declared_fields(rerun_changes, name):
    k = KERNELS[name]
    if k.idempotent:
        assert rerun_changes[name] == set()
    else:
        assert rerun_changes[name], f"{name} is idempotent after all"
        assert rerun_changes[name] <= set(k.in_place)


def test_entries_name_real_costs_and_reference_paths():
    fields = {f.name for f in dataclasses.fields(KernelCosts)}
    for k in KERNELS.values():
        assert k.cost in fields
        assert k.ref and all(n[0].isupper() for n in k.ref)


def test_lookup_rejects_unknown_names():
    with pytest.raises(KeyError, match="no_such_kernel"):
        lookup(["init_stress", "no_such_kernel"])


def test_program_rejects_unknown_kernel_at_bind_time():
    class Broken(HpxLuleshProgram):
        PHASES = {**HpxLuleshProgram.PHASES, "hg": ("hg_control", "no_such")}

    shape = ProblemShape.from_options(LuleshOptions(nx=4, numReg=2))
    rt = AmtRuntime(MachineConfig(), CostModel(), 2)
    with pytest.raises(KeyError, match="no_such"):
        Broken(rt, shape, DEFAULT_COSTS, 32, 32)


def test_descriptor_kinds_imply_their_kernels():
    assert [k.name for k in TaskSpec("constraints").kernels] == ["courant", "hydro"]
    assert [k.name for k in TaskSpec("bc").kernels] == ["accel_bc"]
    assert TaskSpec("reduce").kernels == () == TaskSpec("sync").kernels
    assert kernels_of(None) == ()
    assert kernels_of(("eos",)) == (KERNELS["eos"],)
