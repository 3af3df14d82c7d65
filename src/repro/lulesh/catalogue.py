"""The kernel catalogue: one entry per kernel the orchestrations run.

Every port — the task-based HPX program, the naive ``for_each`` port and
the OpenMP-structured port — takes a kernel's body, cost key, temporaries
count and idempotency from here, and so does every layer that needs to
know what a task does: the process backend's lowering and workers, the
wave-retry shadow, and the fault injector.

Each HPX task carries a :class:`TaskSpec` descriptor, built once when the
task is created; the task's tag is a rendering of it.  The loop ports'
chunks and regions carry the tuple of kernel names they run instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

from repro.lulesh.kernels import constraints as con_k
from repro.lulesh.kernels import eos as eos_k
from repro.lulesh.kernels import hourglass as hg_k
from repro.lulesh.kernels import kinematics as kin_k
from repro.lulesh.kernels import nodal as nodal_k
from repro.lulesh.kernels import qcalc as q_k
from repro.lulesh.kernels import stress as stress_k

__all__ = ["Kernel", "KERNELS", "TaskSpec", "lookup", "kernels_of"]


@dataclass(frozen=True)
class Kernel:
    """One kernel.

    ``ref`` is the LULESH 2.0 call path below ``LagrangeLeapFrog`` down to
    the code the kernel runs; fault patterns match any name on it.
    ``cost`` names the :class:`~repro.lulesh.costs.KernelCosts` rate and
    ``temps`` the temporary arrays one invocation of the reference kernel
    allocates: the simulated allocator charges ``temps * n * 8`` bytes for
    a task of ``n`` items.  It does not count the NumPy port's scratch,
    which the workspace arena holds.  ``in_place`` lists the fields the
    kernel reads and rewrites: a second run over the same range changes
    them again, so such a kernel is not idempotent.
    ``body(domain, lo, hi, region, rep)`` runs it over ``[lo, hi)`` (of
    ``region``'s element list for the per-region kernels); it reaches the
    kernel function through its module attribute at call time.
    """

    name: str
    ref: tuple[str, ...]
    cost: str
    body: Callable[..., object]
    temps: int = 0
    in_place: tuple[str, ...] = ()

    @property
    def idempotent(self) -> bool:
        return not self.in_place

    def rate(self, costs) -> float:
        """Simulated ns per item under *costs*."""
        return getattr(costs, self.cost)


def _zero_forces(d, lo, hi, r, rep):
    d.fx[lo:hi] = 0.0
    d.fy[lo:hi] = 0.0
    d.fz[lo:hi] = 0.0


def _lst(d, r):
    return d.regions.reg_elem_lists[r]


_NODAL = ("LagrangeNodal",)
_FORCE = _NODAL + ("CalcForceForNodes",)
_VOLUME_FORCE = _FORCE + ("CalcVolumeForceForElems",)
_ELEMS = ("LagrangeElements",)
_LAGRANGE = _ELEMS + ("CalcLagrangeElements",)
_Q = _ELEMS + ("CalcQForElems",)
_MATERIAL = _ELEMS + ("ApplyMaterialPropertiesForElems",)
_TIME = ("CalcTimeConstraintsForElems",)

# The timestep is read at execution time, not bound when a graph is built:
# nothing changes ``deltatime`` mid-cycle, so a replayed graph stays right.
KERNELS: dict[str, Kernel] = {k.name: k for k in (
    Kernel("zero_forces", _FORCE, "zero_forces", _zero_forces),
    Kernel("init_stress", _VOLUME_FORCE + ("InitStressTermsForElems",),
           "init_stress",
           lambda d, lo, hi, r, rep: stress_k.init_stress_terms(d, lo, hi)),
    Kernel("integrate_stress", _VOLUME_FORCE + ("IntegrateStressForElems",),
           "integrate_stress",
           lambda d, lo, hi, r, rep: stress_k.integrate_stress(d, lo, hi),
           temps=4),
    Kernel("hg_control", _VOLUME_FORCE + ("CalcHourglassControlForElems",),
           "hourglass_control",
           lambda d, lo, hi, r, rep: hg_k.calc_hourglass_control(d, lo, hi),
           temps=7),
    Kernel("fb_hourglass", _VOLUME_FORCE + (
               "CalcHourglassControlForElems", "CalcFBHourglassForceForElems"),
           "fb_hourglass",
           lambda d, lo, hi, r, rep: hg_k.calc_fb_hourglass_force(d, lo, hi),
           temps=2),
    # Gathers both per-corner force buffers: the node halves of
    # IntegrateStressForElems and CalcFBHourglassForceForElems.
    Kernel("sum_forces", _VOLUME_FORCE, "sum_forces",
           lambda d, lo, hi, r, rep: nodal_k.sum_elem_forces_to_nodes(d, lo, hi)),
    Kernel("acceleration", _NODAL + ("CalcAccelerationForNodes",),
           "acceleration",
           lambda d, lo, hi, r, rep: nodal_k.calc_acceleration(d, lo, hi)),
    Kernel("accel_bc", _NODAL + ("ApplyAccelerationBoundaryConditionsForNodes",),
           "accel_bc",
           lambda d, lo, hi, r, rep: nodal_k.apply_acceleration_bc(d)),
    Kernel("velocity", _NODAL + ("CalcVelocityForNodes",), "velocity",
           lambda d, lo, hi, r, rep: nodal_k.calc_velocity_dt(
               d, d.deltatime, lo, hi),
           in_place=("xd", "yd", "zd")),
    Kernel("position", _NODAL + ("CalcPositionForNodes",), "position",
           lambda d, lo, hi, r, rep: nodal_k.calc_position_dt(
               d, d.deltatime, lo, hi),
           in_place=("x", "y", "z")),
    Kernel("kinematics", _LAGRANGE + ("CalcKinematicsForElems",), "kinematics",
           lambda d, lo, hi, r, rep: kin_k.calc_kinematics_dt(
               d, d.deltatime, lo, hi),
           temps=2),
    # vdov and the deviatoric strain-rate diagonals, in CalcLagrangeElements
    Kernel("strain_rates", _LAGRANGE, "strain_rates",
           lambda d, lo, hi, r, rep: kin_k.calc_lagrange_elements_part2(
               d, lo, hi),
           in_place=("vdov", "dxx", "dyy", "dzz")),
    Kernel("monoq_gradients", _Q + ("CalcMonotonicQGradientsForElems",),
           "monoq_gradients",
           lambda d, lo, hi, r, rep: q_k.calc_monotonic_q_gradients(d, lo, hi)),
    Kernel("monoq_region", _Q + (
               "CalcMonotonicQForElems", "CalcMonotonicQRegionForElems"),
           "monoq_region",
           lambda d, lo, hi, r, rep: q_k.calc_monotonic_q_region(
               d, _lst(d, r), lo, hi),
           temps=3),
    Kernel("qstop_check", _Q, "qstop_check",
           lambda d, lo, hi, r, rep: q_k.check_q_stop(d, lo, hi)),
    Kernel("material_prologue", _MATERIAL, "material_prologue",
           lambda d, lo, hi, r, rep: eos_k.apply_material_properties_prologue(
               d, lo, hi),
           temps=1),
    # Rate is per repetition: a region's EOS costs eos_eval * rep.
    Kernel("eos", _MATERIAL + ("EvalEOSForElems", "CalcEnergyForElems"),
           "eos_eval",
           lambda d, lo, hi, r, rep: eos_k.eval_eos_region(
               d, _lst(d, r), rep, lo, hi),
           temps=12, in_place=("e", "p", "q", "ss")),
    Kernel("update_volumes", _ELEMS + ("UpdateVolumesForElems",),
           "update_volumes",
           lambda d, lo, hi, r, rep: eos_k.update_volumes(d, lo, hi)),
    Kernel("courant", _TIME + ("CalcCourantConstraintForElems",), "courant",
           lambda d, lo, hi, r, rep: con_k.calc_courant_constraint(
               d, _lst(d, r), lo, hi)),
    Kernel("hydro", _TIME + ("CalcHydroConstraintForElems",), "hydro",
           lambda d, lo, hi, r, rep: con_k.calc_hydro_constraint(
               d, _lst(d, r), lo, hi)),
)}

#: Kernels a descriptor kind runs without naming them.
_KIND_KERNELS = {"constraints": ("courant", "hydro"), "bc": ("accel_bc",)}


def lookup(names: Iterable[str]) -> tuple[Kernel, ...]:
    """The catalogue entries for *names*; an unknown name raises KeyError."""
    try:
        return tuple(KERNELS[n] for n in names)
    except KeyError as exc:
        raise KeyError(f"unknown kernel {exc.args[0]!r}") from None


class TaskSpec(NamedTuple):
    """One HPX task's descriptor: plain, immutable, picklable data.

    A named tuple rather than a frozen dataclass because every captured
    task builds one: it constructs about five times faster.

    ``kind`` is one of ``kernels`` / ``region`` / ``constraints`` / ``bc``
    / ``reduce`` / ``sync``.  ``names`` are the kernels run in order over
    ``[lo, hi)``; ``region`` qualifies the per-region kinds and ``rep``
    is the EOS repetition count (0 unless ``eos`` is among ``names``).
    """

    kind: str
    names: tuple[str, ...] = ()
    lo: int = 0
    hi: int = 0
    region: int = -1
    rep: int = 0

    @property
    def kernels(self) -> tuple[Kernel, ...]:
        """Every kernel the task runs, in order."""
        return lookup(self.names or _KIND_KERNELS.get(self.kind, ()))

    def tag(self, label: str = "") -> str:
        """The task tag: *label* names a ``kernels`` task's phase, or is a
        ``sync`` task's whole tag."""
        rng = f"[{self.lo}:{self.hi}]"
        if self.kind == "kernels":
            return f"{label}:{'+'.join(self.names)}{rng}"
        if self.kind == "region":
            names = "+".join(
                f"eos[x{self.rep}]" if n == "eos" else n for n in self.names
            )
            return f"region{self.region}:{names}{rng}"
        if self.kind == "constraints":
            return f"constraints[{self.region}]{rng}"
        return {"bc": "accel_bc", "reduce": "reduce_dt", "sync": label}[self.kind]


def kernels_of(desc) -> tuple[Kernel, ...]:
    """The kernels a task or region runs, from what it carries: a
    :class:`TaskSpec`, a tuple of kernel names, or ``None``."""
    if isinstance(desc, TaskSpec):
        return desc.kernels
    return lookup(desc or ())
