"""Lower a captured :class:`~repro.amt.graph.GraphTemplate` to waves.

Workers never receive pickled closures: the captured tasks' bodies close
over the *main* process's Domain and futures, so they cannot run remotely.
Instead, every task **tag** the HPX program emits encodes exactly what the
task does — ``{phase}:{kernel+kernel}[lo:hi]``, ``region{r}:...[lo:hi]``,
``constraints[r][lo:hi]``, ``accel_bc``, ``reduce_dt``, plus pure
synchronization nodes (barriers/gates) that carry no work.  This module
parses that closed grammar into :class:`TaskSpec` values (plain, picklable
data), assigns every task a topological *level* from the template's
dependency edges (``SimTask.parents``), and groups the levels into
:class:`Wave`\\ s.  A wave's tasks are mutually independent by
construction, so they may run concurrently on real cores; waves execute in
order with a full join between them — strictly stronger than the DAG, so
every dependency edge of the simulated schedule is respected.

Execution dispatch is **by index into the spec table** (shipped to workers
once per lowering), and a worker executes a spec through the same kernel
functions the simulated backend binds (imported from
:mod:`repro.core.hpx_lulesh`), over the same ``[lo, hi)`` ranges, against
shared-memory field views — which is what makes the process backend
bit-identical to the single-process path.

Three task kinds never go to workers:

* ``bc`` (``apply_acceleration_bc``) — serial in the reference too; runs
  in the main process at its wave position;
* ``reduce`` (``reduce_dt``) — the constraint min-reduction; workers return
  per-partition ``(courant, hydro)`` partials and the main process folds
  them in spec order (the captured graph's fold order);
* ``sync`` — barriers/gates/when-alls: pure graph structure, dropped (the
  wave join subsumes them).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.core.hpx_lulesh import (
    _kinematics_body,
    _position_body,
    _velocity_body,
    _zero_forces_body,
)
from repro.lulesh.kernels import eos as eos_k
from repro.lulesh.kernels import hourglass as hg_k
from repro.lulesh.kernels import kinematics as kin_k
from repro.lulesh.kernels import nodal as nodal_k
from repro.lulesh.kernels import qcalc as q_k
from repro.lulesh.kernels import stress as stress_k
from repro.lulesh.kernels.constraints import (
    calc_courant_constraint,
    calc_hydro_constraint,
)
from repro.parallel.errors import PlanLoweringError

__all__ = [
    "KERNEL_BODIES",
    "KERNEL_IDEMPOTENT",
    "TaskSpec",
    "Wave",
    "ParallelSchedule",
    "parse_task_tag",
    "lower_template",
    "assign_waves",
    "execute_spec",
    "spec_is_idempotent",
]

#: Worker-side kernel table: the same functions the simulated backend binds
#: in ``HpxLuleshProgram.__init__``, keyed by the kernel names its tags use.
KERNEL_BODIES = {
    "init_stress": stress_k.init_stress_terms,
    "integrate_stress": stress_k.integrate_stress,
    "hg_control": hg_k.calc_hourglass_control,
    "fb_hourglass": hg_k.calc_fb_hourglass_force,
    "zero_forces": _zero_forces_body,
    "sum_forces": nodal_k.sum_elem_forces_to_nodes,
    "acceleration": nodal_k.calc_acceleration,
    "velocity": _velocity_body,
    "position": _position_body,
    "kinematics": _kinematics_body,
    "strain_rates": kin_k.calc_lagrange_elements_part2,
    "monoq_gradients": q_k.calc_monotonic_q_gradients,
    "material_prologue": eos_k.apply_material_properties_prologue,
    "qstop_check": q_k.check_q_stop,
    "update_volumes": eos_k.update_volumes,
}

#: Per-kernel idempotency, mirroring the ``idempotent=`` flags
#: ``HpxLuleshProgram.__init__`` sets on its ``_Kernel`` bindings (the same
#: flags the resilience layer's bounded replay consults).  A kernel is
#: idempotent when re-running it over the same ``[lo, hi)`` range from the
#: current field state reproduces the same result — i.e. it only writes
#: values computed from fields it does not modify.  The read-modify-write
#: kernels (``velocity``/``position`` accumulate ``+= dt * rate``,
#: ``strain_rates`` subtracts ``vdov/3`` in place, ``eos`` feeds back
#: ``e``/``p``/``q``) are the ones whose written slices the wave-retry
#: shadow buffer must snapshot (:mod:`repro.parallel.shadow`).
#: ``tests/parallel/test_shadow.py`` locks this table against the program
#: bindings so the two sources of truth cannot drift.
KERNEL_IDEMPOTENT = {
    "init_stress": True,
    "integrate_stress": True,
    "hg_control": True,
    "fb_hourglass": True,
    "zero_forces": True,
    "sum_forces": True,
    "acceleration": True,
    "velocity": False,
    "position": False,
    "kinematics": True,
    "strain_rates": False,
    "monoq_gradients": True,
    "material_prologue": True,
    "qstop_check": True,
    "update_volumes": True,
    # region kinds (not in KERNEL_BODIES: dispatched via execute_spec)
    "monoq_region": True,
    "eos": False,
}

_SYNC_RE = re.compile(
    r"^(B\d+:.*|region_gate\[\d+\]|dataflow-gate|when_all|ready|exceptional)$"
)
_WORK_RE = re.compile(
    r"^(?:stress|hg|node|velpos|kin|prologue|k):(.+)\[(\d+):(\d+)\]$"
)
_REGION_RE = re.compile(r"^region(\d+):(.+)\[(\d+):(\d+)\]$")
_CONSTR_RE = re.compile(r"^constraints\[(\d+)\]\[(\d+):(\d+)\]$")
_EOS_RE = re.compile(r"^eos\[x(\d+)\]$")


@dataclass(frozen=True)
class TaskSpec:
    """One lowered task: plain picklable data, dispatched by index.

    ``kind`` is one of ``kernels`` / ``region`` / ``constraints`` / ``bc``
    / ``reduce`` / ``sync``.  ``names`` are kernel names executed in order
    (the captured chain order); ``region``/``rep`` qualify the per-region
    kinds.
    """

    kind: str
    names: tuple[str, ...] = ()
    lo: int = 0
    hi: int = 0
    region: int = -1
    rep: int = 0


@dataclass(frozen=True)
class Wave:
    """One level of mutually independent tasks (spec indices)."""

    parallel: tuple[int, ...]
    serial: tuple[int, ...]


@dataclass(frozen=True)
class ParallelSchedule:
    """A template lowered to an executable wave plan."""

    specs: tuple[TaskSpec, ...]
    costs: tuple[int, ...] = field(repr=False, default=())
    waves: tuple[Wave, ...] = ()

    @property
    def n_parallel_tasks(self) -> int:
        return sum(len(w.parallel) for w in self.waves)

    @property
    def n_waves(self) -> int:
        return len(self.waves)


def parse_task_tag(tag: str) -> TaskSpec:
    """Parse one captured task tag into a :class:`TaskSpec`.

    The tag grammar is closed; anything unrecognized raises
    :class:`~repro.parallel.errors.PlanLoweringError`.
    """
    if _SYNC_RE.match(tag):
        return TaskSpec("sync")
    if tag == "accel_bc":
        return TaskSpec("bc")
    if tag == "reduce_dt":
        return TaskSpec("reduce")
    m = _CONSTR_RE.match(tag)
    if m:
        return TaskSpec(
            "constraints", region=int(m[1]), lo=int(m[2]), hi=int(m[3])
        )
    m = _REGION_RE.match(tag)
    if m:
        names = tuple(m[2].split("+"))
        rep = 0
        for nm in names:
            em = _EOS_RE.match(nm)
            if em:
                rep = int(em[1])
            elif nm != "monoq_region":
                raise PlanLoweringError(
                    f"unknown region kernel {nm!r} in task tag {tag!r}"
                )
        return TaskSpec(
            "region", names=names, lo=int(m[3]), hi=int(m[4]),
            region=int(m[1]), rep=rep,
        )
    m = _WORK_RE.match(tag)
    if m:
        names = tuple(m[1].split("+"))
        for nm in names:
            if nm not in KERNEL_BODIES:
                raise PlanLoweringError(
                    f"unknown kernel {nm!r} in task tag {tag!r}"
                )
        return TaskSpec("kernels", names=names, lo=int(m[2]), hi=int(m[3]))
    raise PlanLoweringError(f"cannot lower task tag {tag!r}")


def lower_template(template) -> ParallelSchedule:
    """Lower *template* to a :class:`ParallelSchedule`.

    Levels come from in-segment ``SimTask.parents`` edges (``level = 1 +
    max(parent levels)``; creation order is a valid topological order, so a
    single pass suffices).  Cross-segment dependencies need no edges:
    segments are flush boundaries and execute strictly in order.  Sync
    tasks occupy levels (keeping their children correctly ordered) but emit
    no specs; empty levels are elided.
    """
    specs: list[TaskSpec] = []
    costs: list[int] = []
    waves: list[Wave] = []
    for seg in template.segments:
        levels: dict[int, int] = {}
        buckets: dict[int, tuple[list[int], list[int]]] = {}
        for ti, task in enumerate(seg.tasks):
            lvl = 0
            for parent in task.parents:
                plvl = levels.get(id(parent))
                if plvl is not None:
                    lvl = max(lvl, plvl + 1)
            levels[id(task)] = lvl
            spec = parse_task_tag(task.tag)
            if spec.kind == "sync":
                continue
            idx = len(specs)
            specs.append(spec)
            costs.append(seg.costs[ti])
            par, ser = buckets.setdefault(lvl, ([], []))
            if spec.kind in ("bc", "reduce"):
                ser.append(idx)
            else:
                par.append(idx)
        for lvl in sorted(buckets):
            par, ser = buckets[lvl]
            waves.append(Wave(tuple(par), tuple(ser)))
    return ParallelSchedule(tuple(specs), tuple(costs), tuple(waves))


def assign_waves(
    schedule: ParallelSchedule,
    n_workers: int,
    costs: tuple[int, ...] | None = None,
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Static per-wave worker assignment: ``result[wave][worker] -> indices``.

    Deterministic longest-processing-time greedy over per-spec costs —
    capture-time simulated costs by default, or *costs* (the backend
    passes an EMA of measured per-spec durations once every parallel spec
    has been timed at least once, so LPT packs on real behavior rather
    than the cost model's guess).
    """
    if n_workers < 1:
        raise PlanLoweringError(f"n_workers must be >= 1, got {n_workers}")
    if costs is None:
        costs = schedule.costs
    elif len(costs) != len(schedule.specs):
        raise PlanLoweringError(
            f"cost override has {len(costs)} entries for "
            f"{len(schedule.specs)} specs"
        )
    out = []
    for wave in schedule.waves:
        loads = [0] * n_workers
        buckets: list[list[int]] = [[] for _ in range(n_workers)]
        for idx in sorted(wave.parallel, key=lambda i: (-costs[i], i)):
            w = min(range(n_workers), key=lambda j: (loads[j], j))
            loads[w] += costs[idx]
            buckets[w].append(idx)
        out.append(tuple(tuple(b) for b in buckets))
    return tuple(out)


def spec_is_idempotent(spec: TaskSpec) -> bool:
    """Whether re-executing *spec* from current field state is safe as-is.

    A combined spec (chained/fused kernels) is idempotent only when every
    member kernel is — the same rule the resilience layer applies to
    combined tasks.  Serial kinds: ``constraints`` is a pure read,
    ``bc`` writes constants, ``reduce``/``sync`` touch no fields.
    """
    if spec.kind in ("constraints", "bc", "reduce", "sync"):
        return True
    names = []
    for nm in spec.names:
        names.append("eos" if _EOS_RE.match(nm) else nm)
    return all(KERNEL_IDEMPOTENT[nm] for nm in names)


def execute_spec(domain, spec: TaskSpec):
    """Run one spec against *domain*; constraint specs return partials.

    The execution path is shared between workers (parallel specs) and the
    main process (serial ``bc``); ``reduce`` and ``sync`` specs carry no
    directly executable body and are handled by the backend.
    """
    if spec.kind == "kernels":
        for nm in spec.names:
            KERNEL_BODIES[nm](domain, spec.lo, spec.hi)
        return None
    if spec.kind == "region":
        lst = domain.regions.reg_elem_lists[spec.region]
        for nm in spec.names:
            if nm == "monoq_region":
                q_k.calc_monotonic_q_region(domain, lst, spec.lo, spec.hi)
            else:
                eos_k.eval_eos_region(domain, lst, spec.rep, spec.lo, spec.hi)
        return None
    if spec.kind == "constraints":
        lst = domain.regions.reg_elem_lists[spec.region]
        return (
            calc_courant_constraint(domain, lst, spec.lo, spec.hi),
            calc_hydro_constraint(domain, lst, spec.lo, spec.hi),
        )
    if spec.kind == "bc":
        nodal_k.apply_acceleration_bc(domain)
        return None
    raise PlanLoweringError(f"spec kind {spec.kind!r} has no direct body")
