"""Lower a captured :class:`~repro.amt.graph.GraphTemplate` to waves.

Workers never receive pickled closures: the captured tasks' bodies close
over the *main* process's Domain and futures, so they cannot run remotely.
Instead, every task the HPX program creates carries a
:class:`~repro.lulesh.catalogue.TaskSpec` descriptor (``SimTask.desc``):
plain, picklable data naming the catalogue kernels it runs over which
``[lo, hi)`` range.  This module collects those descriptors, assigns every
task a topological *level* from the template's dependency edges
(``SimTask.parents``), and groups the levels into :class:`Wave`\\ s.  A
wave's tasks are mutually independent by construction, so they may run
concurrently on real cores; waves execute in order with a full join
between them — strictly stronger than the DAG, so every dependency edge of
the simulated schedule is respected.  A task without a descriptor cannot
be lowered: :func:`lower_template` raises
:class:`~repro.parallel.errors.PlanLoweringError`.

Execution dispatch is **by index into the spec table** (shipped to workers
once per lowering), and a worker executes a spec through the catalogue
bodies the simulated backend runs, over the same ``[lo, hi)`` ranges,
against shared-memory field views — which is what makes the process
backend bit-identical to the single-process path.

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

from dataclasses import dataclass, field

from repro.lulesh.catalogue import TaskSpec
from repro.parallel.errors import PlanLoweringError

__all__ = [
    "TaskSpec",
    "Wave",
    "ParallelSchedule",
    "lower_template",
    "assign_waves",
    "execute_spec",
    "spec_is_idempotent",
]


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


def lower_template(template) -> ParallelSchedule:
    """Lower *template* to a :class:`ParallelSchedule`.

    Levels come from in-segment ``SimTask.parents`` edges (``level = 1 +
    max(parent levels)``; creation order is a valid topological order, so a
    single pass suffices).  Cross-segment dependencies need no edges:
    segments are flush boundaries and execute strictly in order.  Sync
    tasks occupy levels (keeping their children correctly ordered) but emit
    no specs; empty levels are elided.  Every task must carry a
    :class:`TaskSpec` descriptor.
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
            spec = task.desc
            if not isinstance(spec, TaskSpec):
                raise PlanLoweringError(
                    f"task {task.tag!r} carries no task descriptor"
                )
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
    schedule: ParallelSchedule, n_workers: int
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Static per-wave worker assignment: ``result[wave][worker] -> indices``.

    Deterministic longest-processing-time greedy over the capture-time
    simulated cost of each spec.  The backend packs once per lowering, so
    every replay of a template dispatches each spec to the same worker.
    """
    if n_workers < 1:
        raise PlanLoweringError(f"n_workers must be >= 1, got {n_workers}")
    costs = schedule.costs
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
    combined tasks.  ``constraints`` and ``bc`` run idempotent kernels;
    ``reduce``/``sync`` run none.
    """
    return all(k.idempotent for k in spec.kernels)


def execute_spec(domain, spec: TaskSpec):
    """Run one spec against *domain*; constraint specs return partials.

    The execution path is shared between workers (parallel specs) and the
    main process (serial ``bc``); ``reduce`` and ``sync`` specs carry no
    directly executable body and are handled by the backend.
    """
    if spec.kind in ("reduce", "sync"):
        raise PlanLoweringError(f"spec kind {spec.kind!r} has no direct body")
    out = [
        k.body(domain, spec.lo, spec.hi, spec.region, spec.rep)
        for k in spec.kernels
    ]
    return tuple(out) if spec.kind == "constraints" else None
