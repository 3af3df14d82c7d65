"""Run modes and results for all three orchestrations.

Two modes, selected by ``execute``:

* **execute=True** — allocates a full :class:`~repro.lulesh.domain.Domain`
  and runs the real NumPy physics through the orchestration's structure.
  Used for correctness (bit-identical fields vs the sequential reference)
  and for the runnable examples.  Simulated timing is still produced.
* **execute=False** — timing-only: the same task/loop structures are built
  with ``None`` bodies and only the cost model runs.  This is how the
  paper-scale experiments (s up to 150, Figs. 9-11) are simulated without
  allocating gigabytes of field arrays.

Iteration counts are explicit (the artifact's ``--i`` flag): simulated
speed-ups are per-iteration quantities, so a handful of iterations
determines them exactly (the simulation is deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.amt.errors import TaskGroupError
from repro.amt.runtime import AmtRuntime
from repro.core.hpx_lulesh import HpxLuleshProgram, HpxVariant
from repro.core.kernel_graph import ProblemShape
from repro.core.naive_hpx import NaiveHpxProgram
from repro.core.omp_lulesh import OmpLuleshProgram
from repro.core.partitioning import table1_partition_sizes
from repro.lulesh.costs import DEFAULT_COSTS, KernelCosts
from repro.lulesh.domain import Domain
from repro.lulesh.errors import LuleshError
from repro.lulesh.options import LuleshOptions
from repro.perf.registry import CounterRegistry
from repro.perf.sources import (
    install_amt_counters,
    install_arena_counters,
    install_graph_counters,
    install_omp_counters,
    install_parallel_counters,
    install_resilience_counters,
)
from repro.resilience.plan import ResiliencePlan
from repro.resilience.recovery import run_with_recovery
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig
from repro.simcore.policy import SchedulerPolicy
from repro.simcore.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (tuning -> driver)
    from repro.tuning.database import TuningDatabase

__all__ = ["RunResult", "run_omp", "run_hpx", "run_naive_hpx"]


def _execute_program(
    program,
    domain: Domain | None,
    iterations: int,
    plan: ResiliencePlan | None,
) -> None:
    """Run *program* with the requested failure semantics.

    Without auto-recovery, a :class:`TaskGroupError` whose failures all
    share one :class:`LuleshError` type is unwrapped so physics aborts keep
    their original exception class (``VolumeError``/``QStopError``) at the
    driver boundary; heterogeneous or injected failures surface as the
    group error naming every failed task tag.  With auto-recovery (execute
    mode only), the run is driven cycle-by-cycle under the checkpoint/
    rollback protocol instead.
    """
    if plan is not None and plan.auto_recover and domain is not None:
        manager = plan.make_recovery(domain)
        assert manager is not None
        try:
            run_with_recovery(
                program.step, domain, iterations, manager,
                stoptime=domain.opts.stoptime,
            )
        finally:
            manager.close()
        return
    try:
        program.run(iterations)
    except TaskGroupError as group:
        cause = group.common_cause(LuleshError)
        if cause is not None:
            raise cause from group
        raise


@dataclass(frozen=True)
class RunResult:
    """Outcome of one orchestrated run.

    Attributes:
        runtime_ns: total simulated wall-clock time.
        iterations: leapfrog cycles executed.
        utilization: productive-time ratio (Fig. 11 quantity).
        n_tasks: tasks executed (AMT) — 0 for the OpenMP structure.
        n_loops: parallel loops issued (OpenMP) — 0 for the AMT runs.
        n_regions: parallel regions entered (OpenMP).
        domain: the physics state (execute mode only).
        trace: merged per-worker trace with task spans (``record_spans``
            AMT runs only) — feeds the phase profiler and critical-path
            analyzer in :mod:`repro.perf`.
    """

    runtime_ns: int
    iterations: int
    utilization: float
    n_tasks: int = 0
    n_loops: int = 0
    n_regions: int = 0
    domain: Domain | None = None
    trace: TraceRecorder | None = None

    @property
    def per_iteration_ns(self) -> float:
        if self.iterations == 0:
            return 0.0
        return self.runtime_ns / self.iterations

    @property
    def runtime_s(self) -> float:
        return self.runtime_ns / 1e9


def _shape_and_domain(
    opts: LuleshOptions, execute: bool
) -> tuple[ProblemShape, Domain | None]:
    if execute:
        domain = Domain(opts)
        return ProblemShape.from_domain(domain), domain
    return ProblemShape.from_options(opts), None


def run_omp(
    opts: LuleshOptions,
    n_threads: int,
    iterations: int,
    machine: MachineConfig | None = None,
    cost_model: CostModel | None = None,
    costs: KernelCosts = DEFAULT_COSTS,
    execute: bool = False,
    omp_schedule: str = "static",
    dynamic_chunk: int | None = None,
    registry: CounterRegistry | None = None,
    task_local_temporaries: bool = True,
    resilience: ResiliencePlan | None = None,
    flight_recorder=None,
) -> RunResult:
    """Run the OpenMP-structured LULESH (the reference baseline).

    ``omp_schedule='dynamic'`` runs the counterfactual where every loop
    uses OpenMP dynamic scheduling instead of the reference's static;
    *dynamic_chunk* pins ``schedule(dynamic, chunk)``'s chunk size (the
    tuner's OpenMP chunking knob; default: modeled auto-chunking).
    With a *registry*, the idle-rate counter family is installed and
    sampled once per iteration.  ``task_local_temporaries=False`` runs the
    allocate-each-time workspace ablation (execute mode only).  A
    *resilience* plan enables fault injection at parallel-region entry and
    checkpoint-based auto-recovery (execute mode).
    """
    machine = machine or MachineConfig()
    cost_model = cost_model or CostModel()
    shape, domain = _shape_and_domain(opts, execute)
    from repro.openmp.runtime import OmpRuntime

    omp = OmpRuntime(machine, cost_model, n_threads, execute_bodies=execute,
                     default_schedule=omp_schedule,
                     dynamic_chunk=dynamic_chunk)
    if resilience is not None:
        omp.fault_injector = resilience.make_injector()
        if flight_recorder is not None:
            resilience.stats.flight_recorder = flight_recorder
    if registry is not None:
        install_omp_counters(registry, omp)
        if domain is not None:
            install_arena_counters(registry, domain)
        if resilience is not None:
            install_resilience_counters(registry, resilience.stats)
    program = OmpLuleshProgram(
        omp, shape, costs, domain, task_local_temporaries=task_local_temporaries
    )
    _execute_program(program, domain, iterations, resilience)
    stats = omp.stats
    done = domain.cycle if domain is not None else iterations
    return RunResult(
        runtime_ns=stats.total_ns,
        iterations=done,
        utilization=stats.utilization(),
        n_loops=stats.n_loops,
        n_regions=stats.n_regions,
        domain=domain,
    )


def run_hpx(
    opts: LuleshOptions,
    n_workers: int,
    iterations: int,
    machine: MachineConfig | None = None,
    cost_model: CostModel | None = None,
    costs: KernelCosts = DEFAULT_COSTS,
    execute: bool = False,
    variant: HpxVariant | None = None,
    nodal_partition: int | None = None,
    elements_partition: int | None = None,
    policy: SchedulerPolicy | None = None,
    balanced_partitions: bool = False,
    tuning: "TuningDatabase | None" = None,
    registry: CounterRegistry | None = None,
    record_spans: bool = False,
    resilience: ResiliencePlan | None = None,
    replay_graph: bool = True,
    flight_recorder=None,
    backend: str = "sim",
    backend_workers: int | None = None,
    supervision=None,
) -> RunResult:
    """Run the paper's task-based LULESH.

    Partition sizes resolve in precedence order: explicit arguments, then
    the *tuning* database (:meth:`~repro.tuning.database.TuningDatabase.
    tuned_partition_sizes` — what ``lulesh-hpx tune`` learned for this
    machine and shape, nearest tuned size for unseen shapes), then the
    static Table I policy for ``opts.nx``.  Pass explicit values for the
    partition-size sweep (E4) and a *policy* for the scheduler-discipline
    ablation; ``balanced_partitions`` spreads each phase's remainder over
    all partitions instead of one short trailing task.  With a *registry*,
    the HPX counter namespace is installed and sampled at every flush (the
    resolved partition sizes are exported as ``/hpx/partition-size/*``);
    ``record_spans`` keeps per-task spans on ``RunResult.trace`` for the
    phase profiler and critical-path analyzer.  A *resilience* plan wires
    fault injection and bounded replay into the runtime, and (execute
    mode) checkpoint-based auto-recovery into the run loop.
    ``replay_graph=False`` disables graph capture & replay — every cycle
    rebuilds its task graph from scratch (the pre-capture behaviour; the
    ``--no-replay-graph`` CLI flag and the tuner's ``replay_graph`` knob).

    ``backend="process"`` (execute mode only) runs warm cycles on real
    cores: a :class:`~repro.parallel.backend.ParallelHpxBackend` lowers the
    captured graph to a wave schedule and drives *backend_workers* (default
    2) shared-memory worker processes with it — bit-identical fields, and
    ``RunResult.runtime_ns`` becomes **measured host wall-clock** instead
    of simulated time (utilization and ``n_tasks`` still describe the
    simulated serial-fallback cycles only).  *supervision* (a
    :class:`~repro.parallel.supervisor.SupervisionConfig`) tunes the
    backend's self-healing — watchdog deadline, respawn budget, and
    whether budget exhaustion degrades to the serial path or fails the
    run.
    """
    if backend not in ("sim", "process"):
        raise ValueError(f"backend must be 'sim' or 'process', got {backend!r}")
    if backend == "process" and not execute:
        raise ValueError(
            "the process backend executes real kernels and requires "
            "execute mode"
        )
    machine = machine or MachineConfig()
    cost_model = cost_model or CostModel()
    variant = variant or HpxVariant.full()
    table_nodal, table_elems = table1_partition_sizes(opts.nx)
    if tuning is not None and (
        nodal_partition is None or elements_partition is None
    ):
        tuned = tuning.tuned_partition_sizes(
            machine, "hpx", opts.nx, opts.numReg, n_workers
        )
        if tuned is not None:
            table_nodal, table_elems = tuned
    shape, domain = _shape_and_domain(opts, execute)
    rt = AmtRuntime(
        machine, cost_model, n_workers, policy=policy,
        record_spans=record_spans,
        fault_injector=resilience.make_injector() if resilience else None,
        replay=resilience.make_replay() if resilience else None,
        flight_recorder=flight_recorder,
    )
    if resilience is not None and flight_recorder is not None:
        resilience.stats.flight_recorder = flight_recorder
    resolved_nodal = nodal_partition or table_nodal
    resolved_elems = elements_partition or table_elems
    if registry is not None:
        install_amt_counters(registry, rt)
        registry.register_gauge(
            "/hpx/partition-size/nodal",
            lambda: resolved_nodal,
            description="resolved LagrangeNodal partition size for this run",
        )
        registry.register_gauge(
            "/hpx/partition-size/elements",
            lambda: resolved_elems,
            description="resolved LagrangeElements partition size for this run",
        )
        if domain is not None:
            install_arena_counters(registry, domain)
        if resilience is not None:
            install_resilience_counters(registry, resilience.stats)
    program = HpxLuleshProgram(
        rt,
        shape,
        costs,
        nodal_partition=resolved_nodal,
        elements_partition=resolved_elems,
        domain=domain,
        variant=variant,
        balanced_partitions=balanced_partitions,
        replay_graph=replay_graph,
        backend=backend,
        backend_workers=(backend_workers or 2) if backend == "process" else None,
    )
    if registry is not None:
        install_graph_counters(registry, program.graph_stats)
    backend_obj = None
    if backend == "process":
        from repro.parallel import ParallelHpxBackend

        backend_obj = ParallelHpxBackend(
            program, workers=backend_workers or 2,
            flight_recorder=flight_recorder,
            supervision=supervision,
        )
        if registry is not None:
            install_parallel_counters(
                registry, backend_obj.stats,
                supervision=backend_obj.supervisor.stats,
            )
    try:
        _execute_program(backend_obj or program, domain, iterations, resilience)
        if backend_obj is not None and registry is not None:
            # Warm parallel cycles never flush the DES, so the flush-hook
            # sampler stops after the capture cycle; take one closing sample
            # so /parallel/* gauges reflect the finished run.  The wall clock
            # extends the simulated timeline to keep sample times monotone.
            registry.sample(rt.stats.total_ns + backend_obj.stats.wall_ns)
    finally:
        if backend_obj is not None:
            backend_obj.close()
    stats = rt.stats
    done = domain.cycle if domain is not None else iterations
    if backend_obj is not None:
        return RunResult(
            runtime_ns=backend_obj.stats.wall_ns,
            iterations=done,
            utilization=stats.utilization(),
            n_tasks=stats.n_tasks,
            domain=domain,
            trace=stats.trace if record_spans else None,
        )
    return RunResult(
        runtime_ns=stats.total_ns,
        iterations=done,
        utilization=stats.utilization(),
        n_tasks=stats.n_tasks,
        domain=domain,
        trace=stats.trace if record_spans else None,
    )


def run_naive_hpx(
    opts: LuleshOptions,
    n_workers: int,
    iterations: int,
    machine: MachineConfig | None = None,
    cost_model: CostModel | None = None,
    costs: KernelCosts = DEFAULT_COSTS,
    execute: bool = False,
    registry: CounterRegistry | None = None,
    record_spans: bool = False,
    resilience: ResiliencePlan | None = None,
    replay_graph: bool = True,
    flight_recorder=None,
) -> RunResult:
    """Run the prior-work [16] for_each-style port.

    ``replay_graph`` works as in :func:`run_hpx`: the first cycle's loop
    graph is captured and re-fired on subsequent cycles.
    """
    machine = machine or MachineConfig()
    cost_model = cost_model or CostModel()
    shape, domain = _shape_and_domain(opts, execute)
    rt = AmtRuntime(
        machine, cost_model, n_workers, record_spans=record_spans,
        fault_injector=resilience.make_injector() if resilience else None,
        replay=resilience.make_replay() if resilience else None,
        flight_recorder=flight_recorder,
    )
    if resilience is not None and flight_recorder is not None:
        resilience.stats.flight_recorder = flight_recorder
    if registry is not None:
        install_amt_counters(registry, rt)
        if domain is not None:
            install_arena_counters(registry, domain)
        if resilience is not None:
            install_resilience_counters(registry, resilience.stats)
    program = NaiveHpxProgram(rt, shape, costs, domain,
                              replay_graph=replay_graph)
    if registry is not None:
        install_graph_counters(registry, program.graph_stats)
    _execute_program(program, domain, iterations, resilience)
    stats = rt.stats
    done = domain.cycle if domain is not None else iterations
    return RunResult(
        runtime_ns=stats.total_ns,
        iterations=done,
        utilization=stats.utilization(),
        n_tasks=stats.n_tasks,
        domain=domain,
        trace=stats.trace if record_spans else None,
    )
