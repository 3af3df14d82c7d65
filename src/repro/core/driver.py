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

Each ``run_*`` builds one :class:`~repro.core.session.Session` for the
call, runs it and closes it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.hpx_lulesh import HpxVariant
from repro.core.session import RunResult, Session
from repro.lulesh.costs import DEFAULT_COSTS, KernelCosts
from repro.lulesh.options import LuleshOptions
from repro.obs.registry import CounterRegistry
from repro.resilience.plan import ResiliencePlan
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig
from repro.simcore.policy import SchedulerPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (tuning -> driver)
    from repro.tuning.database import TuningDatabase

__all__ = ["RunResult", "run_omp", "run_hpx", "run_naive_hpx"]


def _run(session: Session, iterations: int, **observers) -> RunResult:
    with session:
        return session.run(iterations, **observers)


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
    session = Session(
        "omp", opts, n_threads, execute=execute, machine=machine,
        cost_model=cost_model, costs=costs, omp_schedule=omp_schedule,
        dynamic_chunk=dynamic_chunk,
        task_local_temporaries=task_local_temporaries,
    )
    return _run(session, iterations, registry=registry,
                resilience=resilience, flight_recorder=flight_recorder)


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

    ``backend="process"`` (execute mode only) replays warm cycles on real
    cores: a :class:`~repro.parallel.backend.ParallelHpxBackend` becomes
    the program's replay engine, lowers each captured template to a wave
    schedule and drives *backend_workers* (default 2) shared-memory worker
    processes with it — bit-identical fields, and ``RunResult.runtime_ns``
    becomes **measured host wall-clock** instead of simulated time
    (utilization and ``n_tasks`` still describe the cycles that fell back
    to the simulated pool only).  *supervision* (a
    :class:`~repro.parallel.supervisor.SupervisionConfig`) tunes the
    backend's self-healing — watchdog deadline, respawn budget, and
    whether budget exhaustion degrades to the serial path or fails the
    run.
    """
    session = Session(
        "hpx", opts, n_workers, execute=execute, machine=machine,
        cost_model=cost_model, costs=costs, variant=variant,
        nodal_partition=nodal_partition,
        elements_partition=elements_partition, tuning=tuning,
        balanced_partitions=balanced_partitions, policy=policy,
        replay_graph=replay_graph, record_spans=record_spans,
        backend=backend, workers=backend_workers, supervision=supervision,
        flight_recorder=flight_recorder,
    )
    return _run(session, iterations, registry=registry,
                resilience=resilience, flight_recorder=flight_recorder)


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
    session = Session(
        "naive", opts, n_workers, execute=execute, machine=machine,
        cost_model=cost_model, costs=costs, replay_graph=replay_graph,
        record_spans=record_spans, flight_recorder=flight_recorder,
    )
    return _run(session, iterations, registry=registry,
                resilience=resilience, flight_recorder=flight_recorder)
