"""One run path: build a run's stack once, run it, rewind it for the next.

A :class:`Session` turns a run description (impl, problem options,
threads and the orchestration's knobs) into a runtime, a LULESH program
and, for the process backend, a shared-memory worker pool.  It is the
only place that builds these for a run or installs a run's counters:
:func:`repro.core.driver.run_hpx` and its siblings build one session per
call, and a campaign's :class:`~repro.serve.executor.WarmExecutor` keeps
one per executor key and rewinds it in place between jobs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.amt.errors import TaskGroupError
from repro.amt.runtime import AmtRuntime
from repro.core.hpx_lulesh import HpxLuleshProgram, HpxVariant
from repro.core.kernel_graph import ProblemShape
from repro.core.naive_hpx import NaiveHpxProgram
from repro.core.omp_lulesh import OmpLuleshProgram
from repro.core.partitioning import resolve_partition_sizes
from repro.lulesh.checkpoint import restore_state, snapshot_state
from repro.lulesh.costs import DEFAULT_COSTS, KernelCosts
from repro.lulesh.domain import Domain
from repro.lulesh.errors import LuleshError
from repro.lulesh.options import LuleshOptions
from repro.obs.registry import CounterRegistry
from repro.obs.sources import (
    install_amt_counters,
    install_arena_counters,
    install_graph_counters,
    install_omp_counters,
    install_parallel_counters,
    install_resilience_counters,
)
from repro.openmp.runtime import OmpRuntime
from repro.resilience.plan import ResiliencePlan
from repro.resilience.recovery import run_with_recovery
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig
from repro.simcore.policy import SchedulerPolicy
from repro.simcore.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (tuning -> driver)
    from repro.tuning.database import TuningDatabase

__all__ = ["RunResult", "Session"]


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
            analyzer in :mod:`repro.obs`.
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


class Session:
    """One run's runtime, program and backend, reusable after a rewind.

    *impl* is ``hpx``, ``naive`` or ``omp``; the keyword arguments are
    the knobs of :func:`~repro.core.driver.run_hpx`,
    :func:`~repro.core.driver.run_naive_hpx` and
    :func:`~repro.core.driver.run_omp`, each read only by the impl that
    has it.  Partition sizes resolve through
    :func:`~repro.core.partitioning.resolve_partition_sizes`.
    *flight_recorder* reaches the runtime and, at construction, the
    process backend (whose ``parallel_start`` event it records).  Every
    impl builds its runtime and program once, so an OpenMP session keeps
    its runtime's loop-cost memo and its program's timing-only cycle
    (:class:`~repro.core.omp_lulesh.OmpLuleshProgram`) across runs.  An
    execute session copies its domain's initial state, which
    :meth:`rewind` restores.
    """

    def __init__(
        self,
        impl: str,
        opts: LuleshOptions,
        threads: int,
        *,
        execute: bool = False,
        machine: MachineConfig | None = None,
        cost_model: CostModel | None = None,
        costs: KernelCosts = DEFAULT_COSTS,
        variant: HpxVariant | None = None,
        nodal_partition: int | None = None,
        elements_partition: int | None = None,
        tuning: "TuningDatabase | None" = None,
        balanced_partitions: bool = False,
        policy: SchedulerPolicy | None = None,
        replay_graph: bool = True,
        record_spans: bool = False,
        backend: str = "sim",
        workers: int | None = None,
        supervision=None,
        omp_schedule: str = "static",
        dynamic_chunk: int | None = None,
        task_local_temporaries: bool = True,
        flight_recorder=None,
    ) -> None:
        if backend not in ("sim", "process"):
            raise ValueError(f"backend must be 'sim' or 'process', got {backend!r}")
        if backend == "process" and not execute:
            raise ValueError(
                "the process backend executes real kernels and requires "
                "execute mode"
            )
        self.impl = impl
        self.threads = threads
        self.machine = machine or MachineConfig()
        self.cost_model = cost_model or CostModel()
        self.costs = costs
        self.domain = Domain(opts) if execute else None
        if self.domain is not None:
            self.shape = ProblemShape.from_domain(self.domain)
            self._initial = snapshot_state(self.domain)
        else:
            self.shape = ProblemShape.from_options(opts)
        self.record_spans = record_spans
        self.backend = None
        if impl == "omp":
            self.rt = OmpRuntime(
                self.machine, self.cost_model, threads,
                execute_bodies=execute, default_schedule=omp_schedule,
                dynamic_chunk=dynamic_chunk,
            )
            self.program = OmpLuleshProgram(
                self.rt, self.shape, costs, self.domain,
                task_local_temporaries=task_local_temporaries,
            )
            return
        self.rt = AmtRuntime(
            self.machine, self.cost_model, threads, policy=policy,
            record_spans=record_spans, flight_recorder=flight_recorder,
        )
        if impl == "naive":
            self.program = NaiveHpxProgram(
                self.rt, self.shape, costs, self.domain,
                replay_graph=replay_graph,
            )
            return
        #: ``(nodal, elements, source)``, as the CLI's verbose line names them.
        self.partitions = resolve_partition_sizes(
            opts.nx, opts.numReg, threads, nodal_partition,
            elements_partition, tuning, self.machine,
        )
        self.program = HpxLuleshProgram(
            self.rt,
            self.shape,
            costs,
            nodal_partition=self.partitions[0],
            elements_partition=self.partitions[1],
            domain=self.domain,
            variant=variant or HpxVariant.full(),
            balanced_partitions=balanced_partitions,
            replay_graph=replay_graph,
        )
        if backend == "process":
            from repro.parallel import ParallelHpxBackend

            self.backend = ParallelHpxBackend(
                self.program, workers=workers or 2,
                flight_recorder=flight_recorder, supervision=supervision,
            )

    @classmethod
    def from_resolved(
        cls,
        resolved: dict,
        machine: MachineConfig | None = None,
        costs: KernelCosts = DEFAULT_COSTS,
    ) -> "Session":
        """A rewindable session for a resolved job description.

        *resolved* is :func:`repro.serve.fingerprint.resolve_spec`'s
        document; its partition sizes are already resolved.
        """
        shape, knobs = resolved["shape"], resolved["knobs"]
        impl = resolved["impl"]
        return cls(
            impl, LuleshOptions(nx=shape["nx"], numReg=shape["numReg"]),
            shape["threads"], execute=resolved["execute"], machine=machine,
            costs=costs,
            variant=HpxVariant.named(resolved["variant"]) if impl == "hpx" else None,
            nodal_partition=knobs["nodal_partition"],
            elements_partition=knobs["elements_partition"],
            balanced_partitions=knobs["balanced"],
            replay_graph=knobs["replay_graph"], backend=knobs["backend"],
            workers=knobs["workers"],
        )

    # --- per-run driving ------------------------------------------------------

    def rewind(self, flight_recorder=None) -> None:
        """Reset per-run state so the warm stack can serve another run.

        Restores the domain's fields in place from the initial state (the
        kernel closures, captured template and shared-memory views stay
        valid) and zeroes the runtime's and the program's per-run
        bookkeeping; the captured template, the runtime's replay memo, the
        OpenMP loop-cost and cycle memos and the worker pool survive.
        The process backend takes *flight_recorder* here.
        """
        if self.domain is not None:
            restore_state(self.domain, self._initial)
            self.domain.workspace.stats.reset_tallies()
        self.rt.reset_stats()
        self.program.begin_job()
        if self.backend is not None:
            self.backend.begin_job(flight_recorder)

    def run(
        self,
        iterations: int,
        registry: CounterRegistry | None = None,
        resilience: ResiliencePlan | None = None,
        flight_recorder=None,
        cancel_event=None,
        deadline: float | None = None,
    ) -> RunResult:
        """Run *iterations* cycles with this run's observers attached.

        *cancel_event* (a :class:`threading.Event`) and *deadline* (a
        ``time.monotonic()`` instant) are checked between cycles and raise
        :class:`~repro.serve.errors.JobCancelled` and
        :class:`~repro.serve.errors.JobTimeout`, so the warm state stays
        consistent.  On the process backend a closing counter sample is
        taken, because warm parallel cycles never flush the DES.
        """
        rt, program = self.rt, self.program
        step = (self.backend or program).step
        try:
            self._attach(registry, resilience, flight_recorder)
            if resilience and resilience.auto_recover and self.domain is not None:
                manager = resilience.make_recovery(self.domain)
                try:
                    run_with_recovery(
                        step, self.domain, iterations, manager,
                        stoptime=self.domain.opts.stoptime,
                    )
                finally:
                    manager.close()
            else:
                program.run(iterations, _job_check(cancel_event, deadline), step)
        except TaskGroupError as group:
            # Physics aborts keep their class (VolumeError, QStopError) at
            # the run boundary; mixed or injected failures stay grouped.
            cause = group.common_cause(LuleshError)
            if cause is not None:
                raise cause from group
            raise
        finally:
            # Break runtime -> sampler hook -> registry -> counters ->
            # runtime, so the run's registry is freed when the run
            # returns, without the cyclic garbage collector.
            rt.clear_sampling_hooks()
        if self.backend is not None and registry is not None:
            # The wall clock extends the simulated timeline, so sample
            # times stay monotone.
            registry.record(rt.stats.total_ns + self.backend.stats.wall_ns)
        return self._result(rt.stats, iterations)

    def _attach(self, registry, plan, flight_recorder) -> None:
        rt = self.rt
        if plan is not None and flight_recorder is not None:
            plan.stats.flight_recorder = flight_recorder
        rt.fault_injector = plan.make_injector() if plan else None
        if self.impl != "omp":
            rt.replay = plan.make_replay() if plan else None
            rt.flight_recorder = flight_recorder
        if registry is None:
            return
        if self.impl == "omp":
            install_omp_counters(registry, rt)
        else:
            install_amt_counters(registry, rt)
        if self.impl == "hpx":
            for name, size in zip(("nodal", "elements"), self.partitions):
                registry.register_gauge(
                    f"/hpx/partition-size/{name}", lambda size=size: size,
                    description=f"resolved Lagrange{name.title()} partition "
                    "size for this run",
                )
        if self.domain is not None:
            install_arena_counters(registry, self.domain)
        if plan is not None:
            install_resilience_counters(registry, plan.stats)
        if self.impl != "omp":
            install_graph_counters(registry, self.program.graph_stats)
        if self.backend is not None:
            install_parallel_counters(
                registry, self.backend.stats,
                supervision=self.backend.supervisor.stats,
            )

    def _result(self, stats, iterations: int) -> RunResult:
        omp = self.impl == "omp"
        return RunResult(
            # On the process backend the runtime is measured host time.
            runtime_ns=self.backend.stats.wall_ns if self.backend else stats.total_ns,
            iterations=self.domain.cycle if self.domain is not None else iterations,
            utilization=stats.utilization(),
            n_tasks=0 if omp else stats.n_tasks,
            n_loops=stats.n_loops if omp else 0,
            n_regions=stats.n_regions if omp else 0,
            domain=self.domain,
            trace=stats.trace if self.record_spans and not omp else None,
        )

    # --- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release the backend's worker pool and shared segment (idempotent)."""
        if self.backend is not None:
            self.backend.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _job_check(cancel_event, deadline: float | None):
    """A campaign job's per-cycle check: cancelled, then past its deadline."""

    def check() -> None:
        if cancel_event is not None and cancel_event.is_set():
            from repro.serve.errors import JobCancelled

            raise JobCancelled("job cancelled mid-run")
        if deadline is not None and time.monotonic() > deadline:
            from repro.serve.errors import JobTimeout

            raise JobTimeout("job exceeded its per-attempt deadline")

    return check
