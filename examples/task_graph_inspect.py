#!/usr/bin/env python3
"""Inspect the task graph and scheduler behaviour of one leapfrog iteration.

Builds the paper's pre-created task graph for one iteration (§IV), runs it
on the simulated machine with per-task tracing enabled, and prints:

* graph statistics (tasks, barriers, tasks per kernel chain),
* per-worker execution summaries (tasks run, steals, busy/idle split),
* an ASCII Gantt chart of the first workers' timelines,
* the ablation ladder for this problem, variant by variant.

Run:  python examples/task_graph_inspect.py
"""

from repro.amt.runtime import AmtRuntime
from repro.core.hpx_lulesh import HpxLuleshProgram, HpxVariant
from repro.core.kernel_graph import ProblemShape
from repro.lulesh.costs import DEFAULT_COSTS
from repro.lulesh.options import LuleshOptions
from repro.obs import CounterRegistry, install_amt_counters, worker_thread_path
from repro.obs.registry import IDLE_RATE_SCALE
from repro.obs.traceview import ascii_gantt
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig


def main() -> None:
    opts = LuleshOptions(nx=30, numReg=11)
    machine = MachineConfig()
    cost_model = CostModel()
    n_workers = 24

    print(f"problem: {opts.numElem} elements, {opts.numReg} regions, "
          f"{n_workers} workers\n")

    rt = AmtRuntime(machine, cost_model, n_workers, record_spans=True)
    registry = CounterRegistry()
    install_amt_counters(registry, rt)  # sampled once, at the flush
    shape = ProblemShape.from_options(opts)
    program = HpxLuleshProgram(
        rt, shape, DEFAULT_COSTS,
        nodal_partition=1024, elements_partition=1024,
    )
    program.build_iteration()
    n_pending = rt.n_pending
    rt.flush()

    stats = rt.stats
    print("=== task graph of one leapfrog iteration ===")
    print(f"tasks pre-created:      {n_pending}")
    print(f"synchronization points: {program.barriers_per_iteration} "
          f"(the paper's 'seven synchronization barriers')")
    print(f"simulated makespan:     {stats.total_ns / 1e6:.3f} ms")
    print(f"worker utilization:     {stats.utilization():.1%}")
    print(f"total steals:           {stats.trace.total_steals()}")

    print("\n=== per-worker summary (first 8 workers) ===")
    idle_rates = registry.last_values()
    print(f"  {'worker':>6} {'tasks':>6} {'steals':>7} {'busy':>8} "
          f"{'idle-rate':>10}")
    for w in stats.trace.workers[:8]:
        idle = idle_rates[worker_thread_path(w.worker)] / IDLE_RATE_SCALE
        print(f"  {w.worker:>6} {w.tasks_run:>6} {w.steals:>7} "
              f"{w.productive_ns() / 1e6:>7.2f}ms {idle:>10.1%}")

    print("\n=== Gantt (one iteration, '#' = executing a task) ===")
    print(ascii_gantt(stats.trace.spans, stats.total_ns, n_workers,
                      max_workers=8))

    print("\n=== optimization ladder at this size ===")
    from repro.core.driver import run_hpx, run_naive_hpx, run_omp

    omp = run_omp(opts, n_workers, 1, machine, cost_model)
    print(f"  {'OpenMP baseline (Fig.4)':<34} "
          f"{omp.per_iteration_ns / 1e6:>8.3f} ms/iter  1.00x")
    naive = run_naive_hpx(opts, n_workers, 1, machine, cost_model)
    print(f"  {'naive for_each port [16]':<34} "
          f"{naive.per_iteration_ns / 1e6:>8.3f} ms/iter  "
          f"{omp.runtime_ns / naive.runtime_ns:.2f}x")
    for variant in (HpxVariant.fig5(), HpxVariant.fig6(), HpxVariant.fig7(),
                    HpxVariant.full()):
        res = run_hpx(opts, n_workers, 1, machine, cost_model,
                      variant=variant)
        print(f"  {variant.label():<34} "
              f"{res.per_iteration_ns / 1e6:>8.3f} ms/iter  "
              f"{omp.runtime_ns / res.runtime_ns:.2f}x")


if __name__ == "__main__":
    main()
