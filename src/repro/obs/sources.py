"""Counter registration for the two runtime reproductions.

This is the glue between the generic :class:`~repro.obs.registry.
CounterRegistry` and the runtimes' accounting state.  The AMT installer
mirrors the HPX namespace the paper reads (§V-A):

========================================  =====================================
``/threads/idle-rate``                    per-interval idle share, all workers
``/threads{worker-thread#N}/idle-rate``   the same, per worker thread
``/threads/count/cumulative``             tasks retired since start
``/scheduler/steals``                     successful work steals
``/scheduler/steal-attempts``             steal probes (incl. failures)
``/runtime/spawn-time``                   serialized task-creation time [ns]
``/amt/flushes``                          executed segments (flush boundaries)
========================================  =====================================

and the OpenMP installer maps the same idle-rate family onto the fork/join
accounting (busy time inside parallel regions vs region-elapsed time, the
paper's Fig.-11 OpenMP methodology) plus structural gauges.

Counters read live runtime state through closures over the runtime object
(not a stats snapshot), so they survive ``reset_stats`` and always describe
the current accumulation.  Installation also hooks the runtime's sampling
boundary — every :meth:`AmtRuntime.flush` / :meth:`OmpRuntime.end_iteration`
records one interval for *all* registered counters.
"""

from __future__ import annotations

from repro.amt.runtime import AmtRuntime
from repro.obs.registry import CounterRegistry
from repro.openmp.runtime import OmpRuntime

__all__ = [
    "install_amt_counters",
    "install_omp_counters",
    "install_arena_counters",
    "install_graph_counters",
    "install_parallel_counters",
    "install_resilience_counters",
    "install_serve_counters",
    "install_tuning_counters",
    "worker_thread_path",
]


def worker_thread_path(worker: int) -> str:
    """The HPX-style per-worker instance path for *worker*'s idle-rate."""
    return f"/threads{{worker-thread#{worker}}}/idle-rate"


def install_amt_counters(registry: CounterRegistry, rt: AmtRuntime) -> None:
    """Register the HPX-namespace counters for *rt* and hook its flushes."""

    def total_ns() -> int:
        return rt.stats.total_ns

    registry.register_ratio(
        "/threads/idle-rate",
        num=lambda: rt.n_workers * total_ns()
        - rt.stats.trace.total_productive_ns(),
        den=lambda: rt.n_workers * total_ns(),
        description="share of worker time not spent on productive work",
    )

    def idle_ns() -> list[int]:
        stats = rt.stats
        total = stats.total_ns
        return [total - w.productive_ns() for w in stats.trace.workers]

    registry.register_ratio_group(
        [worker_thread_path(w) for w in range(rt.n_workers)],
        nums=idle_ns,
        den=total_ns,
        descriptions=[
            f"idle share of worker thread #{w}" for w in range(rt.n_workers)
        ],
    )
    registry.register_gauge(
        "/threads/count/cumulative",
        lambda: rt.stats.trace.total_tasks(),
        description="tasks retired since start",
    )
    registry.register_gauge(
        "/scheduler/steals",
        lambda: sum(w.steals for w in rt.stats.trace.workers),
        description="successful work steals",
    )
    registry.register_gauge(
        "/scheduler/steal-attempts",
        lambda: sum(w.steal_attempts for w in rt.stats.trace.workers),
        description="steal probes, successful or not",
    )
    registry.register_gauge(
        "/runtime/spawn-time",
        lambda: rt.stats.spawn_ns,
        unit="[ns]",
        description="serialized task-creation time",
    )
    registry.register_gauge(
        "/runtime/total-time",
        total_ns,
        unit="[ns]",
        description="simulated wall-clock time (summed segment makespans)",
    )
    registry.register_gauge(
        "/amt/flushes",
        lambda: rt.stats.n_flushes,
        description="executed segments (blocking barriers + final waits)",
    )
    rt.add_flush_hook(lambda rt_, _makespan: registry.record(rt_.stats.total_ns))


def install_omp_counters(registry: CounterRegistry, omp: OmpRuntime) -> None:
    """Register the idle-rate family for the fork/join runtime *omp*.

    The denominator is per-thread elapsed time inside parallel regions
    (single-threaded portions excluded, per the paper's OpenMP measurement),
    so ``/threads/idle-rate`` here is exactly ``1 - utilization`` of the
    Fig.-11 OpenMP curve.
    """

    def parallel_ns() -> int:
        return omp.stats.parallel_ns

    registry.register_ratio(
        "/threads/idle-rate",
        num=lambda: omp.n_threads * parallel_ns() - sum(omp.stats.busy_ns),
        den=lambda: omp.n_threads * parallel_ns(),
        description="share of in-region thread time lost to barriers/imbalance",
    )

    def idle_ns() -> list[int]:
        stats = omp.stats
        return [stats.parallel_ns - busy for busy in stats.busy_ns]

    registry.register_ratio_group(
        [worker_thread_path(t) for t in range(omp.n_threads)],
        nums=idle_ns,
        den=parallel_ns,
        descriptions=[
            f"idle share of thread #{t} inside parallel regions"
            for t in range(omp.n_threads)
        ],
    )
    registry.register_gauge(
        "/openmp/count/regions",
        lambda: omp.stats.n_regions,
        description="parallel regions entered",
    )
    registry.register_gauge(
        "/openmp/count/loops",
        lambda: omp.stats.n_loops,
        description="parallel loops issued (implicit barriers)",
    )
    registry.register_gauge(
        "/runtime/serial-time",
        lambda: omp.stats.serial_ns,
        unit="[ns]",
        description="single-threaded program time",
    )
    registry.register_gauge(
        "/runtime/total-time",
        lambda: omp.stats.total_ns,
        unit="[ns]",
        description="simulated wall-clock time",
    )
    omp.add_iteration_hook(lambda omp_: registry.record(omp_.stats.total_ns))


def install_arena_counters(registry: CounterRegistry, domain) -> None:
    """Register the ``/arena/*`` family for *domain*'s kernel workspace.

    Readers go through ``domain.workspace`` at sample time (not a captured
    workspace object) because ``Domain.configure_workspace`` swaps the
    workspace when the task-local-temporaries knob changes.
    """

    def stats():
        return domain.workspace.stats

    registry.register_gauge(
        "/arena/checkouts",
        lambda: stats().checkouts,
        description="scratch buffers handed to kernels",
    )
    registry.register_gauge(
        "/arena/bytes-reused",
        lambda: stats().bytes_reused,
        unit="[bytes]",
        description="checkout bytes served from the pool (no allocation)",
    )
    registry.register_gauge(
        "/arena/high-water",
        lambda: stats().high_water_bytes,
        unit="[bytes]",
        description="peak live scratch bytes held by the arena",
    )
    registry.register_gauge(
        "/arena/allocations",
        lambda: stats().allocations,
        description="checkouts that had to allocate a fresh buffer",
    )
    registry.register_gauge(
        "/arena/gather-hits",
        lambda: stats().gather_hits,
        description="corner gathers served from the per-partition cache",
    )


def install_tuning_counters(registry: CounterRegistry, stats, db=None) -> None:
    """Register the ``/tuning/*`` family reading a
    :class:`~repro.tuning.evaluate.TuningStats` instance.

    The stats object is shared by the evaluator and the tuner of one run
    (:class:`~repro.tuning.tuner.Tuner` samples the registry once per
    trial, with the simulated-time spend as the interval timestamp).  With
    a *db*, the database's size is exported too — a repeated tune shows
    ``cache-hits`` tracking ``trials`` while ``simulated-time`` stays flat.
    """
    registry.register_gauge(
        "/tuning/trials",
        lambda: stats.trials,
        description="trial evaluations requested (cache hits included)",
    )
    registry.register_gauge(
        "/tuning/cache-hits",
        lambda: stats.cache_hits,
        description="trials served from the content-addressed memo cache",
    )
    registry.register_gauge(
        "/tuning/cache-misses",
        lambda: stats.cache_misses,
        description="trials that actually ran the simulation",
    )
    registry.register_gauge(
        "/tuning/simulated-time",
        lambda: stats.simulated_ns,
        unit="[ns]",
        description="simulated wall-clock spent on cache misses",
    )
    registry.register_gauge(
        "/tuning/best-runtime",
        lambda: stats.best_runtime_ns,
        unit="[ns]",
        description="best trial runtime observed so far",
    )
    if db is not None:
        registry.register_gauge(
            "/tuning/db-entries",
            lambda: db.n_entries,
            description="tuned (fingerprint, shape) entries in the database",
        )
        registry.register_gauge(
            "/tuning/db-memo-size",
            lambda: len(db.memo),
            description="memoised trial records in the database",
        )


def install_graph_counters(registry: CounterRegistry, stats) -> None:
    """Register the ``/graph/*`` family reading a
    :class:`~repro.amt.graph.GraphStats` instance.

    The stats object belongs to one program (``HpxLuleshProgram`` /
    ``NaiveHpxProgram``), so these counters describe that program's graph
    capture & replay activity: how often the iteration graph was captured,
    re-fired (and how many re-fires re-applied a memoized simulation), or
    thrown away, and the real (host) time split between building graphs
    and re-arming captured ones.  The memo belongs to the runtime, so on a
    warm campaign executor it can come from an earlier job.
    """
    registry.register_gauge(
        "/graph/captures",
        lambda: stats.captures,
        description="iteration graphs captured as replay templates",
    )
    registry.register_gauge(
        "/graph/replays",
        lambda: stats.replays,
        description="cycles served by re-firing a captured graph",
    )
    registry.register_gauge(
        "/graph/memo-hits",
        lambda: stats.memo_hits,
        description="replayed cycles that re-applied the runtime's memoized "
        "simulation instead of simulating again",
    )
    registry.register_gauge(
        "/graph/invalidations",
        lambda: stats.invalidations,
        description="captured graphs discarded (shape/knob change, "
        "rollback, or fault-injection cycle)",
    )
    registry.register_gauge(
        "/graph/build-time",
        lambda: stats.build_ns,
        unit="[ns]",
        description="real time spent constructing iteration graphs",
    )
    registry.register_gauge(
        "/graph/replay-time",
        lambda: stats.replay_ns,
        unit="[ns]",
        description="real time spent re-arming captured graphs",
    )


def install_parallel_counters(
    registry: CounterRegistry, stats, supervision=None
) -> None:
    """Register the ``/parallel/*`` family reading a
    :class:`~repro.parallel.backend.ParallelStats` instance, plus the
    ``/parallel/supervision/*`` subtree when a
    :class:`~repro.parallel.supervisor.SupervisionStats` is given.

    The stats object belongs to one process-backend run
    (:class:`~repro.parallel.backend.ParallelHpxBackend`).  The whole
    family is wall-clock flavoured — cycle/wave splits depend on when the
    host recaptured — so the obs ``diff`` gate skips ``/parallel/*`` by
    default.
    """
    registry.register_gauge(
        "/parallel/workers",
        lambda: stats.workers,
        description="worker processes in the shared-memory pool",
    )
    registry.register_gauge(
        "/parallel/cycles",
        lambda: stats.parallel_cycles,
        description="cycles executed on real cores via the wave schedule",
    )
    registry.register_gauge(
        "/parallel/fallback-cycles",
        lambda: stats.fallback_cycles,
        description="cycles run serially (capture, rollback, fault cycles, "
        "degraded)",
    )
    registry.register_gauge(
        "/parallel/waves",
        lambda: stats.waves,
        description="wave joins executed across all parallel cycles",
    )
    registry.register_gauge(
        "/parallel/tasks-dispatched",
        lambda: stats.tasks_dispatched,
        description="spec-indexed tasks shipped to worker processes",
    )
    registry.register_gauge(
        "/parallel/lowerings",
        lambda: stats.lowerings,
        description="templates lowered to wave schedules (plan broadcasts)",
    )
    registry.register_gauge(
        "/parallel/wall-time",
        lambda: stats.wall_ns,
        unit="[ns]",
        description="real host time spent inside backend steps",
    )
    registry.register_gauge(
        "/parallel/shm-bytes",
        lambda: stats.shm_bytes,
        unit="[bytes]",
        description="size of the shared Domain field segment",
    )
    registry.register_gauge(
        "/parallel/busy-time",
        lambda: stats.busy_ns,
        unit="[ns]",
        description="summed measured per-spec execution time (all workers)",
    )
    if supervision is None:
        return
    sup = supervision
    registry.register_gauge(
        "/parallel/supervision/worker-losses",
        lambda: sup.worker_losses,
        description="classified worker failures (dead + hang + garble)",
    )
    registry.register_gauge(
        "/parallel/supervision/deaths",
        lambda: sup.deaths,
        description="workers lost to a closed pipe (process exit)",
    )
    registry.register_gauge(
        "/parallel/supervision/hangs",
        lambda: sup.hangs,
        description="workers lost to a missed watchdog deadline",
    )
    registry.register_gauge(
        "/parallel/supervision/garbled-replies",
        lambda: sup.garbles,
        description="workers lost to undecodable or malformed replies",
    )
    registry.register_gauge(
        "/parallel/supervision/respawns",
        lambda: sup.respawns,
        description="worker processes respawned into the warm pool",
    )
    registry.register_gauge(
        "/parallel/supervision/wave-retries",
        lambda: sup.wave_retries,
        description="waves re-dispatched after a worker failure",
    )
    registry.register_gauge(
        "/parallel/supervision/shadow-restores",
        lambda: sup.shadow_restores,
        description="shadow-buffer rewinds of non-idempotent write slices",
    )
    registry.register_gauge(
        "/parallel/supervision/shadow-bytes-peak",
        lambda: sup.shadow_bytes_peak,
        unit="[bytes]",
        description="largest per-wave shadow snapshot taken",
    )
    registry.register_gauge(
        "/parallel/supervision/degraded",
        lambda: int(sup.degraded),
        description="1 if the run fell back to the serial path for good",
    )


def install_resilience_counters(registry: CounterRegistry, stats) -> None:
    """Register the ``/resilience/*`` family reading a
    :class:`~repro.resilience.stats.ResilienceStats` instance.

    The stats object is shared by the fault injector, the replay policy,
    and the recovery manager of one run (one
    :class:`~repro.resilience.plan.ResiliencePlan`), so these counters
    describe everything the resilience layer did, regardless of which
    component did it.
    """
    registry.register_gauge(
        "/resilience/injected-faults",
        lambda: stats.injected_faults,
        description="faults fired by the injector (task/comm/field)",
    )
    registry.register_gauge(
        "/resilience/retries",
        lambda: stats.retries,
        description="task re-executions performed by bounded replay",
    )
    registry.register_gauge(
        "/resilience/rollbacks",
        lambda: stats.rollbacks,
        description="checkpoint restores performed by auto-recovery",
    )
    registry.register_gauge(
        "/resilience/degraded-cycles",
        lambda: stats.degraded_cycles,
        description="cycles executed under a degraded (halved) timestep",
    )
    registry.register_gauge(
        "/resilience/checkpoints",
        lambda: stats.checkpoints,
        description="checkpoints written (including the initial one)",
    )
    registry.register_gauge(
        "/resilience/comm-drops",
        lambda: stats.comm_dropped,
        description="plane-exchange messages suppressed by the injector",
    )
    registry.register_gauge(
        "/resilience/comm-dups",
        lambda: stats.comm_duplicated,
        description="plane-exchange messages duplicated by the injector",
    )


def install_serve_counters(registry: CounterRegistry, scheduler) -> None:
    """Register the ``/serve/*`` family reading a
    :class:`~repro.serve.scheduler.CampaignScheduler`.

    Job and cache tallies are deterministic for a deterministic campaign;
    ``/serve/wall-time`` and ``/serve/jobs-per-sec`` are host throughput
    and sit on the obs ``diff`` gate's default skip list.
    """
    stats = scheduler.stats
    pool = scheduler.pool
    registry.register_gauge(
        "/serve/jobs/submitted",
        lambda: stats.submitted,
        description="jobs admitted to the campaign queue",
    )
    registry.register_gauge(
        "/serve/jobs/completed",
        lambda: stats.completed,
        description="jobs finished successfully (cached or computed)",
    )
    registry.register_gauge(
        "/serve/jobs/failed",
        lambda: stats.failed,
        description="jobs that ended in failure or timeout",
    )
    registry.register_gauge(
        "/serve/jobs/cancelled",
        lambda: stats.cancelled,
        description="jobs cancelled before completion",
    )
    registry.register_gauge(
        "/serve/jobs/retried",
        lambda: stats.retried,
        description="transient-failure re-attempts performed",
    )
    registry.register_gauge(
        "/serve/cache/hits",
        lambda: stats.cache.hits,
        description="jobs served from the content-addressed result cache",
    )
    registry.register_gauge(
        "/serve/cache/misses",
        lambda: stats.cache.misses,
        description="cache lookups that required execution",
    )
    registry.register_gauge(
        "/serve/cache/stores",
        lambda: stats.cache.stores,
        description="clean results persisted into the cache",
    )
    registry.register_gauge(
        "/serve/template-reuses",
        lambda: stats.template_reuses,
        description="jobs that re-fired a previous job's captured graph",
    )
    registry.register_gauge(
        "/serve/executors/created",
        lambda: pool.created,
        description="warm executor stacks built",
    )
    registry.register_gauge(
        "/serve/executors/reused",
        lambda: pool.reused,
        description="jobs served by an already-warm executor stack",
    )
    registry.register_gauge(
        "/serve/executors/evicted",
        lambda: pool.evicted,
        description="executor stacks torn down (LRU pressure or discard)",
    )
    registry.register_gauge(
        "/serve/wall-time",
        lambda: stats.wall_ns,
        unit="[ns]",
        description="real time from first admission to last completion",
    )
    registry.register_gauge(
        "/serve/jobs-per-sec",
        lambda: stats.jobs_per_sec(),
        description="completed jobs per real second of campaign wall time",
    )
