"""The process execution backend: real cores replaying the captured graph.

:class:`ParallelHpxBackend` is the replay engine of an execute-mode
:class:`~repro.core.hpx_lulesh.HpxLuleshProgram`, as ``rt.replay_graph``
is for the simulated pool: it attaches itself as ``program.engine`` when
built and detaches on ``close()``.  Its ``step()`` / ``run()`` drive the
program's own cycle on the host clock (the duck type ``Session.run`` and
``run_with_recovery`` expect), and ``GraphProgram._advance`` decides
where each cycle runs:

* **Warm cycles** replay a template this backend has lowered.  After the
  program's one prologue (``time_increment``, the injector's hooks) the
  backend draws the workers' faults and executes the schedule wave by
  wave on the worker pool — shipping only spec indices and the per-cycle
  scalars — runs the serial specs (``accel_bc``) in the main process at
  their wave position, min-folds the workers' constraint partials in spec
  order, and applies ``reduce_time_constraints``.
* **Fallback cycles** run on the simulated pool, whose kernels write
  through the shared-memory views of
  :class:`~repro.parallel.shm.SharedDomainArena`; the program names the
  reason: ``no-schedule`` (nothing lowered yet), ``rollback`` (the
  in-place checkpoint restore resynchronized the workers for free) or
  ``fault-cycle`` (fault draws happen at task creation, which only a
  rebuild performs), and a degraded backend records ``degraded``.  After
  a cycle the backend lowers the program's template if it has not yet.

Bit-exactness holds because every kernel invocation is the same NumPy code
over the same ``[lo, hi)`` slice of the same float64 bytes as the simulated
backend — which process executes it cannot change the result — and the
wave join is strictly stronger than the captured dependency edges.

Worker failures are not fatal: wave dispatch goes through a
:class:`~repro.parallel.supervisor.WorkerSupervisor` (deadline watchdog,
kill/respawn, shadow-buffered wave retry), and when its budgets run out the
backend *degrades* instead of dying — the failed cycle is completed
serially in the main process (the failed wave's non-idempotent slices were
rewound first, so the cycle stays bit-identical) and every later cycle
falls back to the simulated pool with the worker pool drained.  A degraded
run finishes with a ``RuntimeWarning`` and correct results;
``--no-degrade`` turns exhaustion back into a hard
:class:`SupervisionExhausted` failure.
"""

from __future__ import annotations

import time as _time
import warnings
from dataclasses import dataclass

from repro.lulesh.kernels.constraints import reduce_time_constraints
from repro.parallel.errors import ParallelBackendError, SupervisionExhausted
from repro.parallel.plan import assign_waves, execute_spec, lower_template
from repro.parallel.pool import ProcessWorkerPool
from repro.parallel.shadow import WaveShadow
from repro.parallel.shm import SharedDomainArena
from repro.parallel.supervisor import SupervisionConfig, WorkerSupervisor

__all__ = ["ParallelHpxBackend", "ParallelStats"]


@dataclass
class ParallelStats:
    """Accounting behind the ``/parallel/*`` counters.

    ``wall_ns`` and ``busy_ns`` are real host time: ``wall_ns`` spans
    backend steps, ``busy_ns`` sums the measured execution time of every
    spec of the completed parallel cycles, the workers' and the main
    process's serial ones alike (a degraded cycle adds none).  The obs
    ``diff`` gate skips ``/parallel/*`` wholesale, since task counts vary
    with fallback timing across hosts.
    """

    workers: int = 0
    parallel_cycles: int = 0
    fallback_cycles: int = 0
    waves: int = 0
    tasks_dispatched: int = 0
    lowerings: int = 0
    wall_ns: int = 0
    shm_bytes: int = 0
    busy_ns: int = 0


class ParallelHpxBackend:
    """Replay an ``HpxLuleshProgram``'s captured graph on real cores."""

    def __init__(
        self,
        program,
        workers: int,
        flight_recorder=None,
        supervision: SupervisionConfig | None = None,
    ) -> None:
        if program.domain is None:
            raise ParallelBackendError(
                "the process backend needs a real Domain (execute mode)"
            )
        if workers < 1:
            raise ParallelBackendError(f"workers must be >= 1, got {workers}")
        self.program = program
        self.domain = program.domain
        self.flight_recorder = flight_recorder
        self.stats = ParallelStats(workers=workers)
        self._schedule = None
        self._assignments = None
        self._schedule_template = None
        self._closed = False
        self._degraded = False
        self.arena = SharedDomainArena.create(self.domain)
        self.stats.shm_bytes = self.arena.nbytes
        self.pool = ProcessWorkerPool(workers)
        self.supervisor = WorkerSupervisor(
            self.pool, supervision, flight_recorder=flight_recorder
        )
        try:
            self.pool.start(self.arena.name, self.arena.layout, self.domain.opts)
        except BaseException:
            self.close()
            raise
        program.engine = self
        if flight_recorder is not None:
            flight_recorder.record(
                "parallel_start",
                workers=workers,
                shm_bytes=self.arena.nbytes,
                start_method=self.pool.start_method,
            )

    # --- driving --------------------------------------------------------------

    def step(self) -> None:
        """Advance exactly one leapfrog cycle (parallel when warm)."""
        if self._closed:
            raise ParallelBackendError("backend is closed")
        t0 = _time.perf_counter_ns()
        try:
            self.program.step()
        finally:
            self.stats.wall_ns += _time.perf_counter_ns() - t0

    def run(self, iterations: int) -> None:
        """Advance *iterations* cycles (stops at ``stoptime``)."""
        self.program.run(iterations, step=self.step)

    @property
    def degraded(self) -> bool:
        """True once supervision exhausted its budgets and drained the pool.

        A degraded backend keeps working (serially) but cannot be warmed
        for another job — campaign executors check this and rebuild.
        """
        return self._degraded

    def begin_job(self, flight_recorder=None) -> None:
        """Rewind per-run bookkeeping so the warm pool serves another job.

        Keeps the shared segment, the worker processes, and the lowered
        wave schedule (TaskSpecs address ``[lo, hi)`` slices of the shared
        float64 bytes, so an in-place field restore leaves them valid).
        Per-job stats are zeroed in place — counter closures hold the
        :class:`ParallelStats` object — with ``workers``/``shm_bytes``
        (segment-lifetime facts) preserved.
        """
        if self._closed:
            raise ParallelBackendError("backend is closed")
        if self._degraded:
            raise ParallelBackendError(
                "cannot reuse a degraded backend; rebuild the executor"
            )
        st = self.stats
        st.parallel_cycles = 0
        st.fallback_cycles = 0
        st.waves = 0
        st.tasks_dispatched = 0
        st.lowerings = 0
        st.wall_ns = 0
        st.busy_ns = 0
        sup = self.supervisor.stats
        sup.worker_losses = sup.deaths = sup.hangs = sup.garbles = 0
        sup.respawns = sup.wave_retries = sup.shadow_restores = 0
        sup.shadow_bytes_peak = 0
        sup.loss_log.clear()
        self.flight_recorder = flight_recorder
        self.supervisor._flight = flight_recorder

    # --- the program's replay engine -------------------------------------------

    def lowered(self, template) -> bool:
        """True if this backend can replay *template* on its workers."""
        return template is self._schedule_template and not self._degraded

    def fall_back(self, cycle: int, reason: str) -> None:
        """Count cycle *cycle*, which runs on the simulated pool."""
        self.stats.fallback_cycles += 1
        if self.flight_recorder is not None:
            self.flight_recorder.record(
                "parallel_fallback", cycle=cycle,
                reason="degraded" if self._degraded else reason,
            )

    def lower(self, template) -> None:
        """Lower *template* and broadcast its spec table, once per template.

        The wave plan is fixed here for the template's lifetime: LPT
        buckets over the capture-time costs and the supervisor's
        deadlines derived from them.
        """
        if (
            template is None
            or template is self._schedule_template
            or self._degraded
        ):
            return
        schedule = lower_template(template)
        self._assignments = assign_waves(schedule, self.pool.n_workers)
        self._schedule = schedule
        self._schedule_template = template
        self.stats.lowerings += 1
        self.pool.broadcast_plan(schedule.specs)
        self.supervisor.install_plan(schedule, self._assignments)

    def replay(self, cycle: int, injector) -> None:
        """Run cycle *cycle* of the lowered template, wave by wave."""
        d = self.domain
        schedule = self._schedule
        faults: dict[int, str] = {}
        if injector is not None:
            for w in range(self.pool.n_workers):
                kind = injector.draw_worker(w)
                if kind is not None:
                    faults[w] = kind
        partials: dict[int, tuple[float, float]] = {}
        busy_ns = 0
        dispatched = 0
        for wi, wave in enumerate(schedule.waves):
            if wave.parallel:
                shadow = WaveShadow.capture(d, schedule, wave)
                try:
                    results, wave_busy_ns = self.supervisor.run_wave(
                        d, cycle, wi, self._assignments[wi], faults, shadow
                    )
                except SupervisionExhausted as exc:
                    if not self.supervisor.config.degrade:
                        raise
                    # The supervisor restored this wave's shadow: field
                    # state is exactly pre-dispatch for wave *wi*, and all
                    # earlier waves completed.  Finish the cycle serially.
                    self._degrade(exc, cycle, schedule, wi, partials)
                    break
                partials.update(results)
                busy_ns += wave_busy_ns
                dispatched += len(wave.parallel)
            busy_ns += self._run_serial_specs(schedule, wave, partials)
        else:
            self.stats.parallel_cycles += 1
            self.stats.waves += schedule.n_waves
            self.stats.tasks_dispatched += dispatched
            self.stats.busy_ns += busy_ns
            if self.flight_recorder is not None:
                self.flight_recorder.record(
                    "parallel_cycle",
                    cycle=cycle,
                    waves=schedule.n_waves,
                    tasks=dispatched,
                )

    def _run_serial_specs(self, schedule, wave, partials) -> int:
        """Run a wave's main-process specs (``bc``/``reduce``) in order.

        Returns their summed execution time in ns.
        """
        d = self.domain
        busy_ns = 0
        for idx in wave.serial:
            spec = schedule.specs[idx]
            t0 = _time.perf_counter_ns()
            if spec.kind == "reduce":
                # Fold in ascending spec order == the captured graph's
                # creation order == the simulated reduce's fold order.
                courant, hydro = 1.0e20, 1.0e20
                for i in sorted(partials):
                    cmin, hmin = partials[i]
                    courant = min(courant, cmin)
                    hydro = min(hydro, hmin)
                reduce_time_constraints(d, courant, hydro)
            else:
                value = execute_spec(d, spec)
                if value is not None:
                    partials[idx] = value
            busy_ns += _time.perf_counter_ns() - t0
        return busy_ns

    # --- graceful degradation -------------------------------------------------

    def _degrade(self, exc, cycle, schedule, start_wave, partials) -> None:
        """Finish the cycle serially and route the rest of the run serial.

        Called when the supervisor exhausted its respawn/retry budgets at
        wave *start_wave*: earlier waves' writes are complete and correct,
        the failed wave's non-idempotent slices have been rewound, so
        executing the failed wave and every later wave in the main process
        — same kernels, same slices, same fold order, inside the cycle's
        gather-cache window — completes the cycle bit-identically.  Then
        the pool is drained and every later cycle falls back to the
        simulated pool (which writes through the shared views), so the run
        *continues* instead of dying.
        """
        d = self.domain
        for wave in schedule.waves[start_wave:]:
            for idx in wave.parallel:
                value = execute_spec(d, schedule.specs[idx])
                if value is not None:
                    partials[idx] = value
            self._run_serial_specs(schedule, wave, partials)
        self._degraded = True
        self.supervisor.stats.degraded = True
        self.stats.fallback_cycles += 1
        if self.flight_recorder is not None:
            self.flight_recorder.record(
                "backend_degraded",
                cycle=cycle,
                wave=start_wave,
                reason=str(exc),
                respawns=self.supervisor.stats.respawns,
            )
        warnings.warn(
            f"process backend degraded to the serial path at cycle {cycle} "
            f"({exc}); the run continues on one process",
            RuntimeWarning,
            # _degrade <- replay <- GraphProgram._advance <- _iterate
            # <- CycleProgram.step <- step <- the caller of step()
            stacklevel=7,
        )
        self.pool.stop()

    # --- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Stop the pool, copy fields out, unlink the segment.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self.program.engine is self:
            self.program.engine = None
        if self.flight_recorder is not None:
            try:
                self.flight_recorder.record(
                    "parallel_stop",
                    cycles=self.stats.parallel_cycles,
                    fallbacks=self.stats.fallback_cycles,
                )
            except Exception:
                pass
        pool = getattr(self, "pool", None)
        if pool is not None:
            pool.stop()
        arena = getattr(self, "arena", None)
        if arena is not None and not arena.closed:
            arena.detach(self.domain)
            arena.close()

    def __enter__(self) -> "ParallelHpxBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
