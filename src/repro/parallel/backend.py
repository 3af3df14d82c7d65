"""The process execution backend: real cores firing the captured graph.

:class:`ParallelHpxBackend` wraps an execute-mode
:class:`~repro.core.hpx_lulesh.HpxLuleshProgram` and is a drop-in ``step()``
/ ``run()`` driver for it (the same duck type ``_execute_program`` and
``run_with_recovery`` expect).  Division of labour per cycle:

* **Serial (capture/fallback) cycles** delegate to ``program.step()`` — the
  full simulated path, whose kernels write through the shared-memory views
  installed by :class:`~repro.parallel.shm.SharedDomainArena` — then lower
  the (re)captured template to a wave schedule and broadcast it.  Cycle 1
  is always serial (it captures the graph); so are rollback cycles (the
  in-place checkpoint restore wrote through shared memory, resynchronizing
  the workers for free) and fault-injection cycles (fault draws happen at
  task creation, which only a rebuild performs — the same rule the replay
  path uses).
* **Parallel (warm) cycles** replicate ``step()``'s prologue
  (``time_increment``, injector hooks), then execute the schedule wave by
  wave on the worker pool — shipping only spec indices and the per-cycle
  scalars — run the serial specs (``accel_bc``) in the main process at
  their wave position, min-fold the workers' constraint partials in spec
  order, and apply ``reduce_time_constraints``.  Shared segments and the
  warm pool persist across cycles: the replay-style warm path, on real
  cores.

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
routes to the serial simulated path with the pool drained.  A degraded run
finishes with a ``RuntimeWarning`` and correct results; ``--no-degrade``
turns exhaustion back into a hard :class:`SupervisionExhausted` failure.
"""

from __future__ import annotations

import time as _time
import warnings
from dataclasses import dataclass

from repro.lulesh.kernels.constraints import (
    reduce_time_constraints,
    time_increment,
)
from repro.parallel.errors import ParallelBackendError, SupervisionExhausted
from repro.parallel.plan import assign_waves, execute_spec, lower_template
from repro.parallel.pool import ProcessWorkerPool
from repro.parallel.shadow import WaveShadow
from repro.parallel.shm import SharedDomainArena
from repro.parallel.supervisor import SupervisionConfig, WorkerSupervisor

__all__ = ["ParallelHpxBackend", "ParallelStats"]

#: EMA smoothing for measured per-spec durations: heavy enough that one
#: noisy cycle cannot thrash the LPT packing, light enough to track a
#: host warming up (caches, frequency scaling) within a few cycles.
_EMA_ALPHA = 0.4


@dataclass
class ParallelStats:
    """Accounting behind the ``/parallel/*`` counters.

    ``wall_ns`` is real host time (the only wall-clock-only family member
    set: the obs ``diff`` gate skips ``/parallel/*`` wholesale since task
    counts vary with fallback timing across hosts).
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
    cost_refreshes: int = 0


class ParallelHpxBackend:
    """Drive an ``HpxLuleshProgram`` on real cores via its captured graph."""

    def __init__(
        self,
        program,
        workers: int,
        flight_recorder=None,
        start_method: str | None = None,
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
        self._cost_ema: dict[int, float] = {}
        self._schedule = None
        self._assignments = None
        self._schedule_template = None
        self._schedule_key = None
        self._last_cycle: int | None = None
        self._closed = False
        self._degraded = False
        self.arena = SharedDomainArena.create(self.domain)
        self.stats.shm_bytes = self.arena.nbytes
        self.pool = ProcessWorkerPool(workers, start_method=start_method)
        self.supervisor = WorkerSupervisor(
            self.pool, supervision, flight_recorder=flight_recorder
        )
        try:
            self.pool.start(self.arena.name, self.arena.layout, self.domain.opts)
        except BaseException:
            self.close()
            raise
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
        t0 = _time.perf_counter_ns()
        try:
            self._step_inner()
        finally:
            self.stats.wall_ns += _time.perf_counter_ns() - t0

    def run(self, iterations: int) -> None:
        """Advance *iterations* cycles (stops at ``stoptime``)."""
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        for _ in range(iterations):
            if self.domain.time >= self.domain.opts.stoptime:
                break
            self.step()

    def _step_inner(self) -> None:
        if self._closed:
            raise ParallelBackendError("backend is closed")
        program = self.program
        next_cycle = self.domain.cycle + 1
        injector = program.rt.fault_injector
        reason = None
        if self._degraded:
            reason = "degraded"  # pool drained; serial for the rest
        elif self._last_cycle is not None and next_cycle <= self._last_cycle:
            reason = "rollback"  # checkpoint restore rewound the run
        elif injector is not None and injector.plans_faults(next_cycle):
            reason = "fault-cycle"  # draws happen at build time only
        elif (
            self._schedule is None
            or self._schedule_template is not program._template
            or self._schedule_key != program._graph_key()
        ):
            reason = "no-schedule"  # first cycle, or knobs/backend changed
        if reason is not None:
            self._serial_step(reason, next_cycle)
        else:
            self._parallel_step()
        self._last_cycle = self.domain.cycle

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
        self._last_cycle = None
        st = self.stats
        st.parallel_cycles = 0
        st.fallback_cycles = 0
        st.waves = 0
        st.tasks_dispatched = 0
        st.lowerings = 0
        st.wall_ns = 0
        st.busy_ns = 0
        st.cost_refreshes = 0
        sup = self.supervisor.stats
        sup.worker_losses = sup.deaths = sup.hangs = sup.garbles = 0
        sup.respawns = sup.wave_retries = sup.shadow_restores = 0
        sup.shadow_bytes_peak = 0
        sup.loss_log.clear()
        self.flight_recorder = flight_recorder
        self.supervisor._flight = flight_recorder

    # --- serial (capture / resync) path ---------------------------------------

    def _serial_step(self, reason: str, cycle: int) -> None:
        self.stats.fallback_cycles += 1
        if self.flight_recorder is not None:
            self.flight_recorder.record(
                "parallel_fallback", cycle=cycle, reason=reason
            )
        self.program.step()  # writes through the shared views
        if not self._degraded:
            self._refresh_schedule()

    def _refresh_schedule(self) -> None:
        """(Re)lower the program's template and broadcast the spec table."""
        program = self.program
        template = program._template
        if template is None:
            self._schedule = None
            self._schedule_template = None
            return
        key = program._graph_key()
        if template is self._schedule_template and key == self._schedule_key:
            return
        schedule = lower_template(template)
        self._assignments = assign_waves(schedule, self.pool.n_workers)
        self._schedule = schedule
        self._schedule_template = template
        self._schedule_key = key
        self._cost_ema.clear()  # spec indices re-mapped; old EMAs meaningless
        self.stats.lowerings += 1
        self.pool.broadcast_plan(schedule.specs)
        self.supervisor.install_plan(schedule, self._assignments)

    # --- parallel (warm) path -------------------------------------------------

    def _parallel_step(self) -> None:
        d = self.domain
        time_increment(d)
        cycle = d.cycle
        injector = self.program.rt.fault_injector
        faults: dict[int, str] = {}
        if injector is not None:
            injector.begin_cycle(cycle)
            injector.corrupt_fields(d)  # no-op here: strike cycles go serial
            for w in range(self.pool.n_workers):
                kind = injector.draw_worker(w)
                if kind is not None:
                    faults[w] = kind
        self._wave_cycle(d, cycle, faults)
        # Keep the program's rollback detector coherent: a later serial
        # cycle must see the cycles we advanced here.
        self.program._last_cycle = cycle

    def _wave_cycle(self, d, cycle, faults) -> None:
        schedule = self._schedule
        partials: dict[int, tuple[float, float]] = {}
        durations: list[tuple[int, int]] = []
        dispatched = 0
        for wi, wave in enumerate(schedule.waves):
            if wave.parallel:
                shadow = WaveShadow.capture(d, schedule, wave)
                try:
                    results, durs = self.supervisor.run_wave(
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
                durations.extend(durs)
                dispatched += len(wave.parallel)
            self._run_serial_specs(schedule, wave, partials, durations)
        else:
            self.stats.parallel_cycles += 1
            self.stats.waves += schedule.n_waves
            self.stats.tasks_dispatched += dispatched
            if self.flight_recorder is not None:
                self.flight_recorder.record(
                    "parallel_cycle",
                    cycle=cycle,
                    waves=schedule.n_waves,
                    tasks=dispatched,
                )
            self._note_durations(durations, cycle, schedule)

    def _run_serial_specs(self, schedule, wave, partials, durations=None) -> None:
        """Run a wave's main-process specs (``bc``/``reduce``) in order."""
        d = self.domain
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
            if durations is not None:
                durations.append((idx, _time.perf_counter_ns() - t0))

    # --- measured-cost feedback -----------------------------------------------

    def _note_durations(self, durations, cycle, schedule) -> None:
        """Fold measured per-spec wall times into the cost EMA.

        Once **every** spec has at least one measurement, the measured
        table replaces the capture-time cost model wholesale — the LPT
        packing is re-run and the supervisor deadlines re-derived.
        Simulated-cost and measured-ns units are never mixed within one
        table: a partially-measured table would compare apples to oranges
        inside a single wave.
        """
        if not durations:
            return
        ema = self._cost_ema
        for idx, ns in durations:
            prev = ema.get(idx)
            ema[idx] = (
                float(ns)
                if prev is None
                else _EMA_ALPHA * ns + (1.0 - _EMA_ALPHA) * prev
            )
        self.stats.busy_ns += sum(ns for _idx, ns in durations)
        if len(ema) < len(schedule.specs):
            return
        measured = tuple(max(1, int(ema[i])) for i in range(len(schedule.specs)))
        self._assignments = assign_waves(
            schedule, self.pool.n_workers, costs=measured
        )
        self.supervisor.install_plan(schedule, self._assignments, costs=measured)
        self.stats.cost_refreshes += 1
        if self.flight_recorder is not None:
            self.flight_recorder.record(
                "spec_cost_refresh",
                cycle=cycle,
                specs=len(measured),
                costs=[[i, c] for i, c in enumerate(measured)],
            )

    # --- graceful degradation -------------------------------------------------

    def _degrade(self, exc, cycle, schedule, start_wave, partials) -> None:
        """Finish the cycle serially and route the rest of the run serial.

        Called when the supervisor exhausted its respawn/retry budgets at
        wave *start_wave*: earlier waves' writes are complete and correct,
        the failed wave's non-idempotent slices have been rewound, so
        executing the failed wave and every later wave in the main process
        — same kernels, same slices, same fold order — completes the cycle
        bit-identically.  Then the pool is drained and every subsequent
        cycle delegates to the serial simulated path (which writes through
        the shared views), so the run *continues* instead of dying.
        """
        d = self.domain
        for wave in schedule.waves[start_wave:]:
            with d.workspace.phase():
                for idx in wave.parallel:
                    value = execute_spec(d, schedule.specs[idx])
                    if value is not None:
                        partials[idx] = value
            self._run_serial_specs(schedule, wave, partials)
        self._finish_degrade(exc, cycle, wave=start_wave)

    def _finish_degrade(self, exc, cycle, wave) -> None:
        self._degraded = True
        self.supervisor.stats.degraded = True
        self.stats.fallback_cycles += 1
        if self.flight_recorder is not None:
            self.flight_recorder.record(
                "backend_degraded",
                cycle=cycle,
                wave=wave,
                reason=str(exc),
                respawns=self.supervisor.stats.respawns,
            )
        warnings.warn(
            f"process backend degraded to the serial path at cycle {cycle} "
            f"({exc}); the run continues on one process",
            RuntimeWarning,
            # _finish_degrade <- _degrade <- _wave_cycle <- _parallel_step
            # <- _step_inner <- step <- the caller of step()
            stacklevel=7,
        )
        self.pool.stop()

    # --- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Stop the pool, copy fields out, unlink the segment.  Idempotent."""
        if self._closed:
            return
        self._closed = True
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
