"""Worker supervision: watchdog, respawn, wave retry, degradation trigger.

The pool's bare ``recv()`` turns a hung worker into a hung run; its
fatal-on-death semantics turn one lost process into a lost simulation.
:class:`WorkerSupervisor` sits between the backend and the pool and makes
both failure modes bounded and observable:

* **Watchdog** — replies are collected with ``poll`` against a per-wave
  deadline derived once per lowering from the capture-time spec cost
  estimates (the costliest wave gets the full ``worker_timeout_s`` budget,
  cheaper waves a proportional share with a floor), so a wedged worker is
  detected in bounded time instead of never.
* **Failure taxonomy** — ``dead`` (pipe closed: the process exited or was
  killed), ``hang`` (deadline missed), ``garble`` (reply undecodable or
  malformed).  A garbling worker is killed too: a process that writes junk
  on its control pipe is no longer trusted with shared memory.
* **Recovery** — the failed worker is killed/reaped and respawned through
  the pool's saved fork-server context (fresh process, re-attached shared
  segment, current spec table rebroadcast), the failed wave's shadow
  buffer is restored (:mod:`repro.parallel.shadow`), and the whole wave is
  re-dispatched after the resilience layer's exponential backoff
  (``backoff_base_ns * 2**(attempt-1)``, the
  :class:`~repro.resilience.replay.ReplayPolicy` schedule — paid here in
  real time rather than simulated time).
* **Budgets** — ``max_respawns`` total respawns per run and
  ``max_wave_retries`` attempts per wave; exhaustion raises
  :class:`~repro.parallel.errors.SupervisionExhausted`, which the backend
  converts into graceful serial degradation (or surfaces, under
  ``--no-degrade``).

A kernel exception shipped back from a worker is *not* a supervision
event: it is deterministic physics, re-raised with its original type after
the wave is drained, exactly as the unsupervised pool behaves — retrying
it would just re-raise, and recovery for it belongs to the
checkpoint/rollback layer.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

from repro.parallel.errors import SupervisionExhausted, WorkerFailure
from repro.resilience.replay import ReplayPolicy

__all__ = ["SupervisionConfig", "SupervisionStats", "WorkerSupervisor"]

#: Deadline floor as a fraction of ``worker_timeout_s``: even a near-zero
#: cost wave gets a quarter of the budget (message latency does not scale
#: with spec cost).
_DEADLINE_FLOOR = 0.25

#: Extra real-time grace granted per remaining worker once the shared wave
#: deadline has passed — drains slow-but-alive survivors instead of
#: misclassifying them as hung behind a genuinely hung one.
_DRAIN_GRACE_S = 0.25


@dataclass(frozen=True)
class SupervisionConfig:
    """Knobs of the self-healing loop (CLI: ``--worker-timeout``,
    ``--max-worker-respawns``, ``--no-degrade``)."""

    worker_timeout_s: float = 10.0
    max_respawns: int = 2
    max_wave_retries: int = 2
    degrade: bool = True
    backoff_base_ns: int = ReplayPolicy.backoff_base_ns

    def __post_init__(self) -> None:
        if self.worker_timeout_s <= 0:
            raise ValueError(
                f"worker_timeout_s must be > 0, got {self.worker_timeout_s}"
            )
        if self.max_respawns < 0 or self.max_wave_retries < 0:
            raise ValueError("supervision budgets must be >= 0")


@dataclass
class SupervisionStats:
    """Counts behind the ``/parallel/supervision/*`` counters."""

    worker_losses: int = 0
    deaths: int = 0
    hangs: int = 0
    garbles: int = 0
    respawns: int = 0
    wave_retries: int = 0
    shadow_restores: int = 0
    shadow_bytes_peak: int = 0
    degraded: bool = False
    loss_log: list = field(default_factory=list, repr=False)

    def note_loss(self, worker: int, reason: str, cycle: int, wave: int) -> None:
        """Account one classified worker loss in the per-reason tallies."""
        self.worker_losses += 1
        if reason == "dead":
            self.deaths += 1
        elif reason == "hang":
            self.hangs += 1
        else:
            self.garbles += 1
        self.loss_log.append(
            {"worker": worker, "reason": reason, "cycle": cycle, "wave": wave}
        )


class WorkerSupervisor:
    """Deadline-polling dispatch loop with respawn and bounded wave retry."""

    def __init__(
        self,
        pool,
        config: SupervisionConfig | None = None,
        flight_recorder=None,
        sleep=_time.sleep,
    ) -> None:
        self.pool = pool
        self.config = config or SupervisionConfig()
        self.stats = SupervisionStats()
        self._flight = flight_recorder
        self._sleep = sleep
        self._deadlines: tuple[float, ...] = ()

    # --- planning -------------------------------------------------------------

    def install_plan(self, schedule, assignments) -> None:
        """Derive per-wave deadlines from the schedule's cost estimates.

        A wave's wall time is governed by its most-loaded worker (the
        straggler), so each wave's deadline scales with its max per-worker
        assigned capture-time cost relative to the costliest wave's.  The
        backend installs them once per lowering, with the plan's LPT
        *assignments*.
        """
        costs = schedule.costs
        loads = [
            max((sum(costs[i] for i in idxs) for idxs in wave_assign), default=0)
            for wave_assign in assignments
        ]
        top = max(loads, default=0)
        budget = self.config.worker_timeout_s
        self._deadlines = tuple(
            budget * max(_DEADLINE_FLOOR, (ld / top) if top else 1.0)
            for ld in loads
        )

    def wave_deadline_s(self, wave_index: int) -> float:
        """The watchdog deadline for one wave (timeout when no plan is set)."""
        if wave_index < len(self._deadlines):
            return self._deadlines[wave_index]
        return self.config.worker_timeout_s

    # --- dispatch -------------------------------------------------------------

    def run_wave(
        self,
        domain,
        cycle: int,
        wave_index: int,
        assignment,
        faults=None,
        shadow=None,
    ):
        """Execute one wave with recovery; returns ``(partials, busy_ns)``.

        *assignment* is the per-worker index-tuple row for this wave;
        *faults* maps worker index -> injected fault kind for this cycle
        (consumed on the first wave where the worker is active); *shadow*
        is the wave's :class:`~repro.parallel.shadow.WaveShadow` (or
        ``None``), restored before every retry.  *partials* gathers the
        workers' ``(index, value)`` spec results and *busy_ns* sums their
        spec execution time, both from the attempt that succeeded.

        Raises :class:`SupervisionExhausted` when the respawn or retry
        budget runs out (the wave's shadow has been restored, so the
        caller may re-execute the wave through any other path), and
        re-raises worker kernel exceptions with their original type.
        """
        if shadow is not None:
            self.stats.shadow_bytes_peak = max(
                self.stats.shadow_bytes_peak, shadow.nbytes
            )
        attempt = 0
        while True:
            failures, results, busy_ns, kernel_err = self._dispatch_once(
                domain, cycle, wave_index, assignment, faults
            )
            if failures:
                try:
                    self._recover_workers(failures, cycle, wave_index)
                except SupervisionExhausted:
                    self._restore(shadow, domain)
                    raise
            if kernel_err is not None:
                # Deterministic physics abort: never retried, but the pool
                # has already been healed above so rollback can reuse it.
                raise kernel_err
            if not failures:
                return results, busy_ns
            attempt += 1
            if attempt > self.config.max_wave_retries:
                self._restore(shadow, domain)
                raise SupervisionExhausted(
                    f"wave {wave_index} (cycle {cycle}) still failing after "
                    f"{self.config.max_wave_retries} retries"
                )
            self._restore(shadow, domain)
            self.stats.wave_retries += 1
            self._record(
                "wave_retry",
                cycle=cycle,
                wave=wave_index,
                attempt=attempt,
                restored_bytes=shadow.nbytes if shadow is not None else 0,
            )
            self._sleep(self.config.backoff_base_ns * (1 << (attempt - 1)) / 1e9)

    def _restore(self, shadow, domain) -> None:
        if shadow is not None:
            shadow.restore(domain)
            self.stats.shadow_restores += 1

    def _dispatch_once(self, domain, cycle, wave_index, assignment, faults):
        """One send/collect round; never raises for worker failures.

        Returns ``(failures, results, busy_ns, kernel_err)`` where
        *failures* maps worker index -> :class:`WorkerFailure`.  Every
        worker the wave was sent to is drained (reply, failure, or
        deadline) before returning, keeping surviving pipes
        message-aligned.
        """
        pool = self.pool
        active = [w for w in range(pool.n_workers) if assignment[w]]
        failures: dict[int, WorkerFailure] = {}
        sent: list[int] = []
        for w in active:
            fault = faults.pop(w, None) if faults else None
            try:
                pool.send_wave(
                    w, domain.deltatime, domain.time, cycle, assignment[w], fault
                )
            except WorkerFailure as exc:
                failures[w] = exc
                continue
            sent.append(w)
        deadline = _time.monotonic() + self.wave_deadline_s(wave_index)
        results: list = []
        busy_ns = 0
        kernel_err: BaseException | None = None
        for w in sent:
            remaining = max(deadline - _time.monotonic(), _DRAIN_GRACE_S)
            try:
                partials, worker_busy_ns = pool.reply_deadline(w, remaining)
                results.extend(partials)
                busy_ns += worker_busy_ns
            except WorkerFailure as exc:
                failures[w] = exc
            except BaseException as exc:
                if kernel_err is None:
                    kernel_err = exc
        return failures, results, busy_ns, kernel_err

    # --- recovery -------------------------------------------------------------

    def _recover_workers(self, failures, cycle, wave_index) -> None:
        """Kill/reap every failed worker and respawn within budget.

        Raises :class:`SupervisionExhausted` once the respawn budget is
        spent — the failed worker is reaped but *not* replaced.
        """
        for w, exc in sorted(failures.items()):
            exitcode = self.pool.kill_worker(w)
            self.stats.note_loss(w, exc.reason, cycle, wave_index)
            self._record(
                "worker_lost",
                worker=w,
                reason=exc.reason,
                cycle=cycle,
                wave=wave_index,
                exitcode=exitcode,
            )
            if self.stats.respawns >= self.config.max_respawns:
                raise SupervisionExhausted(
                    f"worker {w} lost ({exc.reason}) but the respawn budget "
                    f"({self.config.max_respawns}) is spent"
                )
            self.pool.respawn_worker(w)
            self.stats.respawns += 1
            self._record(
                "worker_respawn",
                worker=w,
                cycle=cycle,
                respawns=self.stats.respawns,
            )

    def _record(self, kind: str, **args) -> None:
        if self._flight is not None:
            self._flight.record(kind, **args)
