"""The campaign scheduler: admission, dedup, execution, retry, cancellation.

:class:`CampaignScheduler` is the front door of simulation-as-a-service.
Jobs are submitted as :class:`~repro.serve.job.JobSpec`\\ s and admitted
into a priority queue (higher ``priority`` first, FIFO within a priority).
A bounded set of *lanes* (worker threads; default 1 for strictly
deterministic campaigns) drains the queue; each lane:

1. resolves the spec against the tuning DB and fingerprints it;
2. consults the content-addressed :class:`~repro.serve.cache.ResultCache`
   — a hit completes the job without touching an executor;
3. on a miss, borrows a warm executor from the shared
   :class:`~repro.serve.executor.ExecutorPool` (building one on first use
   of a shape/knob class) and runs the simulation with a fresh per-job
   counter registry;
4. stores clean results back into the cache, so every later identical
   request — this campaign or the next process — is a hit.

Failures are classified with the resilience layer's
:class:`~repro.resilience.replay.ReplayPolicy`: deterministic physics
aborts fail immediately, transient failures (timeouts, injected faults)
are retried up to ``spec.max_retries`` times with the same exponential
backoff schedule the task-replay path uses (here slept in real time,
scaled down — the scheduler waits, the DES does not exist at this layer).
Cancellation is graceful: a pending job is dropped at dequeue, a running
job observes its cancel event between leapfrog cycles.

Everything the scheduler does is observable: ``/serve/*`` counters over
:class:`ServeStats` and ``job_*`` flight-recorder events.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field

from repro.lulesh.costs import DEFAULT_COSTS, KernelCosts
from repro.resilience.replay import ReplayPolicy
from repro.serve.cache import CacheStats, ResultCache
from repro.serve.errors import JobCancelled, JobTimeout
from repro.serve.executor import ExecutorPool, WarmExecutor, executor_key
from repro.serve.fingerprint import job_fingerprint, resolve_spec
from repro.serve.job import JobRecord, JobSpec
from repro.simcore.machine import MachineConfig

__all__ = ["ServeStats", "CampaignScheduler"]

#: Real seconds slept per simulated backoff nanosecond — the resilience
#: schedule (100us, 200us, ... simulated) maps to 1ms, 2ms, ... real, long
#: enough to let a transient clear without stalling a campaign.
_BACKOFF_SCALE = 1e-8


@dataclass
class ServeStats:
    """Campaign accounting behind the ``/serve/*`` counters."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    timeouts: int = 0
    retried: int = 0
    template_reuses: int = 0
    wall_ns: int = 0
    cache: CacheStats = field(default_factory=CacheStats)

    def jobs_per_sec(self) -> float:
        """Completed-job throughput over the campaign's wall time."""
        if self.wall_ns <= 0:
            return 0.0
        return self.completed / (self.wall_ns / 1e9)


class CampaignScheduler:
    """Admit, deduplicate, execute, and account a campaign of jobs.

    Args:
        cache: result cache shared by every lane (None disables caching —
            every job recomputes; used by bit-identity tests).
        lanes: concurrent worker threads draining the queue.
        max_executors: bound on simultaneously-warm executor stacks.
        machine/costs/tuning: the campaign-wide simulated machine, kernel
            cost table, and tuning database consulted per job.
        flight_recorder: shared recorder for ``job_*`` lifecycle events
            (also handed to the runtimes, so task-level events interleave).
    """

    def __init__(
        self,
        cache: ResultCache | None = None,
        lanes: int = 1,
        max_executors: int = 4,
        machine: MachineConfig | None = None,
        costs: KernelCosts = DEFAULT_COSTS,
        tuning=None,
        flight_recorder=None,
    ) -> None:
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        self.cache = cache
        self.machine = machine or MachineConfig()
        self.costs = costs
        self.tuning = tuning
        self.flight_recorder = flight_recorder
        self.pool = ExecutorPool(max_executors=max_executors)
        self.stats = ServeStats()
        if cache is not None:
            self.stats.cache = cache.stats
        self._policy = ReplayPolicy()  # classification + backoff schedule
        self._lock = threading.Condition()
        self._queue: list[tuple[int, int, JobRecord]] = []
        self._records: dict[str, JobRecord] = {}
        self._cancel_events: dict[str, threading.Event] = {}
        self._seq = 0
        self._open_jobs = 0
        self._shutdown = False
        self._started_ns: int | None = None
        self._lanes = [
            threading.Thread(target=self._lane, name=f"serve-lane-{i}", daemon=True)
            for i in range(lanes)
        ]
        for t in self._lanes:
            t.start()

    # --- admission ------------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Admit one job; returns its live :class:`JobRecord`."""
        with self._lock:
            if self._shutdown:
                raise RuntimeError("scheduler is shut down")
            if self._started_ns is None:
                self._started_ns = time.perf_counter_ns()
            self._seq += 1
            record = JobRecord(
                job_id=f"job-{self._seq:05d}", spec=spec, seq=self._seq
            )
            self._records[record.job_id] = record
            self._cancel_events[record.job_id] = threading.Event()
            heapq.heappush(self._queue, (-spec.priority, self._seq, record))
            self.stats.submitted += 1
            self._open_jobs += 1
            self._lock.notify_all()
        self._record_event(
            "job_submitted", job_id=record.job_id, priority=spec.priority
        )
        return record

    def submit_all(self, specs) -> list[JobRecord]:
        """Submit each spec in order; returns their records."""
        return [self.submit(s) for s in specs]

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; True if the job was still cancellable.

        Pending jobs are dropped when dequeued; a running job sees its
        event at the next cycle boundary.  Finished jobs are left alone.
        """
        with self._lock:
            record = self._records.get(job_id)
            if record is None or record.done:
                return False
            record._cancel = True
            event = self._cancel_events.get(job_id)
        if event is not None:
            event.set()
        return True

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every submitted job is done; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._open_jobs > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._lock.wait(remaining)
        return True

    def run_campaign(self, specs, timeout: float | None = None) -> list[JobRecord]:
        """Submit *specs*, drain, and return their records in submit order."""
        records = self.submit_all(specs)
        self.drain(timeout)
        return records

    def close(self) -> None:
        """Stop the lanes and tear down every warm executor.  Idempotent."""
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
            self._lock.notify_all()
        for t in self._lanes:
            t.join(timeout=30)
        self.pool.close()

    def __enter__(self) -> "CampaignScheduler":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # --- lane loop ------------------------------------------------------------

    def _lane(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._shutdown:
                    self._lock.wait()
                if self._shutdown and not self._queue:
                    return
                _, _, record = heapq.heappop(self._queue)
            try:
                self._process(record)
            except Exception as exc:  # defensive: a lane must never die
                self._finish(record, "failed", error=f"internal: {exc!r}")

    def _process(self, record: JobRecord) -> None:
        if record._cancel:
            self._finish(record, "cancelled", error="cancelled before start")
            return
        spec = record.spec
        record.status = "running"
        resolved = resolve_spec(
            spec, machine=self.machine, costs=self.costs, tuning=self.tuning
        )
        record.resolved = resolved
        fingerprint = job_fingerprint(resolved)
        record.fingerprint = fingerprint
        if self.cache is not None and spec.cacheable:
            hit = self.cache.lookup(fingerprint, resolved)
            if hit is not None:
                record.result = hit
                record.cached = True
                self._record_event(
                    "job_cache_hit", job_id=record.job_id, fingerprint=fingerprint
                )
                self._finish(record, "completed")
                return
        self._execute(record, resolved, fingerprint)

    def _execute(self, record: JobRecord, resolved: dict, fingerprint: str) -> None:
        spec = record.spec
        cancel_event = self._cancel_events[record.job_id]
        attempts = spec.max_retries + 1
        for attempt in range(1, attempts + 1):
            record.attempts = attempt
            self._record_event(
                "job_start", job_id=record.job_id, attempt=attempt
            )
            key = executor_key(resolved)
            executor, reused = self.pool.acquire(
                key,
                lambda: WarmExecutor(
                    resolved, machine=self.machine, costs=self.costs
                ),
            )
            record.executor_reused = reused
            discard = False
            try:
                from repro.obs.registry import CounterRegistry

                registry = CounterRegistry()
                deadline = (
                    time.monotonic() + spec.timeout_s
                    if spec.timeout_s is not None
                    else None
                )
                outcome = executor.run_job(
                    spec,
                    registry=registry,
                    flight_recorder=self.flight_recorder,
                    cancel_event=cancel_event,
                    deadline=deadline,
                )
            except JobCancelled:
                self._finish(record, "cancelled", error="cancelled mid-run")
                return
            except JobTimeout as exc:
                # Cooperative: raised between cycles, warm state intact.
                if attempt < attempts:
                    self._backoff(record, attempt, exc)
                    continue
                self._finish(record, "timeout", error=str(exc))
                return
            except Exception as exc:
                # Anything escaping mid-cycle may leave pending tasks in
                # the runtime; the stack is not safely warm any more.
                discard = True
                if self._policy.retryable(exc) and attempt < attempts:
                    self._backoff(record, attempt, exc)
                    continue
                self._finish(
                    record, "failed", error=f"{type(exc).__name__}: {exc}"
                )
                return
            else:
                discard = executor.backend is not None and executor.backend.degraded
                record.template_reused = outcome.template_reused
                record.wall_ns = outcome.wall_ns
                record.result = outcome.result
                if outcome.template_reused:
                    self.stats.template_reuses += 1
                if self.cache is not None and spec.cacheable:
                    self.cache.store(
                        fingerprint, resolved, outcome.result,
                        clean=outcome.clean,
                    )
                self._finish(record, "completed")
                return
            finally:
                self.pool.release(key, discard=discard)

    def _backoff(self, record: JobRecord, attempt: int, exc: Exception) -> None:
        self.stats.retried += 1
        self._record_event(
            "job_failed",
            job_id=record.job_id,
            status="retrying",
            error=f"{type(exc).__name__}: {exc}",
        )
        time.sleep(self._policy.backoff_ns(attempt) * _BACKOFF_SCALE)

    def _finish(self, record: JobRecord, status: str, error: str | None = None) -> None:
        record.status = status
        record.error = error
        with self._lock:
            if status == "completed":
                self.stats.completed += 1
            elif status == "cancelled":
                self.stats.cancelled += 1
            elif status == "timeout":
                self.stats.timeouts += 1
                self.stats.failed += 1
            else:
                self.stats.failed += 1
            self._open_jobs -= 1
            # The caller keeps its record; the scheduler forgets the job.
            self._records.pop(record.job_id, None)
            self._cancel_events.pop(record.job_id, None)
            if self._started_ns is not None:
                self.stats.wall_ns = time.perf_counter_ns() - self._started_ns
            self._lock.notify_all()
        if status == "completed":
            self._record_event(
                "job_done",
                job_id=record.job_id,
                cached=record.cached,
                wall_ns=record.wall_ns,
            )
        else:
            self._record_event(
                "job_failed", job_id=record.job_id, status=status, error=error
            )

    def _record_event(self, kind: str, **fields) -> None:
        if self.flight_recorder is not None:
            self.flight_recorder.record(kind, **fields)
