"""Warm executors: long-lived run sessions shared by same-key jobs.

The expensive parts of serving one more simulation are exactly the parts
that do not depend on *which* job it is within a shape/knob class: building
the Domain (mesh topology, region tables, workspace arena), capturing the
cycle-1 task graph, and — for the process backend — creating the shared-
memory segment and fork-server worker pool.  A :class:`WarmExecutor` owns
one :class:`~repro.core.session.Session` holding such a stack, keyed by
everything that shapes it (:func:`executor_key`: shape + impl + knobs,
**excluding** the iteration count, which is run-length control), and
serves any number of jobs: each job rewinds the session in place
(:meth:`~repro.core.session.Session.rewind` keeps the captured
:class:`~repro.amt.graph.GraphTemplate` and the worker pool) and runs it
with a fresh per-job counter registry and the campaign's flight recorder,
so job N+1 never reports job N's numbers.  Cancellation and the deadline
are checked between cycles.

The executor distils each run into a deterministic result payload
(counters filtered of wall-clock-only families, each read from its last
recorded sample) plus non-cacheable metadata (host wall time, reuse
flags).

:class:`ExecutorPool` bounds how many stacks exist at once, evicting the
least-recently-used idle executor when a new key needs a slot.
"""

from __future__ import annotations

import fnmatch
import functools
import threading
import time
from collections import OrderedDict

from repro.core.session import RunResult, Session
from repro.lulesh.costs import DEFAULT_COSTS, KernelCosts
from repro.obs.diff import DEFAULT_SKIP
from repro.obs.registry import CounterRegistry
from repro.resilience.plan import ResiliencePlan
from repro.serve.job import JobSpec
from repro.simcore.machine import MachineConfig

__all__ = ["WarmExecutor", "ExecutorPool", "executor_key", "JobOutcome"]

#: Counter families stripped from cached result payloads: wall-clock
#: families (nondeterministic across hosts) plus the families whose values
#: depend on executor *warmth* — ``/graph/*`` capture/replay splits and
#: ``/arena/*`` allocation/reuse tallies differ between a cold first run
#: and a warm re-run even though the physics and simulated timing are
#: bit-identical.  Only warmth-independent counters may be cached, so a
#: cache hit is indistinguishable from recomputation.
SNAPSHOT_SKIP = tuple(DEFAULT_SKIP) + ("/serve/*", "/graph/*", "/arena/*")

#: Extra families stripped for **process-backend** jobs.  Real-parallel
#: execution drives the kernels through the worker pool, so the simulated
#: runtime only runs during graph capture — its timing/thread/scheduler
#: tallies therefore depend on whether the template was already warm, and
#: a cached snapshot must not contain them.
PROCESS_SNAPSHOT_SKIP = ("/amt/*", "/runtime/*", "/threads*", "/scheduler/*")


def executor_key(resolved: dict) -> tuple:
    """The warm-stack identity of a resolved job (iterations excluded)."""
    shape = resolved["shape"]
    knobs = resolved["knobs"]
    return (
        resolved["impl"],
        resolved["execute"],
        shape["nx"],
        shape["numReg"],
        shape["threads"],
        resolved["variant"],
        knobs["nodal_partition"],
        knobs["elements_partition"],
        knobs["balanced"],
        knobs["replay_graph"],
        knobs["backend"],
        knobs["workers"],
    )


@functools.lru_cache(maxsize=4096)
def _skipped(path: str, skip: tuple[str, ...]) -> bool:
    """Whether *path* matches a *skip* pattern, decided once per pair."""
    return any(fnmatch.fnmatch(path, pat) for pat in skip)


def _filtered_counters(
    registry: CounterRegistry, skip: tuple[str, ...] = SNAPSHOT_SKIP
) -> dict[str, float]:
    """Each deterministic counter's last recorded sample, sorted by path."""
    return {
        path: value
        for path, value in sorted(registry.last_values().items())
        if not _skipped(path, skip)
    }


class JobOutcome:
    """What one executed job produced.

    ``result`` is the deterministic (cacheable) payload; everything else
    describes *this* execution and never enters the cache.
    """

    __slots__ = ("result", "clean", "wall_ns", "template_reused")

    def __init__(self, result: dict, clean: bool, wall_ns: int,
                 template_reused: bool) -> None:
        self.result = result
        self.clean = clean
        self.wall_ns = wall_ns
        self.template_reused = template_reused


class WarmExecutor:
    """One run session, reusable across same-key jobs."""

    def __init__(
        self,
        resolved: dict,
        machine: MachineConfig | None = None,
        costs: KernelCosts = DEFAULT_COSTS,
    ) -> None:
        self.resolved = resolved
        self.key = executor_key(resolved)
        self.jobs_served = 0
        self._lock = threading.Lock()
        self.session = Session.from_resolved(resolved, machine, costs)

    @property
    def program(self):
        return self.session.program

    @property
    def backend(self):
        return self.session.backend

    def run_job(
        self,
        spec: JobSpec,
        registry: CounterRegistry | None = None,
        flight_recorder=None,
        cancel_event: threading.Event | None = None,
        deadline: float | None = None,
    ) -> JobOutcome:
        """Execute *spec* on the warm stack and distil its outcome.

        *registry* must be a **fresh per-job** registry (or None);
        *deadline* is a ``time.monotonic()`` instant checked between
        cycles (:class:`~repro.serve.errors.JobTimeout`), *cancel_event*
        likewise (:class:`~repro.serve.errors.JobCancelled`) — both
        cooperative, so the warm state stays consistent for the next job.
        """
        with self._lock:
            t0 = time.perf_counter_ns()
            session = self.session
            plan = (
                ResiliencePlan(inject=spec.inject, fault_seed=spec.fault_seed)
                if spec.inject
                else None
            )
            session.rewind(flight_recorder)
            program = session.program
            template_was_warm = (
                session.impl != "omp" and program._template is not None
            )
            result = session.run(
                spec.i, registry=registry, resilience=plan,
                flight_recorder=flight_recorder, cancel_event=cancel_event,
                deadline=deadline,
            )
            backend = session.backend
            self.jobs_served += 1
            return JobOutcome(
                result=self._payload(result, registry),
                clean=plan is None and not (backend and backend.degraded),
                wall_ns=time.perf_counter_ns() - t0,
                template_reused=(
                    template_was_warm and program.graph_stats.captures == 0
                ),
            )

    def _payload(self, result: RunResult, registry) -> dict:
        runtime_ns, utilization, n_tasks = (
            result.runtime_ns, result.utilization, result.n_tasks
        )
        skip = SNAPSHOT_SKIP
        if self.session.backend is not None:
            # Real-parallel job: the runtime figure is the simulated capture
            # plus host wall-clock, and the snapshot keeps only warmth-
            # independent counters.  Task/utilization tallies straddle the
            # sim capture and the pool (whose per-cycle counts differ), so
            # neither has a warmth-independent value here.
            runtime_ns += self.session.rt.stats.total_ns
            utilization = n_tasks = None
            skip = SNAPSHOT_SKIP + PROCESS_SNAPSHOT_SKIP
        d = result.domain
        iterations = result.iterations
        return {
            "runtime_ns": int(runtime_ns),
            "iterations": int(iterations),
            "per_iteration_ns": (runtime_ns / iterations) if iterations else 0.0,
            "utilization": None if utilization is None else float(utilization),
            "n_tasks": None if n_tasks is None else int(n_tasks),
            "energy": float(d.e[0]) if d is not None else None,
            "time_final": float(d.time) if d is not None else None,
            "dt_final": float(d.deltatime) if d is not None else None,
            "cycle": int(d.cycle) if d is not None else None,
            "counters": _filtered_counters(registry, skip) if registry else {},
        }

    def close(self) -> None:
        """Release the backend worker pool (idempotent)."""
        self.session.close()


class ExecutorPool:
    """Bounded keyed pool of warm executors with LRU eviction.

    ``acquire`` hands out an idle executor for *key* (building one via
    *factory* on first use) and marks it busy; ``release`` returns it.
    When all *max_executors* slots hold other keys, the least-recently-
    used **idle** executor is closed to make room — if every executor is
    busy, ``acquire`` blocks until one is released.
    """

    def __init__(self, max_executors: int = 4) -> None:
        if max_executors < 1:
            raise ValueError(f"max_executors must be >= 1, got {max_executors}")
        self.max_executors = max_executors
        self._executors: OrderedDict[tuple, WarmExecutor] = OrderedDict()
        self._busy: set[tuple] = set()
        self._building: set[tuple] = set()
        self._cond = threading.Condition()
        self.created = 0
        self.reused = 0
        self.evicted = 0

    def acquire(self, key: tuple, factory) -> tuple[WarmExecutor, bool]:
        """Return ``(executor, reused)`` for *key*, marking it busy."""
        with self._cond:
            while True:
                if key in self._executors:
                    if key not in self._busy:
                        self._busy.add(key)
                        self._executors.move_to_end(key)
                        self.reused += 1
                        return self._executors[key], True
                    # The same key is running another job; wait for it —
                    # executors are single-lane by design (one domain).
                    self._cond.wait()
                    continue
                if key in self._building:
                    # Another lane is constructing this key; wait for it.
                    self._cond.wait()
                    continue
                if len(self._executors) + len(self._building) < self.max_executors:
                    self._building.add(key)
                    break
                if not self._evict_one_idle():
                    self._cond.wait()
        # Build outside the lock: domain construction and pool start are
        # the slow path and must not serialize unrelated lanes.
        try:
            executor = factory()
        except BaseException:
            with self._cond:
                self._building.discard(key)
                self._cond.notify_all()
            raise
        with self._cond:
            self._building.discard(key)
            self._executors[key] = executor
            self._busy.add(key)
            self.created += 1
            self._cond.notify_all()
        return executor, False

    def _evict_one_idle(self) -> bool:
        for key in self._executors:
            if key not in self._busy:
                victim = self._executors.pop(key)
                victim.close()
                self.evicted += 1
                return True
        return False

    def release(self, key: tuple, discard: bool = False) -> None:
        """Return *key*'s executor to the pool (``discard`` closes it)."""
        with self._cond:
            self._busy.discard(key)
            if discard and key in self._executors:
                self._executors.pop(key).close()
                self.evicted += 1
            self._cond.notify_all()

    def close(self) -> None:
        """Close every pooled executor and empty the pool."""
        with self._cond:
            for executor in self._executors.values():
                executor.close()
            self._executors.clear()
            self._busy.clear()
            self._cond.notify_all()

    def __len__(self) -> int:
        return len(self._executors)
