"""Work-stealing worker-pool discrete-event simulator.

This is the execution engine underneath the HPX-like runtime
(:mod:`repro.amt`).  It executes a dependency graph of :class:`SimTask`
objects on ``n_workers`` simulated OS threads placed on the
:class:`~repro.simcore.machine.MachineConfig` machine, reproducing the
mechanics the paper relies on:

* **per-worker queues with LIFO local access and FIFO stealing** — HPX's
  default *priority local scheduling policy* (§V: "The task scheduling
  policy being used is HPX's default priority local scheduling policy");
* **hot continuations** — a task made ready by a completing task is pushed
  to the completing worker's queue, so a ``future::then`` chain tends to
  stay on one core (data locality, §IV);
* **serialized task creation** — the main thread pre-creates the whole task
  graph (§IV: "we pre-create *all* tasks for one iteration of the leapfrog
  algorithm at once"), so tasks are *released* over time while other workers
  already execute released ones;
* **explicit overhead charging** for spawn / dispatch / steal / retire, which
  is what makes single-threaded HPX slower than single-threaded OpenMP in
  Fig. 9 while many-threaded HPX wins.

The simulation is a pure function of its inputs: integer-ns virtual time,
insertion-ordered event ties, and deterministic victim scan order.

Task bodies, when present, are executed at dispatch time in virtual-time
order — which is a valid linearization of the dependency graph — so "real
physics" runs produce exactly the same field updates a parallel execution
would, while "timing-only" runs pass ``body=None`` and skip all compute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.simcore.costmodel import CostModel
from repro.simcore.events import EventQueue
from repro.simcore.machine import MachineConfig
from repro.simcore.policy import SchedulerPolicy, WorkQueue
from repro.simcore.trace import TraceRecorder

__all__ = ["SimTask", "SimWorkerPool", "PoolResult"]

# Task lifecycle states (ints for cheap comparison).
_CREATED = 0
_READY = 1
_RUNNING = 2
_DONE = 3


class SimTask:
    """One node of the simulated task graph.

    Attributes:
        cost_ns: productive work the task performs, in ns at speed 1.0.
        body: optional Python callable executed when the task is dispatched
            (the real NumPy kernel over this task's partition).
        tag: label for tracing/debugging (e.g. kernel name).
        spawn_ns: creation cost charged to the spawning thread; ``None``
            means use the pool's default (``CostModel.task_spawn_ns``).
        priority: reserved — the paper does not use task priorities, and the
            default pool ignores this field, but it is part of the scheduler
            surface (HPX's policy supports it).
        desc: what the task does, for the layers above the runtime (the
            process-backend lowering, the fault injector); the runtime
            never looks inside it.
    """

    __slots__ = (
        "task_id",
        "cost_ns",
        "body",
        "tag",
        "desc",
        "spawn_ns",
        "priority",
        "dependents",
        "parents",
        "pending",
        "released",
        "state",
        "finish_ns",
    )

    def __init__(
        self,
        cost_ns: int,
        body: Callable[[], object] | None = None,
        tag: str = "task",
        spawn_ns: int | None = None,
        priority: int = 0,
        desc: object = None,
    ) -> None:
        if cost_ns < 0:
            raise ValueError(f"cost_ns must be non-negative, got {cost_ns}")
        self.task_id = -1  # assigned by the pool at run()
        self.cost_ns = cost_ns
        self.body = body
        self.tag = tag
        self.desc = desc
        self.spawn_ns = spawn_ns
        self.priority = priority
        self.dependents: list[SimTask] = []
        self.parents: list[SimTask] = []
        self.pending = 0
        self.released = False
        self.state = _CREATED
        self.finish_ns = -1

    def depends_on(self, *others: "SimTask") -> "SimTask":
        """Declare that this task runs only after all *others* complete.

        Dependencies on already-completed tasks (from an earlier pool run,
        e.g. before a blocking ``wait_all``) are satisfied trivially and not
        recorded.
        """
        for other in others:
            if other is self:
                raise ValueError("task cannot depend on itself")
            if other.state == _DONE:
                continue
            other.dependents.append(self)
            self.parents.append(other)
            self.pending += 1
        return self

    @property
    def is_done(self) -> bool:
        """True once the task has executed in some pool run."""
        return self.state == _DONE

    def reset_for_replay(self, cost_ns: int) -> None:
        """Re-arm an executed task so a captured graph can run it again.

        Restores the creation-time lifecycle fields in place (no
        allocation): the recorded dependency topology is kept, ``pending``
        is recomputed from the recorded parents (parents outside the
        captured segment were never recorded — see :meth:`depends_on`), and
        ``cost_ns`` is restored from the caller's capture-time snapshot
        because execution may have mutated it (bounded-replay backoff,
        stall faults).  The pool assigns a fresh ``task_id`` at the next
        run, in the same relative order, so traces and critical-path
        analyses of a replayed segment are structurally identical to the
        original's.
        """
        if self.state != _DONE:
            raise ValueError(
                f"cannot reset task {self.tag!r}: not executed "
                f"(state={self.state})"
            )
        self.task_id = -1
        self.cost_ns = cost_ns
        self.pending = len(self.parents)
        self.released = False
        self.state = _CREATED
        self.finish_ns = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimTask(id={self.task_id}, tag={self.tag!r}, cost={self.cost_ns}ns, "
            f"pending={self.pending}, state={self.state})"
        )


@dataclass(frozen=True)
class PoolResult:
    """Outcome of one simulated graph execution.

    ``order`` lists the tasks in the order they were dispatched, as
    positions in the submitted task list.  It is what
    :meth:`SimWorkerPool.reapply` needs to run the same segment's bodies
    again without simulating it.
    """

    makespan_ns: int
    trace: TraceRecorder
    n_tasks: int
    spawn_total_ns: int
    order: tuple[int, ...] = ()

    def utilization(self) -> float:
        """Fig.-11-style productive-time ratio for this run."""
        if self.makespan_ns == 0:
            return 1.0
        return self.trace.utilization(self.makespan_ns)


# Event payloads.
_EV_RELEASE = 0  # (kind, task)
_EV_FINISH = 1  # (kind, worker, task)
_EV_SPAWN_DONE = 2  # (kind, worker)


class SimWorkerPool:
    """Executes :class:`SimTask` graphs on the simulated machine.

    One pool instance can run many graphs sequentially; traces accumulate
    into a fresh :class:`TraceRecorder` per run (merge them in the caller if
    an aggregate across iterations is needed).
    """

    def __init__(
        self,
        machine: MachineConfig,
        cost_model: CostModel,
        n_workers: int,
        record_spans: bool = False,
        policy: SchedulerPolicy | None = None,
    ) -> None:
        machine.validate_workers(n_workers)
        self.machine = machine
        self.cost_model = cost_model
        self.n_workers = n_workers
        self.record_spans = record_spans
        self.policy = policy if policy is not None else SchedulerPolicy.hpx_default()
        # Task ids are unique across this pool's lifetime (not per run), so
        # spans merged across flushes keep unambiguous dependency edges.
        self._next_task_id = 0
        # Per-worker inverse speeds, fixed for the run (static placement).
        self._speeds = [
            machine.worker_speed(w, n_workers) for w in range(n_workers)
        ]

    # --- helpers -------------------------------------------------------------

    def _scale(self, ns: int, worker: int) -> int:
        """Wall-clock ns on *worker* for *ns* of speed-1.0 work."""
        return int(round(ns / self._speeds[worker]))

    def _number(self, task_list: Sequence[SimTask]) -> int:
        """Give fresh *task_list* the next consecutive ids; returns the first."""
        for task in task_list:
            if task.state != _CREATED:
                raise ValueError(f"task {task.tag!r} was already executed")
        return self.renumber(task_list)

    def renumber(self, tasks: Sequence[SimTask]) -> int:
        """Give *tasks* the next consecutive ids, whatever their state.

        Returns the first id.  :meth:`run` and :meth:`reapply` number
        fresh tasks through it; the runtime calls it alone for a segment
        it serves as already executed
        (:meth:`~repro.amt.runtime.AmtRuntime.replay_graph`).
        """
        first = self._next_task_id
        for task_id, task in enumerate(tasks, first):
            task.task_id = task_id
        self._next_task_id = first + len(tasks)
        return first

    # --- execution -------------------------------------------------------------

    def run(
        self,
        tasks: Sequence[SimTask] | Iterable[SimTask],
        spawn_worker: int = 0,
        execute_bodies: bool = True,
    ) -> PoolResult:
        """Simulate the execution of *tasks* and return timing + trace.

        Tasks are released (become spawnable/ready) in list order, each after
        its ``spawn_ns`` charged serially to *spawn_worker* — modeling the
        main thread building the whole task graph up front.  The spawning
        worker joins execution once the last task is created.
        """
        task_list = list(tasks)
        if not task_list:
            return PoolResult(
                makespan_ns=0,
                trace=TraceRecorder(self.n_workers, self.record_spans),
                n_tasks=0,
                spawn_total_ns=0,
            )
        if not 0 <= spawn_worker < self.n_workers:
            raise ValueError(
                f"spawn_worker {spawn_worker} out of range for "
                f"{self.n_workers} workers"
            )

        cm = self.cost_model
        n = self.n_workers
        trace = TraceRecorder(n, self.record_spans)
        events = EventQueue()
        queues: list[WorkQueue] = [WorkQueue(self.policy) for _ in range(n)]
        # Workers whose ready queue holds a task, kept in step with every
        # push, pop and steal: an idle worker's steal scan reads it instead
        # of probing each victim queue in turn.
        stocked: set[int] = set()
        # Workers not currently executing or spawning.  Sorted wake order is
        # enforced by scanning worker ids, which is deterministic.
        idle: set[int] = set(range(n))
        idle.discard(spawn_worker)
        # Per-worker costs that do not depend on the task, scaled once.
        schedule_ns = [self._scale(cm.task_schedule_ns, w) for w in range(n)]
        probe_ns = [self._scale(cm.steal_attempt_ns, w) for w in range(n)]

        first_id = self._number(task_list)
        order: list[int] = []

        # Release schedule: spawn costs accumulate serially on spawn_worker.
        t = 0
        for task in task_list:
            spawn_ns = task.spawn_ns if task.spawn_ns is not None else cm.task_spawn_ns
            t += self._scale(spawn_ns, spawn_worker)
            events.push(t, (_EV_RELEASE, task))
        spawn_total_ns = t
        trace.add_spawn(spawn_worker, spawn_total_ns)
        events.push(spawn_total_ns, (_EV_SPAWN_DONE, spawn_worker))

        remaining = len(task_list)
        makespan = 0

        def acquire(worker: int) -> tuple[SimTask | None, int]:
            """Try to obtain a task for *worker*; returns (task, overhead).

            The steal scan probes victims in a deterministic rotation
            starting at worker+1 and charges one probe per victim up to and
            including the first one holding a task (all ``n - 1`` when none
            does).  Empty victims are skipped in bulk: the first stocked
            victim in rotation order is the one a probe-by-probe scan would
            reach, so overheads and steal counters are those of the scan.
            """
            q = queues[worker]
            if worker in stocked:
                task = q.pop_local()
                if not q:
                    stocked.discard(worker)
                return task, schedule_ns[worker]
            if not stocked:
                trace.add_steal(worker, False, attempts=n - 1)
                return None, probe_ns[worker] * (n - 1)
            step = min((v - worker) % n for v in stocked)
            victim = (worker + step) % n
            vq = queues[victim]
            stolen = vq.steal()
            if not vq:
                stocked.discard(victim)
            # Migration cost per stolen task; extras land on the thief's
            # own queue (Cilk-style steal-half).
            overhead = probe_ns[worker] * step + self._scale(
                cm.steal_success_ns * len(stolen) + cm.task_schedule_ns,
                worker,
            )
            if len(stolen) > 1:
                for extra in stolen[1:]:
                    q.push(extra)
                stocked.add(worker)
            trace.add_steal(worker, True, attempts=step)
            return stolen[0], overhead

        def dispatch(worker: int, task: SimTask, now: int, overhead: int) -> None:
            """Start *task* on *worker* at *now* after *overhead* ns."""
            nonlocal makespan
            if task.pending != 0 or not task.released:
                raise AssertionError(
                    f"dispatching task {task.tag!r} with pending deps"
                )
            task.state = _RUNNING
            order.append(task.task_id - first_id)
            trace.add_overhead(worker, overhead)
            if execute_bodies and task.body is not None:
                task.body()
            busy = self._scale(task.cost_ns, worker)
            trace.add_busy(worker, busy)
            start = now + overhead
            end = start + busy
            parents = (
                tuple(p.task_id for p in task.parents)
                if self.record_spans
                else ()
            )
            trace.add_task(worker, task.task_id, task.tag, start, end, parents)
            events.push(end, (_EV_FINISH, worker, task))

        def seek_work(worker: int, now: int) -> None:
            """Worker looks for its next task or goes idle."""
            task, overhead = acquire(worker)
            if task is not None:
                dispatch(worker, task, now, overhead)
            else:
                trace.add_overhead(worker, overhead)
                idle.add(worker)

        def make_ready(task: SimTask, home: int, now: int) -> None:
            """Queue a ready task and wake an idle worker if any."""
            task.state = _READY
            queues[home].push(task)
            stocked.add(home)
            if not idle:
                return
            # Prefer the queue's owner, then the lowest idle worker id.
            if home in idle:
                chosen = home
            else:
                chosen = min(idle)
            idle.discard(chosen)
            seek_work(chosen, now)

        while events:
            now, payload = events.pop()
            kind = payload[0]
            if kind == _EV_RELEASE:
                task = payload[1]
                task.released = True
                if task.pending == 0:
                    make_ready(task, spawn_worker, now)
            elif kind == _EV_SPAWN_DONE:
                worker = payload[1]
                seek_work(worker, now)
            elif kind == _EV_FINISH:
                worker, task = payload[1], payload[2]
                task.state = _DONE
                task.finish_ns = now
                remaining -= 1
                makespan = max(makespan, now)
                retire = self._scale(
                    cm.task_complete_ns
                    + cm.barrier_join_ns * len(task.dependents),
                    worker,
                )
                trace.add_overhead(worker, retire)
                done_at = now + retire
                makespan = max(makespan, done_at)
                for dep in task.dependents:
                    dep.pending -= 1
                    if dep.pending == 0 and dep.released:
                        # Hot continuation: stays on the completing worker's
                        # queue unless an idle worker grabs it.
                        make_ready(dep, worker, now)
                seek_work(worker, done_at)
            else:  # pragma: no cover - defensive
                raise AssertionError(f"unknown event kind {kind}")

        if remaining != 0:
            stuck = [t.tag for t in task_list if t.state != _DONE][:8]
            raise RuntimeError(
                f"deadlock: {remaining} tasks never became ready "
                f"(cyclic or missing dependencies?), e.g. {stuck}"
            )
        return PoolResult(
            makespan_ns=makespan,
            trace=trace,
            n_tasks=len(task_list),
            spawn_total_ns=spawn_total_ns,
            order=tuple(order),
        )

    def reapply(self, tasks: Sequence[SimTask], result: PoolResult) -> None:
        """Execute *tasks* again with an outcome already simulated.

        *result* must be what :meth:`run` returned for this same segment
        (the same tasks, costs and topology) on this pool.  The
        simulation is a pure function of those, so a second run would
        differ only in its task ids.  This numbers the tasks as
        :meth:`run` would, executes their bodies in ``result.order`` and
        marks them done, without simulating; ``finish_ns`` stays unset.
        """
        if len(tasks) != result.n_tasks:
            raise ValueError(
                f"segment of {len(tasks)} tasks cannot reapply a result "
                f"of {result.n_tasks}"
            )
        self._number(tasks)
        for i in result.order:
            task = tasks[i]
            task.state = _RUNNING
            if task.body is not None:
                task.body()
            task.pending = 0
            task.released = True
            task.state = _DONE
