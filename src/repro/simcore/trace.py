"""Execution tracing and worker utilization accounting.

Reproduces the measurement methodology of the paper's Fig. 11: the ratio of
*productive* time (worker threads actually performing kernel computations)
to total execution time.  Following §V-A:

* for the HPX-like runtime, task-creation time counts as productive ("we ...
  do include the task creation in our HPX implementation") while scheduler
  management (queue pops, steal probes, context switches) and idling count
  against it — this mirrors HPX's ``/threads/idle-rate`` counter;
* for the OpenMP-like runtime, per-thread busy time inside parallel regions
  is productive and fork/barrier/imbalance waits are not, with the
  single-threaded program portions excluded from the denominator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["WorkerTrace", "TraceRecorder", "TaskSpan"]


@dataclass
class TaskSpan:
    """One executed task, for Gantt-style inspection in tests/examples.

    ``parents`` holds the task ids of this task's dependency predecessors
    (the edges of the pre-created graph), which lets the critical-path
    analyzer and the Chrome-trace flow events reconstruct the DAG from the
    recorded spans alone.

    ``cycle`` is the flush segment (leapfrog iteration, for the
    pre-created-graph variants) the span belongs to: each flush's
    discrete-event simulation starts at virtual t=0, so spans from
    different cycles overlap in raw time and ``(cycle, task_id)`` is the
    only collision-free span identity across graph-replayed runs.
    """

    worker: int
    task_id: int
    tag: str
    start_ns: int
    end_ns: int
    parents: tuple[int, ...] = ()
    cycle: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class WorkerTrace:
    """Per-worker accumulated time accounting (all integer nanoseconds)."""

    worker: int
    busy_ns: int = 0  # productive kernel work (incl. charged allocations)
    spawn_ns: int = 0  # task graph construction (productive per the paper)
    overhead_ns: int = 0  # scheduler management: dispatch, steals, retires
    tasks_run: int = 0
    steals: int = 0
    steal_attempts: int = 0

    def productive_ns(self) -> int:
        """Time counted as productive under the paper's methodology."""
        return self.busy_ns + self.spawn_ns


class TraceRecorder:
    """Collects per-worker traces and task spans for one simulated run."""

    def __init__(self, n_workers: int, record_spans: bool = False) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.workers = [WorkerTrace(worker=w) for w in range(n_workers)]
        self.record_spans = record_spans
        self.spans: list[TaskSpan] = []

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    def add_busy(self, worker: int, ns: int) -> None:
        """Add productive kernel time to *worker*."""
        self.workers[worker].busy_ns += ns

    def add_spawn(self, worker: int, ns: int) -> None:
        """Add task-creation time to *worker* (productive per the paper)."""
        self.workers[worker].spawn_ns += ns

    def add_overhead(self, worker: int, ns: int) -> None:
        """Add scheduler-management time to *worker*."""
        self.workers[worker].overhead_ns += ns

    def add_task(
        self,
        worker: int,
        task_id: int,
        tag: str,
        start_ns: int,
        end_ns: int,
        parents: tuple[int, ...] = (),
    ) -> None:
        """Record one executed task (span kept when record_spans)."""
        self.workers[worker].tasks_run += 1
        if self.record_spans:
            self.spans.append(
                TaskSpan(worker, task_id, tag, start_ns, end_ns, parents)
            )

    def add_steal(self, worker: int, success: bool, attempts: int = 1) -> None:
        """Record *attempts* victim probes by *worker*.

        The last probe is the successful one when *success*; the pool
        records a whole steal scan with one call.
        """
        self.workers[worker].steal_attempts += attempts
        if success:
            self.workers[worker].steals += 1

    # --- aggregate metrics ---------------------------------------------------

    def total_busy_ns(self) -> int:
        """Summed kernel time across workers."""
        return sum(w.busy_ns for w in self.workers)

    def total_productive_ns(self) -> int:
        """Summed productive (busy + spawn) time across workers."""
        return sum(w.productive_ns() for w in self.workers)

    def total_overhead_ns(self) -> int:
        """Summed scheduler-management time across workers."""
        return sum(w.overhead_ns for w in self.workers)

    def total_tasks(self) -> int:
        """Tasks executed across workers."""
        return sum(w.tasks_run for w in self.workers)

    def total_steals(self) -> int:
        """Successful steals across workers."""
        return sum(w.steals for w in self.workers)

    def utilization(self, makespan_ns: int) -> float:
        """Productive-time ratio over *makespan_ns* across all workers.

        This is the quantity plotted in Fig. 11 (0.0–1.0).
        """
        if makespan_ns <= 0:
            raise ValueError(f"makespan must be positive, got {makespan_ns}")
        return self.total_productive_ns() / (self.n_workers * makespan_ns)

    def merge(
        self,
        other: "TraceRecorder",
        offset_ns: int = 0,
        cycle: int | None = None,
        id_shift: int = 0,
    ) -> None:
        """Fold another recorder (e.g. a later iteration) into this one.

        *offset_ns* rebases the other recorder's span times (each flush
        segment starts at virtual t=0, so the caller passes the cumulative
        makespan of everything merged before); *cycle* stamps the merged
        spans with their flush segment so replayed-graph cycles stay
        distinguishable; *id_shift* is added to every span's task id and
        parent ids (a re-applied segment's tasks carry later ids than the
        run that recorded *other*).
        """
        if other.n_workers != self.n_workers:
            raise ValueError("cannot merge traces with different worker counts")
        for mine, theirs in zip(self.workers, other.workers):
            mine.busy_ns += theirs.busy_ns
            mine.spawn_ns += theirs.spawn_ns
            mine.overhead_ns += theirs.overhead_ns
            mine.tasks_run += theirs.tasks_run
            mine.steals += theirs.steals
            mine.steal_attempts += theirs.steal_attempts
        if self.record_spans and other.record_spans:
            for s in other.spans:
                self.spans.append(
                    TaskSpan(
                        s.worker,
                        s.task_id + id_shift,
                        s.tag,
                        s.start_ns + offset_ns,
                        s.end_ns + offset_ns,
                        tuple(p + id_shift for p in s.parents)
                        if id_shift
                        else s.parents,
                        s.cycle if cycle is None else cycle,
                    )
                )
