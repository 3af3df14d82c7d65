"""The AMT runtime: task creation, barriers, and graph execution.

Reproduces the HPX usage pattern of the paper's implementation (§IV):

* ``async_`` / ``continuation`` / ``when_all`` / ``dataflow`` build the task
  graph *without executing anything* — like HPX, creating a task returns
  immediately and execution is entirely asynchronous;
* ``wait_all`` is the blocking synchronization barrier of the paper's Fig. 5
  (it forces execution of everything created so far);
* ``when_all`` is the non-blocking barrier of Fig. 6 — it returns a future
  other tasks can depend on, letting the whole leapfrog iteration be
  pre-created with only a final blocking wait;
* ``flush`` hands the pre-created graph to the simulated work-stealing
  worker pool and accumulates timing/trace statistics.

Timing semantics: each ``flush`` simulates one execution segment starting at
virtual t=0 whose task creations are charged serially to the spawning worker
(the main thread).  Total program time is the sum of segment makespans —
faithful to a main loop that blocks at segment boundaries.

Failure semantics (HPX exception propagation):

* an exception raised by a task body is **stored on the task's future**
  instead of escaping the worker pool; ``get`` re-raises it;
* a continuation over a failed future **short-circuits**: its body never
  runs and its future carries the predecessor's exception unchanged;
* ``when_all`` over failed inputs fails with a
  :class:`~repro.amt.errors.TaskGroupError` naming every failed task tag
  (``dataflow``, built on ``when_all``, short-circuits the same way);
* the rest of the graph is unaffected — sibling tasks with no dependency on
  the failed one execute normally, and a failed task's simulated cost is
  still charged (the schedule does not know the body was cut short).

Two optional resilience hooks (duck-typed so :mod:`repro.amt` never imports
:mod:`repro.resilience`):

* ``fault_injector`` — consulted at task creation via
  ``draw_task(task) -> fire | None``; the injector may inflate
  ``task.cost_ns`` (a stalled worker) and/or return a ``fire()`` callable
  invoked at the start of every execution attempt (raising to simulate a
  task failure);
* ``replay`` — bounded retry of tasks declared ``idempotent=True``:
  ``max_retries`` attempts with ``backoff_ns(attempt)`` of simulated-time
  backoff charged to the task before the failure is allowed to propagate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.amt.errors import AmtError, TaskGroupError
from repro.amt.future import Future
from repro.amt.graph import (
    GraphTemplate,
    is_settled,
    reset_segment,
    snapshot_segment,
)
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig
from repro.simcore.policy import SchedulerPolicy
from repro.simcore.pool import PoolResult, SimTask, SimWorkerPool
from repro.simcore.trace import TraceRecorder

__all__ = ["AmtRuntime", "RunStats"]


class _GraphRecorder:
    """Capture state between ``begin_capture`` and ``end_capture``.

    Futures are recorded at creation, tasks at the flush that executes
    them; a blocking ``wait_all`` notes its checked futures just before
    flushing so the segment can reproduce the barrier's rethrow behaviour
    on replay.
    """

    __slots__ = ("segments", "futures", "next_wait")

    def __init__(self) -> None:
        self.segments: list = []
        self.futures: list[Future] = []
        self.next_wait: tuple[tuple[Future, ...], bool] | None = None

    def record_future(self, fut: Future) -> None:
        self.futures.append(fut)

    def note_wait(self, futures: Sequence[Future], rethrow: bool) -> None:
        self.next_wait = (tuple(futures), rethrow)

    def end_segment(self, tasks: Sequence[SimTask]) -> None:
        wait, self.next_wait = self.next_wait, None
        futures, self.futures = self.futures, []
        self.segments.append(
            snapshot_segment(
                tasks,
                futures,
                wait[0] if wait is not None else None,
                wait[1] if wait is not None else True,
            )
        )


@dataclass
class RunStats:
    """Accumulated execution statistics across flushes.

    Attributes:
        total_ns: summed makespans of all executed segments.
        n_tasks: tasks executed.
        n_flushes: number of execution segments (blocking barriers + final).
        spawn_ns: summed serialized task-creation time.
        trace: merged per-worker accounting (productive/overhead/steals).
    """

    n_workers: int
    record_spans: bool = False
    total_ns: int = 0
    n_tasks: int = 0
    n_flushes: int = 0
    spawn_ns: int = 0
    trace: TraceRecorder = field(init=False)

    def __post_init__(self) -> None:
        self.trace = TraceRecorder(self.n_workers, record_spans=self.record_spans)

    def utilization(self) -> float:
        """Fig.-11 productive-time ratio across all executed segments.

        HPX's ``/threads/idle-rate`` is ``1 - utilization()``: task
        creation counts as productive, scheduler management (dispatch,
        steal probes, retires) as idle.  The ``/threads*/idle-rate``
        counters of :func:`repro.obs.sources.install_amt_counters` sample
        the same rule per interval.
        """
        if self.total_ns == 0:
            return 1.0
        return self.trace.utilization(self.total_ns)


class AmtRuntime:
    """HPX-like runtime bound to a simulated machine.

    Task bodies carry the future-value bookkeeping (``when_all``/``dataflow``
    readiness), so a flushed or simulated segment always executes them.
    Timing-only runs bind no-op user functions, which is what the drivers
    in :mod:`repro.core` do when no :class:`~repro.lulesh.domain.Domain`
    is attached; a replay that re-applies such a run's memoized segment
    skips bodies whose futures already hold their outcome
    (:meth:`replay_graph`).

    Args:
        machine: the simulated multicore.
        cost_model: shared overhead table.
        n_workers: number of OS worker threads (``--hpx:threads``).
        record_spans: keep per-task Gantt spans on the trace (debugging).
        fault_injector: optional resilience hook (see module docstring).
        replay: optional bounded-retry policy for idempotent tasks.
        flight_recorder: optional :class:`~repro.obs.recorder.FlightRecorder`
            (duck-typed, same pattern as the resilience hooks) receiving
            ``task_spawn``/``task_steal``/``task_retire``/``flush`` events.
    """

    def __init__(
        self,
        machine: MachineConfig,
        cost_model: CostModel,
        n_workers: int,
        record_spans: bool = False,
        policy: "SchedulerPolicy | None" = None,
        fault_injector: Any = None,
        replay: Any = None,
        flight_recorder: Any = None,
    ) -> None:
        self.machine = machine
        self.cost_model = cost_model
        self.n_workers = n_workers
        self._pool = SimWorkerPool(
            machine, cost_model, n_workers, record_spans=record_spans,
            policy=policy,
        )
        self._record_spans = record_spans
        self._pending: list[SimTask] = []
        self._flushing = False
        self._stats = RunStats(n_workers=n_workers, record_spans=record_spans)
        self._flush_hooks: list[Callable[["AmtRuntime", int], None]] = []
        self._recorder: _GraphRecorder | None = None
        #: Real wall-clock spent inside pool execution (perf_counter_ns
        #: deltas) — lets callers separate graph-construction time from
        #: execution time even when blocking barriers interleave the two.
        self.real_exec_ns = 0
        self.fault_injector = fault_injector
        self.replay = replay
        self.flight_recorder = flight_recorder
        # The replay memo: the template last replayed on this runtime and,
        # per segment, its first task id and the pool's result
        # (replay_graph).  It outlives reset_stats, so a warm executor's
        # later jobs re-apply it.
        self._memo_template: GraphTemplate | None = None
        self._memo: list[tuple[int, PoolResult]] = []
        #: Whether the last ``replay_graph`` re-applied memoized results.
        self.replayed_from_memo = False

    # --- task creation -----------------------------------------------------

    def _register(self, task: SimTask, fut: Future) -> None:
        if self._flushing:
            raise AmtError(
                "cannot create tasks while the graph is executing; "
                "pre-create the task graph as the paper does"
            )
        self._pending.append(task)
        if self._recorder is not None:
            self._recorder.record_future(fut)
        if self.flight_recorder is not None:
            self.flight_recorder.record(
                "task_spawn", time_ns=self._stats.total_ns, tag=task.tag
            )

    def _bind_body(
        self,
        fut: Future,
        task: SimTask,
        thunk: Callable[[], Any],
        idempotent: bool,
    ) -> Callable[[], None]:
        """Wrap *thunk* with exception capture, injection, and replay.

        The wrapper runs at dispatch time (before the pool reads
        ``task.cost_ns``), so retry backoff added here is charged as
        simulated execution time of this very task.
        """
        fire = None
        if self.fault_injector is not None:
            fire = self.fault_injector.draw_task(task)

        def body() -> None:
            attempt = 0
            while True:
                try:
                    if fire is not None:
                        fire()
                    fut._set_value(thunk())
                    return
                except AmtError:
                    # Runtime misuse (e.g. spawning tasks mid-flush) is a
                    # programming error, not a task failure — let it escape.
                    raise
                except Exception as exc:  # noqa: BLE001 - future carries it
                    replay = self.replay
                    if (
                        idempotent
                        and replay is not None
                        and attempt < replay.max_retries
                        and replay.retryable(exc)
                    ):
                        attempt += 1
                        task.cost_ns += replay.backoff_ns(attempt)
                        replay.record_retry(task.tag, exc)
                        continue
                    fut._set_exception(exc)
                    return

        return body

    def async_(
        self,
        fn: Callable[..., Any],
        *args: Any,
        cost_ns: int = 0,
        tag: str | None = None,
        depends: Sequence[Future] = (),
        priority: int = 0,
        idempotent: bool = False,
        desc: Any = None,
    ) -> Future:
        """Create a task running ``fn(*args)``; returns its future.

        ``depends`` adds explicit predecessor futures (used to attach work
        after a non-blocking ``when_all`` barrier); ``priority`` is honoured
        only under a priority-enabled scheduler policy.  ``idempotent``
        declares the body safe to re-execute, making it eligible for
        bounded replay under a :attr:`replay` policy.  ``desc`` rides on
        the task untouched (:attr:`SimTask.desc`).  If any dependency
        failed, the task short-circuits and propagates that failure.
        """
        task = SimTask(
            cost_ns=cost_ns,
            tag=tag or getattr(fn, "__name__", "task"),
            priority=priority,
            desc=desc,
        )
        fut = Future(self, task)
        depends = tuple(depends)
        run = self._bind_body(fut, task, lambda: fn(*args), idempotent)

        def body() -> None:
            exc = _first_failure(depends)
            if exc is not None:
                fut._set_exception(exc)
                return
            run()

        task.body = body
        task.depends_on(*[d.task for d in depends])
        self._register(task, fut)
        return fut

    def continuation(
        self,
        parent: Future,
        fn: Callable[..., Any],
        *args: Any,
        cost_ns: int = 0,
        tag: str | None = None,
        priority: int = 0,
        idempotent: bool = False,
        desc: Any = None,
    ) -> Future:
        """Attach ``fn(parent_future, *args)`` to run after *parent*.

        A failed *parent* short-circuits the continuation: *fn* never runs
        and the returned future carries the parent's exception unchanged
        (HPX rethrows the predecessor's exception when the continuation
        calls ``get``; our continuations read eagerly, so the propagation
        happens for them).
        """
        task = SimTask(
            cost_ns=cost_ns,
            tag=tag or getattr(fn, "__name__", "then"),
            priority=priority,
            desc=desc,
        )
        fut = Future(self, task)
        run = self._bind_body(fut, task, lambda: fn(parent, *args), idempotent)

        def body() -> None:
            exc = parent.exception_nowait()
            if exc is not None:
                fut._set_exception(exc)
                return
            run()

        task.body = body
        task.depends_on(parent.task)
        self._register(task, fut)
        return fut

    def when_all(
        self, futures: Sequence[Future], tag: str = "when_all", desc: Any = None
    ) -> Future:
        """Non-blocking barrier: a future ready when all *futures* are.

        Its value is the list of input futures (HPX's
        ``future<vector<future<T>>>`` analogue).  Zero compute cost; the join
        bookkeeping is charged by the pool per dependency edge.  If any
        input failed, the barrier fails with a
        :class:`~repro.amt.errors.TaskGroupError` listing every failed
        task's tag (root causes are flattened through nested barriers).
        """
        futures = list(futures)
        task = SimTask(cost_ns=0, tag=tag, desc=desc)
        fut = Future(self, task)

        def body() -> None:
            failed = [
                (f.task.tag, f.exception_nowait())
                for f in futures
                if f.has_exception()
            ]
            if failed:
                fut._set_exception(TaskGroupError.collect(failed))
            else:
                fut._set_value(futures)

        task.body = body
        task.depends_on(*[f.task for f in futures])
        self._register(task, fut)
        return fut

    def dataflow(
        self,
        fn: Callable[..., Any],
        futures: Sequence[Future],
        *args: Any,
        cost_ns: int = 0,
        tag: str | None = None,
    ) -> Future:
        """``hpx::dataflow``: run ``fn(futures, *args)`` when all are ready.

        Short-circuits to a failed state (carrying the aggregated
        ``TaskGroupError``) if any input future failed.
        """
        gate = self.when_all(futures, tag="dataflow-gate")
        return self.continuation(
            gate,
            lambda g, *a: fn(g.result_nowait(), *a),
            *args,
            cost_ns=cost_ns,
            tag=tag or getattr(fn, "__name__", "dataflow"),
        )

    def make_ready_future(self, value: Any = None) -> Future:
        """A future that is already ready (no task, no cost)."""
        task = SimTask(cost_ns=0, tag="ready")
        fut = Future(self, task)
        task.body = lambda: fut._set_value(value)
        self._register(task, fut)
        return fut

    def make_exceptional_future(self, exc: BaseException) -> Future:
        """A future that is already failed (``hpx::make_exceptional_future``)."""
        task = SimTask(cost_ns=0, tag="exceptional")
        fut = Future(self, task)
        task.body = lambda: fut._set_exception(exc)
        self._register(task, fut)
        return fut

    # --- execution -------------------------------------------------------------

    def wait_all(
        self, futures: Sequence[Future] | None = None, rethrow: bool = True
    ) -> None:
        """Blocking barrier (paper Fig. 5): execute everything created so far.

        HPX's ``wait_all`` blocks the calling thread until the given futures
        are ready; since our graphs execute only via flush, any blocking wait
        drains the whole pending segment.

        With ``rethrow=True`` (default) a failure among the waited futures
        is raised here: the single original exception if exactly one task
        failed, else an aggregated ``TaskGroupError``.  (Strict HPX
        ``wait_all`` never throws — pass ``rethrow=False`` for that — but
        every blocking barrier in the drivers is an abort point, so
        surfacing failures at the barrier is the useful default.)
        """
        if self._recorder is not None and futures is not None and self._pending:
            self._recorder.note_wait(futures, rethrow)
        self.flush()
        if futures is None:
            return
        self._check_waited(futures, rethrow)

    def _check_waited(
        self, futures: Sequence[Future], rethrow: bool = True
    ) -> None:
        """The post-flush readiness/failure check of a blocking barrier."""
        failed: list[tuple[str, BaseException]] = []
        for f in futures:
            if not f.is_ready():
                raise AmtError(
                    f"wait_all: future {f!r} not ready after flush; "
                    "was it created on a different runtime?"
                )
            exc = f.exception_nowait()
            if exc is not None:
                failed.append((f.task.tag, exc))
        if rethrow and failed:
            if len(failed) == 1 and not isinstance(failed[0][1], TaskGroupError):
                raise failed[0][1]
            raise TaskGroupError.collect(failed)

    def _run_segment(
        self,
        tasks: Sequence[SimTask],
        memo: tuple[int, PoolResult] | None = None,
        settled: bool = False,
    ) -> PoolResult:
        """Execute one segment and fold its outcome into stats.

        *memo* is ``(first task id, result)`` of this segment's earlier
        simulated run; with it the pool re-applies that result instead of
        simulating, and the fold shifts the recorded task ids.  A
        *settled* segment's tasks and futures already hold that outcome,
        so the pool only renumbers them.
        """
        if self._flushing:
            raise AmtError("re-entrant flush")
        self._flushing = True
        t0 = time.perf_counter_ns()
        try:
            if memo is None:
                result = self._pool.run(tasks, spawn_worker=0)
            else:
                result = memo[1]
                if settled:
                    self._pool.renumber(tasks)
                else:
                    self._pool.reapply(tasks, result)
        finally:
            self._flushing = False
            self.real_exec_ns += time.perf_counter_ns() - t0
        self._fold(result, 0 if memo is None else tasks[0].task_id - memo[0])
        return result

    def _fold(self, result: PoolResult, id_shift: int) -> None:
        """Fold one executed segment into stats, trace, events and hooks."""
        # Each segment's discrete-event simulation starts at virtual t=0;
        # rebase its spans onto the run's global timeline and stamp them
        # with the flush index so replayed cycles never collide.
        base_ns = self._stats.total_ns
        cycle = self._stats.n_flushes + 1
        self._stats.total_ns += result.makespan_ns
        self._stats.n_tasks += result.n_tasks
        self._stats.n_flushes += 1
        self._stats.spawn_ns += result.spawn_total_ns
        self._stats.trace.merge(
            result.trace, offset_ns=base_ns, cycle=cycle, id_shift=id_shift
        )
        fr = self.flight_recorder
        if fr is not None:
            steals = sum(w.steals for w in result.trace.workers)
            attempts = sum(w.steal_attempts for w in result.trace.workers)
            fr.record(
                "flush",
                time_ns=self._stats.total_ns,
                cycle=cycle,
                makespan_ns=result.makespan_ns,
                n_tasks=result.n_tasks,
            )
            if attempts:
                fr.record(
                    "task_steal",
                    time_ns=self._stats.total_ns,
                    cycle=cycle,
                    steals=steals,
                    attempts=attempts,
                )
            for s in result.trace.spans:
                fr.record(
                    "task_retire",
                    time_ns=base_ns + s.end_ns,
                    cycle=cycle,
                    tag=s.tag,
                    worker=s.worker,
                    task_id=s.task_id + id_shift,
                    duration_ns=s.duration_ns,
                )
        for hook in self._flush_hooks:
            hook(self, result.makespan_ns)

    def flush(self) -> int:
        """Execute all pending tasks; returns this segment's makespan (ns)."""
        if not self._pending:
            return 0
        tasks, self._pending = self._pending, []
        if self._recorder is not None:
            self._recorder.end_segment(tasks)
        result = self._run_segment(tasks)
        return result.makespan_ns

    # --- graph capture & replay ---------------------------------------------

    def begin_capture(self) -> None:
        """Start recording created tasks/futures into a graph template.

        Everything created until :meth:`end_capture` is recorded, segmented
        at flush boundaries (a blocking ``wait_all`` mid-build produces a
        multi-segment template — the Fig. 5 structure).  Capture must start
        with no pending tasks so segment boundaries line up with the
        template's.
        """
        if self._recorder is not None:
            raise AmtError("graph capture already active")
        if self._pending:
            raise AmtError("cannot begin capture with pending tasks")
        self._recorder = _GraphRecorder()

    def end_capture(self, timing_only: bool = False) -> GraphTemplate:
        """Stop recording and freeze the captured graph into a template.

        Pass ``timing_only=True`` only for a graph whose bodies compute
        nothing (a program without a Domain): every body stores the outcome
        its future already holds unless an input failed.  Memo hits of
        such a template skip its settled segments' re-arm and bodies
        (:meth:`replay_graph`).
        """
        rec = self._recorder
        if rec is None:
            raise AmtError("no active graph capture")
        self._recorder = None
        if self._pending or rec.futures:
            raise AmtError(
                "cannot end capture with unflushed tasks; flush first"
            )
        return GraphTemplate(
            segments=tuple(rec.segments), timing_only=timing_only
        )

    def abort_capture(self) -> None:
        """Discard an active capture (e.g. the recorded build failed)."""
        self._recorder = None

    def replay_graph(self, template: GraphTemplate) -> int:
        """Re-fire a captured template; returns the re-arm wall-clock (ns).

        Each segment is re-armed in place (futures cleared, tasks reset to
        created state with capture-time costs) and executed, then the
        segment's recorded blocking barrier — if any — re-performs its
        readiness/failure check, reproducing ``wait_all`` rethrow semantics.
        Simulated timing, traces, counters, and executed physics are
        bit-identical to rebuilding the graph; only the Python-side
        construction cost disappears.  The returned duration covers the
        reset loops only (execution excluded) — the like-for-like
        counterpart of a build's construction time.

        The first replay of a template on this runtime simulates each
        segment on the pool and memoizes the results; later replays of the
        same template re-apply them (:meth:`SimWorkerPool.reapply`) and
        fold them as a simulated segment would be folded: the same stats,
        spans (ids shifted), flight events and flush hooks.  That is exact
        because the simulation depends only on the segment, whose costs
        the re-arm restores, and on the pool's fixed machine, cost model,
        policy and workers.  The memo holds one template and outlives
        :meth:`reset_stats`, so the later jobs of a warm executor re-apply
        it from their first replay; replaying another template replaces
        it.  While a fault injector or a replay policy is set it is
        neither read nor written, since stalls and retry backoff change a
        task's cost mid-cycle.  :attr:`replayed_from_memo` tells whether
        this replay re-applied.

        A memo hit of a timing-only template (:meth:`end_capture`) serves
        each settled segment — every future holds a value, none an
        exception (:func:`~repro.amt.graph.is_settled`) — as it stands: no
        re-arm and no body runs, the pool gives its tasks fresh ids
        (:meth:`SimWorkerPool.renumber`), and the fold and the barrier
        check follow as above.  That is exact because such a body can only
        store the outcome its future already holds, and a hit has no fault
        injector and no replay policy to change one; the returned duration
        then covers the settled checks.  Any other segment is re-armed and
        re-applied.
        """
        if self._pending:
            raise AmtError("cannot replay with pending tasks")
        if self._recorder is not None:
            raise AmtError("cannot replay while capturing")
        memoize = self.fault_injector is None and self.replay is None
        hit = memoize and self._memo_template is template
        fill = memoize and not hit
        if fill:
            self._memo_template, self._memo = None, []
        self.replayed_from_memo = hit
        keep = hit and template.timing_only
        rearm_ns = 0
        for k, seg in enumerate(template.segments):
            t0 = time.perf_counter_ns()
            settled = keep and is_settled(seg)
            if not settled:
                reset_segment(seg)
            rearm_ns += time.perf_counter_ns() - t0
            if hit:
                self._run_segment(seg.tasks, self._memo[k], settled)
            else:
                result = self._run_segment(seg.tasks)
                if fill:
                    self._memo.append((seg.tasks[0].task_id, result))
            if seg.wait_futures is not None:
                self._check_waited(seg.wait_futures, seg.rethrow)
        if fill:
            self._memo_template = template
        return rearm_ns

    # --- accounting ---------------------------------------------------------

    def add_flush_hook(self, hook: Callable[["AmtRuntime", int], None]) -> None:
        """Call ``hook(runtime, segment_makespan_ns)`` after every flush.

        This is the sampling boundary of the performance-counter registry
        (:mod:`repro.obs`): counters are snapshotted once per executed
        segment, i.e. once per iteration for the pre-created-graph variants.
        """
        self._flush_hooks.append(hook)

    def clear_sampling_hooks(self) -> None:
        """Drop every registered flush hook.

        A counter sampler's hook holds its registry, whose counters hold
        this runtime, and a warm runtime serves many runs: clearing the
        hooks when a run returns keeps them from accumulating and lets
        the run's registry be freed without the cyclic garbage collector.
        """
        self._flush_hooks.clear()

    @property
    def stats(self) -> RunStats:
        """Accumulated statistics since construction or last reset."""
        return self._stats

    def reset_stats(self) -> None:
        """Clear accumulated statistics (a new run).

        Pending tasks and the replay memo are unaffected: a memoized
        simulation stays exact for as long as its template is replayed
        (:meth:`replay_graph`).
        """
        if self._pending:
            raise AmtError("cannot reset stats with pending (uncounted) tasks")
        self._stats = RunStats(
            n_workers=self.n_workers, record_spans=self._record_spans
        )

    @property
    def n_pending(self) -> int:
        """Tasks created but not yet executed."""
        return len(self._pending)


def _first_failure(futures: Sequence[Future]) -> BaseException | None:
    """The first stored exception among *futures* (``None`` if all ok)."""
    for f in futures:
        exc = f.exception_nowait()
        if exc is not None:
            return exc
    return None
