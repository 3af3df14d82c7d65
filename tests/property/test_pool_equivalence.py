"""The pool's bulk steal-scan accounting against the probe-by-probe scan.

``LinearScanPool`` is the reference: a verbatim copy of
``SimWorkerPool.run`` as it was before the pool tracked which queues hold
tasks, when an idle worker probed every victim in rotation order and
recorded each probe separately.  For random DAGs on 1-48 workers, under
every scheduler-policy combination, both pools must produce the same
makespan, the same per-worker traces, the same spans and the same body
execution order.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore.costmodel import CostModel
from repro.simcore.events import EventQueue
from repro.simcore.machine import MachineConfig
from repro.simcore.policy import SchedulerPolicy, WorkQueue
from repro.simcore.pool import (
    _CREATED,
    _DONE,
    _EV_FINISH,
    _EV_RELEASE,
    _EV_SPAWN_DONE,
    _READY,
    _RUNNING,
    PoolResult,
    SimTask,
    SimWorkerPool,
)
from repro.simcore.trace import TraceRecorder
from tests.property.test_pool_props import dag_strategy

POLICIES = [
    SchedulerPolicy(local_order=lo, steal_order=so, steal_half=half,
                    use_priorities=prio)
    for lo, so, half, prio in product(
        ("lifo", "fifo"), ("fifo", "lifo"), (False, True), (False, True)
    )
]


class LinearScanPool(SimWorkerPool):
    """The reference scheduler: one probe and one trace record per victim."""

    def run(self, tasks, spawn_worker=0, execute_bodies=True):
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
        trace = TraceRecorder(self.n_workers, self.record_spans)
        events = EventQueue()
        queues: list[WorkQueue] = [
            WorkQueue(self.policy) for _ in range(self.n_workers)
        ]
        # Workers not currently executing or spawning.  Sorted wake order is
        # enforced by scanning worker ids, which is deterministic.
        idle: set[int] = set(range(self.n_workers))
        idle.discard(spawn_worker)

        for task in task_list:
            if task.state != _CREATED:
                raise ValueError(f"task {task.tag!r} was already executed")
            task.task_id = self._next_task_id
            self._next_task_id += 1

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

        def acquire(worker: int, now: int) -> tuple[SimTask | None, int]:
            """Try to obtain a task for *worker*; returns (task, overhead)."""
            overhead = 0
            q = queues[worker]
            if len(q):
                task = q.pop_local()
                overhead += self._scale(cm.task_schedule_ns, worker)
                return task, overhead
            # Steal scan: deterministic rotation starting at worker+1.
            for step in range(1, self.n_workers):
                victim = (worker + step) % self.n_workers
                overhead += self._scale(cm.steal_attempt_ns, worker)
                vq = queues[victim]
                if len(vq):
                    stolen = vq.steal()
                    # Migration cost per stolen task; extras land on the
                    # thief's own queue (Cilk-style steal-half).
                    overhead += self._scale(
                        cm.steal_success_ns * len(stolen) + cm.task_schedule_ns,
                        worker,
                    )
                    for extra in stolen[1:]:
                        q.push(extra)
                    trace.add_steal(worker, True)
                    return stolen[0], overhead
                trace.add_steal(worker, False)
            return None, overhead

        def dispatch(worker: int, task: SimTask, now: int, overhead: int) -> None:
            """Start *task* on *worker* at *now* after *overhead* ns."""
            nonlocal makespan
            if task.pending != 0 or not task.released:
                raise AssertionError(
                    f"dispatching task {task.tag!r} with pending deps"
                )
            task.state = _RUNNING
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
            task, overhead = acquire(worker, now)
            if task is not None:
                dispatch(worker, task, now, overhead)
            else:
                trace.add_overhead(worker, overhead)
                idle.add(worker)

        def make_ready(task: SimTask, home: int, now: int) -> None:
            """Queue a ready task and wake an idle worker if any."""
            task.state = _READY
            queues[home].push(task)
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
        )


def build(dag, order):
    """Tasks of *dag*; every third-cost task is high priority."""
    tasks = []
    for i, (cost, _) in enumerate(dag):
        tasks.append(SimTask(cost_ns=cost, tag=f"t{i}",
                             body=lambda i=i: order.append(i),
                             priority=int(cost % 3 == 0)))
    for i, (_, deps) in enumerate(dag):
        for d in sorted(deps):
            if d < i:
                tasks[i].depends_on(tasks[d])
    return tasks


#: The default costs, and near-free task creation: every task is released
#: almost at once, so several queues hold tasks when a worker goes stealing.
COST_MODELS = [CostModel(), CostModel(task_spawn_ns=50)]


def run_both(dag, workers, policy, cost_model, spawn_worker=0):
    outcomes = []
    for pool_cls in (SimWorkerPool, LinearScanPool):
        pool = pool_cls(MachineConfig(), cost_model, workers,
                        record_spans=True, policy=policy)
        order = []
        tasks = build(dag, order)
        res = pool.run(tasks, spawn_worker=spawn_worker)
        outcomes.append((res, order, [t.finish_ns for t in tasks]))
    return outcomes


def assert_same(new, ref):
    (res, order, finish), (ref_res, ref_order, ref_finish) = new, ref
    assert res.makespan_ns == ref_res.makespan_ns
    assert res.spawn_total_ns == ref_res.spawn_total_ns
    assert res.n_tasks == ref_res.n_tasks
    assert res.trace.workers == ref_res.trace.workers
    assert res.trace.spans == ref_res.trace.spans
    assert order == ref_order
    assert finish == ref_finish


class TestBulkScanMatchesLinearScan:
    @given(dag_strategy, st.integers(1, 48), st.sampled_from(POLICIES),
           st.sampled_from(COST_MODELS), st.integers(0, 47))
    @settings(max_examples=300, deadline=None)
    def test_random_dags(self, dag, workers, policy, cost_model, spawn):
        assert_same(*run_both(dag, workers, policy, cost_model,
                              spawn % workers))

    @pytest.mark.parametrize("cost_model", COST_MODELS,
                             ids=["default", "cheap-spawn"])
    @pytest.mark.parametrize("policy", POLICIES, ids=repr)
    @pytest.mark.parametrize("workers", [3, 5, 24, 48])
    def test_contended_hubs(self, workers, policy, cost_model):
        """Four hubs releasing 15 continuations each onto their workers'
        queues: deep queues, several stocked victims per scan, and
        steal-half extras."""
        dag = [(4000 + 1000 * h, set()) for h in range(4)] + [
            (300 + 53 * i, {i % 4}) for i in range(60)
        ]
        assert_same(*run_both(dag, workers, policy, cost_model))
