"""Pool-level supervision primitives: drain-before-raise in the
supervisor's wave loop, poisoning on death, respawn, and the
shared-deadline concurrent ``stop`` escalation.
"""

import time

import pytest

from repro.parallel import (
    ParallelBackendError,
    ParallelHpxBackend,
    SupervisionConfig,
    SupervisionExhausted,
    WorkerHangError,
    WorkerSupervisor,
)

from tests.parallel.conftest import make_execute_program, requires_process_backend

pytestmark = [requires_process_backend, pytest.mark.parallel]


def warm_backend(workers: int, nx: int = 4):
    backend = ParallelHpxBackend(make_execute_program(nx=nx, num_reg=3),
                                 workers=workers)
    backend.step()  # capture + plan broadcast
    backend.step()  # warm
    return backend


def test_run_wave_drains_survivors_before_raising():
    """A dead worker mid-wave must not leave surviving pipes misaligned."""
    with warm_backend(2) as backend:
        pool = backend.pool
        d = backend.domain
        # pick a wave where BOTH workers have work, so the survivor has a
        # reply in flight when the dead pipe is discovered
        wi = next(
            i for i, a in enumerate(backend._assignments) if a[0] and a[1]
        )
        no_respawn = WorkerSupervisor(pool, SupervisionConfig(max_respawns=0))
        pool._procs[1].kill()
        pool._procs[1].join(timeout=5.0)
        with pytest.raises(SupervisionExhausted):
            no_respawn.run_wave(d, d.cycle, wi, backend._assignments[wi])
        assert no_respawn.stats.deaths == 1
        assert pool.poisoned is not None
        # heal; if worker 0 had an undrained reply in flight, an empty wave
        # would read it instead of its own empty reply
        pool.respawn_worker(1)
        assert pool.poisoned is None
        for w in range(2):
            pool.send_wave(w, d.deltatime, d.time, d.cycle, ())
            assert pool.reply_deadline(w, 10.0) == ([], 0)


def test_reply_deadline_classifies_hang():
    with warm_backend(1) as backend:
        pool = backend.pool
        d = backend.domain
        pool.send_wave(0, d.deltatime, d.time, d.cycle, (), fault="hang")
        t0 = time.monotonic()
        with pytest.raises(WorkerHangError, match="deadline"):
            pool.reply_deadline(0, 0.5)
        assert time.monotonic() - t0 < 5.0
        assert pool.poisoned is not None
        pool.kill_worker(0)
        pool.respawn_worker(0)
        assert pool.poisoned is None


def test_respawned_worker_serves_the_current_plan():
    """A respawn re-attaches the segment and gets the spec table back."""
    with warm_backend(2) as backend:
        pool = backend.pool
        d = backend.domain
        pool._procs[0].kill()
        pool._procs[0].join(timeout=5.0)
        pool._poisoned = "test"
        pool.kill_worker(0)
        pool.respawn_worker(0)
        # dispatch real specs to the fresh process: it must know the plan
        wi = next(i for i, a in enumerate(backend._assignments) if a[0])
        partials, busy_ns = backend.supervisor.run_wave(
            d, d.cycle, wi, backend._assignments[wi]
        )
        assert isinstance(partials, list)
        assert busy_ns > 0
        assert backend.supervisor.stats.worker_losses == 0
        backend.step()  # and a whole cycle still works end to end


def test_stop_uses_one_shared_deadline_for_hung_workers():
    """Satellite: stopping an unresponsive pool costs one escalation
    ladder, not one per worker (~4x serial cost at 4 workers)."""
    backend = warm_backend(4)
    pool = backend.pool
    d = backend.domain
    try:
        for w in range(4):
            pool.send_wave(w, d.deltatime, d.time, d.cycle, (), fault="hang")
        time.sleep(0.2)  # let every worker enter its sleep
        t0 = time.monotonic()
        pool.stop()
        elapsed = time.monotonic() - t0
        # shared ladder: 2 s join-all + terminate + short joins.  The old
        # sequential loop needed >= 8 s of joins alone for 4 hung workers.
        assert elapsed < 7.0, f"stop took {elapsed:.1f}s"
        assert all(not p.is_alive() for p in pool._procs)
    finally:
        backend.close()


def test_stop_is_fast_for_healthy_pool():
    backend = warm_backend(4)
    t0 = time.monotonic()
    backend.pool.stop()
    assert time.monotonic() - t0 < 3.0
    backend.close()


def test_poisoned_pool_rejects_new_dispatch_only():
    """Poison blocks plan broadcasts but not the supervision primitives."""
    with warm_backend(2) as backend:
        pool = backend.pool
        pool._poisoned = "test poison"
        with pytest.raises(ParallelBackendError, match="poisoned"):
            pool.broadcast_plan(backend._schedule.specs)
        d = backend.domain
        # supervision path stays open: that is how the pool gets healed
        pool.send_wave(0, d.deltatime, d.time, d.cycle, ())
        assert pool.reply_deadline(0, 10.0) == ([], 0)
        pool._poisoned = None
