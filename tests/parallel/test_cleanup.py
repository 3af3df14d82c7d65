"""Satellite: shm cleanup and worker-death semantics.

A crashed or misbehaving run must not leak ``/dev/shm`` segments.  Worker
death is no longer fatal by default — the supervisor respawns and the run
continues (covered in ``test_supervision.py``) — so the fatal semantics
are asserted here with supervision budgets zeroed and degradation off,
which restores PR 7's fail-fast contract.
"""

from multiprocessing import shared_memory

import pytest

from repro.parallel import (
    ParallelBackendError,
    ParallelHpxBackend,
    SupervisionConfig,
    SupervisionExhausted,
)

from tests.parallel.conftest import make_execute_program, requires_process_backend

pytestmark = [requires_process_backend, pytest.mark.parallel]

#: Supervision effectively disabled: no respawns, no degradation — a death
#: surfaces as the hard failure the pre-supervision backend raised.
NO_HEALING = SupervisionConfig(
    worker_timeout_s=30.0, max_respawns=0, max_wave_retries=0, degrade=False
)


def test_worker_death_raises_when_supervision_disabled():
    program = make_execute_program(nx=5, num_reg=3)
    with ParallelHpxBackend(program, workers=2, supervision=NO_HEALING) as backend:
        backend.step()  # capture (serial) — broadcasts the plan
        backend.step()  # first parallel cycle: pool is live and warm
        assert backend.stats.parallel_cycles == 1
        backend.pool._procs[0].kill()
        backend.pool._procs[0].join(timeout=5.0)
        with pytest.raises(SupervisionExhausted, match="respawn budget"):
            backend.step()
        assert backend.supervisor.stats.deaths == 1


def test_worker_death_recovers_by_default():
    """The default config turns a manual mid-run kill into a respawn."""
    program = make_execute_program(nx=5, num_reg=3)
    with ParallelHpxBackend(program, workers=2) as backend:
        backend.step()
        backend.step()
        backend.pool._procs[0].kill()
        backend.pool._procs[0].join(timeout=5.0)
        backend.step()  # supervisor respawns and retries: no raise
        assert backend.supervisor.stats.respawns >= 1
        assert not backend._degraded
        assert backend.pool.alive


def test_segment_unlinked_after_worker_death():
    program = make_execute_program(nx=5, num_reg=3)
    backend = ParallelHpxBackend(program, workers=2, supervision=NO_HEALING)
    name = backend.arena.name
    try:
        backend.step()
        backend.step()
        backend.pool._procs[1].kill()
        backend.pool._procs[1].join(timeout=5.0)
        with pytest.raises(ParallelBackendError):
            backend.step()
    finally:
        backend.close()
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


def test_pool_poisoned_after_death_without_respawn():
    """Satellite: a detected death leaves the pool unusable, not half-dead."""
    program = make_execute_program(nx=5, num_reg=3)
    with ParallelHpxBackend(program, workers=2, supervision=NO_HEALING) as backend:
        backend.step()
        backend.step()
        backend.pool._procs[0].kill()
        backend.pool._procs[0].join(timeout=5.0)
        with pytest.raises(ParallelBackendError):
            backend.step()
        assert backend.pool.poisoned is not None
        with pytest.raises(ParallelBackendError, match="poisoned"):
            backend.pool.broadcast_plan(backend._schedule.specs)


def test_close_unlinks_and_domain_survives():
    program = make_execute_program(nx=4, num_reg=3)
    backend = ParallelHpxBackend(program, workers=1)
    backend.run(3)
    name = backend.arena.name
    energy = program.domain.origin_energy()
    backend.close()
    backend.close()  # idempotent
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)
    # detach copied the fields out: the domain outlives the segment
    assert program.domain.origin_energy() == energy


def test_step_after_close_raises():
    program = make_execute_program(nx=4, num_reg=3)
    backend = ParallelHpxBackend(program, workers=1)
    backend.close()
    with pytest.raises(ParallelBackendError, match="closed"):
        backend.step()


def test_kernel_exception_keeps_original_type():
    """A physics exception in a worker re-raises with its own type."""
    program = make_execute_program(nx=4, num_reg=3)
    with ParallelHpxBackend(program, workers=2) as backend:
        backend.step()
        backend.step()
        # poison the volume field: the kinematics kernel raises VolumeError
        program.domain.v[:] = -1.0
        from repro.lulesh.errors import VolumeError

        with pytest.raises(VolumeError):
            backend.step()
        # a physics abort is not a supervision event: nothing was killed
        assert backend.supervisor.stats.worker_losses == 0
