"""Errors of the process execution backend."""

from __future__ import annotations

__all__ = [
    "GarbledReplyError",
    "ParallelBackendError",
    "PlanLoweringError",
    "SupervisionExhausted",
    "WorkerDiedError",
    "WorkerFailure",
    "WorkerHangError",
]


class ParallelBackendError(RuntimeError):
    """Infrastructure failure of the process backend.

    Raised for transport and lifecycle problems — a worker process died, a
    shared-memory segment vanished, the pool was used after ``close()`` —
    never for physics failures: a kernel exception raised inside a worker
    is shipped back over the pipe and re-raised in the main process with
    its original type, so ``QStopError``/``VolumeError`` semantics are
    identical across backends.
    """


class PlanLoweringError(ParallelBackendError):
    """A captured task graph could not be lowered to a wave schedule.

    Every task tag the HPX program emits is part of a closed grammar (see
    :mod:`repro.parallel.plan`); an unparseable tag means the program and
    the lowering pass have drifted apart, which is a programming error —
    not something to silently fall back from.
    """


class WorkerFailure(ParallelBackendError):
    """One worker process failed; carries the supervision taxonomy.

    ``worker`` is the pool index, ``reason`` one of ``dead`` / ``hang`` /
    ``garble`` — the three failure classes the watchdog distinguishes
    (closed pipe, missed deadline, undecodable or malformed reply).
    """

    def __init__(self, worker: int, reason: str, message: str) -> None:
        super().__init__(message)
        self.worker = worker
        self.reason = reason


class WorkerDiedError(WorkerFailure):
    """A worker's pipe closed (process exited or was killed)."""

    def __init__(self, worker: int, message: str) -> None:
        super().__init__(worker, "dead", message)


class WorkerHangError(WorkerFailure):
    """A worker missed its wave deadline (watchdog timeout)."""

    def __init__(self, worker: int, message: str) -> None:
        super().__init__(worker, "hang", message)


class GarbledReplyError(WorkerFailure):
    """A worker's reply could not be decoded or failed validation."""

    def __init__(self, worker: int, message: str) -> None:
        super().__init__(worker, "garble", message)


class SupervisionExhausted(ParallelBackendError):
    """The supervisor ran out of respawn or retry budget.

    The backend catches this to degrade gracefully to the serial simulated
    path (when degradation is enabled); with ``--no-degrade`` it surfaces
    to the driver as a run failure.
    """

