"""Persistent fork-server worker pool for the process backend.

Workers are warm and long-lived: spawned once per backend (fork-server
start method where available — Linux; ``spawn`` otherwise), they attach the
shared Domain segment at startup and then serve wave after wave, cycle
after cycle, over per-worker pipes.  The lowered spec table reaches every
worker once per lowering (:meth:`ProcessWorkerPool.broadcast_plan`); a
wave message then carries only spec *indices* plus three per-cycle
scalars — never closures, never field data — and its reply the spec
partials and the worker's summed busy time.  The one wave loop over these
primitives is :meth:`~repro.parallel.supervisor.WorkerSupervisor.run_wave`.

Failure semantics: a dead worker (``EOFError``/``BrokenPipeError`` on its
pipe) raises :class:`~repro.parallel.errors.WorkerDiedError` naming the
worker and its exit code, and *poisons* the pool — further plan broadcasts
fail until the worker is respawned (:meth:`ProcessWorkerPool.respawn_worker`,
driven by :class:`~repro.parallel.supervisor.WorkerSupervisor`) or the pool
is stopped.  An exception *inside* a worker's kernel is re-raised by
:meth:`ProcessWorkerPool.reply_deadline` with its original type; the
supervisor drains the wave's other replies first, keeping every pipe
message-aligned so a checkpoint rollback can keep using the pool.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import pickle
import time

from repro.parallel.errors import (
    GarbledReplyError,
    ParallelBackendError,
    WorkerDiedError,
    WorkerHangError,
)
from repro.parallel.worker import worker_main

__all__ = [
    "ProcessWorkerPool",
    "pick_start_method",
    "process_backend_supported",
]

#: Reply deadline of a respawned worker's startup ping and plan install.
_RESPAWN_PING_TIMEOUT_S = 30.0


def pick_start_method() -> str:
    """``forkserver`` where available (POSIX), else ``spawn``."""
    if "forkserver" in mp.get_all_start_methods():
        return "forkserver"
    return "spawn"


def process_backend_supported(opts=None) -> bool:
    """Whether this host can run the process backend at all.

    Needs POSIX shared memory and, when *opts* is given, picklable options
    (workers rebuild their Domain from them) — the tuner's skip guard.
    """
    if os.name != "posix":
        return False
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:
        return False
    if opts is not None:
        try:
            pickle.dumps(opts)
        except Exception:
            return False
    return True


def _ensure_child_importable() -> None:
    """Guarantee spawned children can ``import repro``.

    ``forkserver``/``spawn`` children re-import the package; when the
    parent found it through a ``sys.path`` entry not reflected in
    ``PYTHONPATH`` (e.g. a conftest hack), prepend it so the children
    inherit it through the environment.
    """
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = os.environ.get("PYTHONPATH", "")
    entries = existing.split(os.pathsep) if existing else []
    if src_root not in entries:
        os.environ["PYTHONPATH"] = os.pathsep.join([src_root] + entries)


class ProcessWorkerPool:
    """``n_workers`` warm processes behind per-worker pipes."""

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ParallelBackendError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.start_method = pick_start_method()
        self._procs: list = []
        self._conns: list = []
        self._started = False
        self._stopped = False
        self._poisoned: str | None = None
        self._ctx = None
        self._boot = None  # (shm_name, layout, opts) for respawns
        self._specs = None  # last broadcast plan, rebroadcast to respawns

    # --- lifecycle ------------------------------------------------------------

    def start(self, shm_name: str, layout, opts) -> None:
        """Spawn the workers and round-trip each once.

        The startup ping surfaces worker-side failures (import errors, a
        vanished segment) here instead of mid-cycle.
        """
        if self._started:
            raise ParallelBackendError("pool already started")
        _ensure_child_importable()
        ctx = mp.get_context(self.start_method)
        if self.start_method == "forkserver" and hasattr(
            ctx, "set_forkserver_preload"
        ):
            ctx.set_forkserver_preload(["repro.parallel.worker"])
        self._ctx = ctx
        self._boot = (shm_name, layout, opts)
        self._started = True
        atexit.register(self.stop)
        for i in range(self.n_workers):
            self._spawn(i, append=True)
        for w in range(self.n_workers):
            self._send(w, ("ping",))
        for w in range(self.n_workers):
            self._reply(w)

    def _spawn(self, w: int, append: bool) -> None:
        shm_name, layout, opts = self._boot
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(child, shm_name, layout, opts),
            name=f"lulesh-parallel-{w}",
            daemon=True,
        )
        proc.start()
        child.close()
        if append:
            self._procs.append(proc)
            self._conns.append(parent)
        else:
            self._procs[w] = proc
            self._conns[w] = parent

    def stop(self) -> None:
        """Shut the workers down; escalate to terminate/kill if needed.

        Stops are sent to every worker first, then each escalation stage
        joins all workers against one *shared* deadline — shutdown of an
        unresponsive pool costs one escalation ladder (~4 s), not one per
        worker.
        """
        if not self._started or self._stopped:
            return
        self._stopped = True
        atexit.unregister(self.stop)
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except Exception:
                pass
        for grace, escalate in ((2.0, "terminate"), (1.0, "kill"), (1.0, None)):
            deadline = time.monotonic() + grace
            survivors = []
            for proc in self._procs:
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
                if proc.is_alive():
                    survivors.append(proc)
            if not survivors:
                break
            for proc in survivors:
                if escalate == "terminate":
                    proc.terminate()
                elif escalate == "kill":
                    proc.kill()
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass

    @property
    def alive(self) -> bool:
        return (
            self._started
            and not self._stopped
            and bool(self._procs)
            and all(p.is_alive() for p in self._procs)
        )

    @property
    def poisoned(self) -> str | None:
        """Why the pool is unusable (``None`` when healthy)."""
        return self._poisoned

    # --- supervision primitives -----------------------------------------------

    def kill_worker(self, w: int) -> int | None:
        """Kill and reap one worker; returns its exit code (None if unknown).

        Used by the supervisor after a classified failure — the process may
        already be dead (pipe closed), hung (never replied), or alive but
        untrusted (garbled reply); in every case it is removed for good.
        """
        proc = self._procs[w]
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5.0)
        try:
            self._conns[w].close()
        except Exception:
            pass
        return proc.exitcode

    def respawn_worker(self, w: int) -> None:
        """Replace a reaped worker: fresh process, pipe, segment attach.

        The new process re-attaches the shared segment from the boot state
        saved at :meth:`start` and receives the current spec table (the one
        from the last :meth:`broadcast_plan`), so it is wave-ready the
        moment this returns.  Clears the pool poison on success.
        """
        self._check_usable(allow_poisoned=True)
        self._spawn(w, append=False)
        self._send(w, ("ping",))
        self.reply_deadline(w, _RESPAWN_PING_TIMEOUT_S)
        if self._specs is not None:
            self._send(w, ("plan", self._specs))
            self.reply_deadline(w, _RESPAWN_PING_TIMEOUT_S)
        self._poisoned = None

    def send_wave(self, w: int, deltatime, time_now, cycle, indices, fault=None):
        """Dispatch one wave message to one worker.

        Its reply, collected by :meth:`reply_deadline`, is ``(partials,
        busy_ns)``: the ``(index, value)`` pairs of the specs that
        returned a value, and the worker's summed spec execution time.
        """
        self._check_usable(allow_poisoned=True)
        self._send(w, ("wave", deltatime, time_now, cycle, indices, fault))

    def reply_deadline(self, w: int, timeout_s: float):
        """Collect one reply with a deadline; classify what went wrong.

        Raises :class:`WorkerHangError` when the deadline passes with no
        reply, :class:`WorkerDiedError` when the pipe is closed, and
        :class:`GarbledReplyError` when the reply cannot be decoded or has
        the wrong shape.  A kernel exception shipped back by the worker is
        re-raised with its original type, exactly like :meth:`_reply`.
        """
        conn = self._conns[w]
        try:
            if not conn.poll(max(0.0, timeout_s)):
                self._poisoned = f"worker {w} missed its wave deadline"
                raise WorkerHangError(
                    w,
                    f"worker {w} sent no reply within {timeout_s:.3f}s "
                    "(watchdog deadline)",
                )
            reply = conn.recv()
        except (EOFError, OSError) as exc:
            raise self._death(w) from exc
        except (pickle.UnpicklingError, AttributeError, ImportError) as exc:
            self._poisoned = f"worker {w} sent an undecodable reply"
            raise GarbledReplyError(
                w, f"worker {w} reply could not be decoded: {exc!r}"
            ) from exc
        if (
            not isinstance(reply, tuple)
            or len(reply) != 2
            or reply[0] not in ("ok", "err")
        ):
            self._poisoned = f"worker {w} sent a malformed reply"
            raise GarbledReplyError(
                w, f"worker {w} sent a malformed reply: {reply!r}"
            )
        status, payload = reply
        if status == "err":
            if isinstance(payload, BaseException):
                raise payload
            raise ParallelBackendError(f"worker {w} error: {payload!r}")
        return payload

    # --- dispatch -------------------------------------------------------------

    def broadcast_plan(self, specs) -> None:
        """Ship the lowered spec table to every worker (once per lowering)."""
        self._check_usable()
        self._specs = specs
        for w in range(self.n_workers):
            self._send(w, ("plan", specs))
        for w in range(self.n_workers):
            self._reply(w)

    # --- plumbing -------------------------------------------------------------

    def _check_usable(self, allow_poisoned: bool = False) -> None:
        if not self._started or self._stopped:
            raise ParallelBackendError("worker pool is not running")
        if self._poisoned is not None and not allow_poisoned:
            raise ParallelBackendError(
                f"worker pool is poisoned ({self._poisoned}); "
                "respawn the worker or stop the pool"
            )

    def _send(self, w: int, msg) -> None:
        try:
            self._conns[w].send(msg)
        except (OSError, ValueError) as exc:
            raise self._death(w) from exc

    def _reply(self, w: int):
        try:
            status, payload = self._conns[w].recv()
        except (EOFError, OSError) as exc:
            raise self._death(w) from exc
        if status == "err":
            if isinstance(payload, BaseException):
                raise payload
            raise ParallelBackendError(f"worker {w} error: {payload!r}")
        return payload

    def _death(self, w: int) -> WorkerDiedError:
        proc = self._procs[w]
        proc.join(timeout=1.0)
        self._poisoned = f"worker {w} died (exitcode {proc.exitcode})"
        return WorkerDiedError(
            w,
            f"worker {w} ({proc.name}) died mid-run "
            f"(exitcode {proc.exitcode}); the process backend cannot "
            "continue — shared state for the current cycle is suspect",
        )
