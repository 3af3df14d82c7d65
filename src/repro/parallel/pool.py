"""Persistent fork-server worker pool for the process backend.

Workers are warm and long-lived: spawned once per backend (fork-server
start method where available — Linux; ``spawn`` otherwise), they attach the
shared Domain segment at startup and then serve wave after wave, cycle
after cycle, over per-worker pipes.  Dispatch messages carry only spec
*indices* plus three per-cycle scalars — never closures, never field data.

Failure semantics: a dead worker (``EOFError``/``BrokenPipeError`` on its
pipe) raises :class:`~repro.parallel.errors.WorkerDiedError` naming the
worker and its exit code, and *poisons* the pool — further dispatches fail
until the worker is respawned (:meth:`ProcessWorkerPool.respawn_worker`,
normally driven by :class:`~repro.parallel.supervisor.WorkerSupervisor`)
or the pool is stopped.  An exception *inside* a worker's kernel is
re-raised here with its original type after the remaining replies of the
wave are drained (keeping every pipe message-aligned, so a checkpoint
rollback can keep using the pool); the same drain-before-raise discipline
applies when a worker dies mid-wave, so the survivors stay aligned for the
supervisor's retry.
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

    def __init__(self, n_workers: int, start_method: str | None = None) -> None:
        if n_workers < 1:
            raise ParallelBackendError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.start_method = start_method or pick_start_method()
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

    def respawn_worker(self, w: int, ping_timeout_s: float = 30.0) -> None:
        """Replace a reaped worker: fresh process, pipe, segment attach.

        The new process re-attaches the shared segment from the boot state
        saved at :meth:`start` and receives the current spec table (the one
        from the last :meth:`broadcast_plan`), so it is wave-ready the
        moment this returns.  Clears the pool poison on success.
        """
        self._check_usable(allow_poisoned=True)
        self._spawn(w, append=False)
        self._send(w, ("ping",))
        self.reply_deadline(w, ping_timeout_s)
        if self._specs is not None:
            self._send(w, ("plan", self._specs))
            self.reply_deadline(w, ping_timeout_s)
        self._poisoned = None

    def send_wave(self, w: int, deltatime, time_now, cycle, indices, fault=None):
        """Dispatch one wave message to one worker (supervision path)."""
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

    def run_wave(self, deltatime, time_now, cycle, assignments):
        """Execute one wave; returns ``(results, durations)``.

        *results* is ``[(spec_index, partial), ...]`` and *durations* the
        measured ``[(spec_index, ns), ...]`` across all replying workers.
        *assignments* is one index tuple per worker; workers with an empty
        tuple are skipped.  Any per-worker failure — a kernel exception or
        a dead pipe — is re-raised only after every other worker that
        received this wave has been drained, so the surviving pipes stay
        message-aligned.  Backend (transport) errors outrank kernel errors
        when both happen in one wave.
        """
        self._check_usable()
        active = [w for w in range(self.n_workers) if assignments[w]]
        sent: list[int] = []
        send_err: ParallelBackendError | None = None
        for w in active:
            try:
                self._send(w, ("wave", deltatime, time_now, cycle, assignments[w], None))
            except ParallelBackendError as exc:
                send_err = exc
                break
            sent.append(w)
        results: list = []
        durations: list = []
        backend_err: ParallelBackendError | None = None
        kernel_err: BaseException | None = None
        for w in sent:
            try:
                partials, durs = self._reply(w)
                results.extend(partials)
                durations.extend(durs)
            except ParallelBackendError as exc:
                if backend_err is None:
                    backend_err = exc
            except BaseException as exc:
                if kernel_err is None:
                    kernel_err = exc
        if send_err is not None:
            raise send_err
        if backend_err is not None:
            raise backend_err
        if kernel_err is not None:
            raise kernel_err
        return results, durations

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
