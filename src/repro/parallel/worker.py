"""Worker-process entry point for the process backend.

A worker reconstructs its own :class:`~repro.lulesh.domain.Domain` from the
pickled options (mesh, region lists, and symmetry planes are deterministic
functions of the options, so every process agrees on them), attaches the
shared field segment, and rebinds the domain's arrays to shared views.
From then on it serves a tiny message protocol over its pipe:

* ``("plan", specs)`` — install the lowered spec table (once per lowering);
* ``("wave", deltatime, time, cycle, indices, fault)`` — sync the per-cycle
  scalars, execute the indexed specs in order, reply
  ``("ok", (partials, busy_ns))`` where *partials* are the ``(index,
  value)`` pairs of the non-``None`` spec results (constraint minima) and
  *busy_ns* the summed wall time of the executed specs (the backend's
  ``/parallel/busy-time``);
* ``("ping",)`` — liveness round-trip, replies ``("ok", None)``;
* ``("stop",)`` — detach and exit.

The wave message's ``fault`` slot (normally ``None``) carries a
seeded chaos directive from the fault injector's ``worker:`` target.  The
worker honours it *after* executing its specs — the hard case for
recovery, since the writes have already landed in shared memory: ``kill``
exits the process without replying, ``hang`` sleeps far past any watchdog
deadline, ``garble`` sends undecodable bytes instead of the reply.  Recovery (and
the shadow-buffer restore that makes retrying non-idempotent specs safe)
is the supervisor's job on the other end of the pipe.

Each wave runs inside its own workspace phase window: wave tasks are
mutually independent (that is what a wave *is*), so gather caching within
the window is safe, and the window's epoch bump invalidates everything at
the next wave, when other processes may have rewritten fields.

A kernel exception is shipped back as ``("err", exc)`` with its original
type (falling back to a stringified ``RuntimeError`` if unpicklable) and
the worker stays alive — the run may continue after a checkpoint rollback.
"""

from __future__ import annotations

__all__ = ["worker_main"]


def worker_main(conn, shm_name, layout, opts) -> None:
    """Serve wave execution requests until ``stop`` or pipe closure."""
    # Imports deferred: under forkserver/spawn this module is imported in a
    # fresh interpreter, and keeping the import surface minimal keeps
    # worker startup cheap.
    import os
    import time

    from repro.lulesh.domain import Domain
    from repro.parallel.plan import execute_spec
    from repro.parallel.shm import SharedDomainArena

    domain = Domain(opts)
    arena = SharedDomainArena.attach(shm_name, layout)
    arena.bind(domain)
    specs = None
    try:
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "wave":
                _, deltatime, time_now, cycle, indices, fault = msg
                domain.deltatime = deltatime
                domain.time = time_now
                domain.cycle = cycle
                try:
                    partials = []
                    busy_ns = 0
                    with domain.workspace.phase():
                        for idx in indices:
                            t0 = time.perf_counter_ns()
                            value = execute_spec(domain, specs[idx])
                            busy_ns += time.perf_counter_ns() - t0
                            if value is not None:
                                partials.append((idx, value))
                    if fault == "kill":
                        # Writes are in shared memory but no reply ever
                        # comes: the parent sees a closed pipe mid-wave.
                        os._exit(17)
                    elif fault == "hang":
                        time.sleep(3600.0)
                        continue  # unreachable in practice: reaped long before
                    elif fault == "garble":
                        conn.send_bytes(b"\x80\x04not a pickle")
                        continue
                    conn.send(("ok", (partials, busy_ns)))
                except BaseException as exc:  # ship it back, keep serving
                    try:
                        conn.send(("err", exc))
                    except Exception:
                        conn.send(
                            ("err", RuntimeError(f"{type(exc).__name__}: {exc}"))
                        )
            elif op == "plan":
                specs = msg[1]
                conn.send(("ok", None))
            elif op == "ping":
                conn.send(("ok", None))
            elif op == "stop":
                return
            else:
                conn.send(("err", RuntimeError(f"unknown worker op {op!r}")))
    except (EOFError, OSError):
        return  # main process went away; nothing left to serve
    finally:
        arena.close()
        try:
            conn.close()
        except Exception:
            pass
