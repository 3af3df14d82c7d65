"""Task-local workspace arenas: the paper's jemalloc trick, made real.

The paper's trick #7 (§IV) keeps task-local temporary arrays alive across
iterations so the allocator stays out of the steady-state hot path.  In this
Python reproduction the analogous cost is numpy array allocation: every
``Mesh.gather`` fancy-index and every elementwise temporary in the kernels
is a fresh ``malloc`` (and, for the large ``(n, 8)`` buffers, an mmap'd
region the OS must fault in again each call).  This module removes those
allocations:

* :class:`KernelArena` — a pool of scratch buffers keyed by
  ``(shape, dtype)``.  Kernels *take* buffers for the duration of one call
  and *give* them back; in steady state every request is served from the
  pool and the allocation count is zero.
* :class:`Workspace` — the per-domain facade kernels actually use.  It
  wraps the arena with scoped checkout (:meth:`Workspace.scope`), a
  per-partition **gather cache** (:meth:`Workspace.gather`), and a cache
  for **static** index structures (:meth:`Workspace.static`) such as the
  ``reduceat`` offsets of :meth:`~repro.lulesh.mesh.Mesh.sum_corners_to_nodes`
  — connectivity never changes, so those are computed once.
* ``HEAP`` — a module-level allocate-each-time workspace.  Passing
  ``ws=None`` to a kernel selects it, which keeps the public kernel
  signatures optional-argument compatible and gives the ablation baseline
  (``HpxVariant.task_local_temporaries=False``) the exact pre-arena
  allocation behaviour while running the *same* code path.  Same code path
  means the arithmetic is bitwise identical between the two modes — only
  where the bytes live differs.

Gather-cache correctness.  A cached gather is only valid while the source
field is unchanged, so caching is **phase-gated**: it is active only inside
a :meth:`Workspace.phase` window, which the orchestration layers open
around one leapfrog iteration (or one phase of it).  Each entry remembers
the epoch (bumped when the outermost window opens) and the source field's
version (bumped by ``Domain.touch`` in the kernels that write nodal
fields).  Direct kernel calls outside any window — unit tests, the
distributed driver — always get fresh gathers, so no caller needs auditing;
those buffers belong to the caller and stay out of the pool and the live
byte accounting.
Cached buffers are handed out read-only; kernels that need to update
gathered coordinates (``calc_kinematics``'s half-step positions) write into
their own scratch instead.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

__all__ = ["WorkspaceStats", "KernelArena", "Workspace", "HEAP"]


@dataclass
class WorkspaceStats:
    """Allocation/reuse accounting, surfaced as ``/arena/*`` counters.

    Attributes:
        checkouts: buffers handed to kernels (pool hits + fresh allocations).
        allocations: buffers that had to be newly allocated.
        bytes_allocated: bytes of those fresh allocations.
        bytes_reused: bytes served from the pool without allocating.
        live_bytes: bytes currently held by the arena (pooled + checked out).
        high_water_bytes: maximum of ``live_bytes`` over the run.
        gathers: gather requests served (cached or fresh).
        gather_hits: gather requests served from the cache.
        static_builds: static index structures built (once each).
    """

    checkouts: int = 0
    allocations: int = 0
    bytes_allocated: int = 0
    bytes_reused: int = 0
    live_bytes: int = 0
    high_water_bytes: int = 0
    gathers: int = 0
    gather_hits: int = 0
    static_builds: int = 0

    def reset_tallies(self) -> None:
        """Zero the per-run tallies in place (counter closures hold this).

        ``live_bytes`` and ``static_builds`` describe the arena's *current
        contents* — which persist across campaign jobs by design — so they
        survive; the high-water mark restarts from the live level.
        """
        self.checkouts = 0
        self.allocations = 0
        self.bytes_allocated = 0
        self.bytes_reused = 0
        self.gathers = 0
        self.gather_hits = 0
        self.high_water_bytes = self.live_bytes


class KernelArena:
    """Pool of scratch ndarrays keyed by ``(shape, dtype)``.

    ``take`` returns a pooled buffer when one is free, else allocates; in
    reuse mode ``give`` returns it to the pool for the next checkout.  In
    allocate-each-time mode nothing is pooled: every ``take`` allocates and
    ``give`` drops the buffer — the pre-arena behaviour, kept on the same
    code path for the ablation.
    """

    def __init__(self, stats: WorkspaceStats, reuse: bool = True) -> None:
        self.reuse = reuse
        self.stats = stats
        self._pool: dict[tuple[tuple[int, ...], Any], list[np.ndarray]] = {}

    def take(self, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Check out a scratch buffer of *shape*/*dtype* (contents arbitrary)."""
        st = self.stats
        free = self._pool.get((shape, np.dtype(dtype)))
        if free:
            buf = free.pop()
            st.checkouts += 1
            st.bytes_reused += buf.nbytes
            return buf
        buf = self.fresh(shape, dtype)
        if self.reuse:
            # Pooled buffers stay alive for the run; in allocate-each-time
            # mode they are transient, so live/high-water only make sense
            # for the arena path.
            st.live_bytes += buf.nbytes
            if st.live_bytes > st.high_water_bytes:
                st.high_water_bytes = st.live_bytes
        return buf

    def fresh(self, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A newly allocated buffer that never enters the pool.

        Counted as a checkout and an allocation, never as live bytes: the
        caller owns it and does not :meth:`give` it back.
        """
        st = self.stats
        st.checkouts += 1
        buf = np.empty(shape, dtype=dtype)
        st.allocations += 1
        st.bytes_allocated += buf.nbytes
        return buf

    def give(self, buf: np.ndarray) -> None:
        """Return a buffer checked out with :meth:`take`."""
        if not self.reuse:
            return
        key = (buf.shape, buf.dtype)
        self._pool.setdefault(key, []).append(buf)


class _Scope:
    """One kernel call's checkouts, returned to the arena together on exit."""

    __slots__ = ("ws", "_arena", "_taken")

    def __init__(self, ws: "Workspace") -> None:
        self.ws = ws
        self._arena = ws.arena
        self._taken: list[np.ndarray] = []

    def take(self, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        buf = self._arena.take(shape, dtype)
        self._taken.append(buf)
        return buf

    def _close(self) -> None:
        for buf in self._taken:
            self._arena.give(buf)
        self._taken.clear()


@dataclass
class _GatherEntry:
    buf: np.ndarray
    epoch: int = -1
    version: int = -1


class Workspace:
    """Per-domain scratch arena + gather/static caches.

    Args:
        mesh: connectivity used by :meth:`gather` (optional for pure
            scratch-pool use, e.g. the module-level ``HEAP``).
        reuse: arena mode — ``True`` pools buffers and caches gathers,
            ``False`` allocates each time (the ablation baseline).
    """

    def __init__(self, mesh=None, reuse: bool = True) -> None:
        self.mesh = mesh
        self.reuse = reuse
        self.stats = WorkspaceStats()
        self.arena = KernelArena(self.stats, reuse=reuse)
        self._gather_cache: dict[tuple[str, int, int], _GatherEntry] = {}
        self._static: dict[Any, Any] = {}
        self._versions: dict[str, int] = {}
        self._epoch = 0
        self._phase_depth = 0

    # --- scratch checkout --------------------------------------------------

    def take(self, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Check a scratch buffer out of the arena (prefer :meth:`scope`)."""
        return self.arena.take(shape, dtype)

    def give(self, buf: np.ndarray) -> None:
        """Return a buffer previously obtained from :meth:`take`."""
        self.arena.give(buf)

    @contextmanager
    def scope(self) -> Iterator[_Scope]:
        """Scratch buffers for one kernel call, auto-returned on exit."""
        s = _Scope(self)
        try:
            yield s
        finally:
            s._close()

    # --- phase windows & field versions ------------------------------------

    @contextmanager
    def phase(self) -> Iterator[None]:
        """Open a gather-cache validity window (one iteration or phase).

        Nested windows share the outermost epoch, so an orchestration can
        wrap both the whole iteration and its sub-phases.
        """
        if self._phase_depth == 0:
            self._epoch += 1
        self._phase_depth += 1
        try:
            yield
        finally:
            self._phase_depth -= 1

    def touch(self, *names: str) -> None:
        """Record that nodal fields *names* were rewritten (invalidates gathers)."""
        for name in names:
            self._versions[name] = self._versions.get(name, 0) + 1

    # --- gather cache -------------------------------------------------------

    def gather(
        self, name: str, fieldarr: np.ndarray, lo: int, hi: int
    ) -> np.ndarray:
        """Corner values ``field[nodelist[lo:hi]]``, cached per partition.

        Inside a :meth:`phase` window (reuse mode) the ``(hi-lo, 8)`` result
        is cached under ``(name, lo, hi)`` and revalidated against the
        field's version, so stress and hourglass each see one gather per
        field per partition per iteration.  The cached buffer is read-only.
        Outside a window the gather is always fresh, writable and owned by
        the caller: it never enters the arena's pool or live accounting.
        """
        st = self.stats
        st.gathers += 1
        idx = self.mesh.nodelist[lo:hi]
        if not (self.reuse and self._phase_depth > 0):
            buf = self.arena.fresh((hi - lo, 8), fieldarr.dtype)
            np.take(fieldarr, idx, out=buf, mode="clip")
            return buf
        key = (name, lo, hi)
        version = self._versions.get(name, 0)
        entry = self._gather_cache.get(key)
        if entry is None:
            buf = self.arena.take((hi - lo, 8), fieldarr.dtype)
            buf.flags.writeable = False
            entry = self._gather_cache[key] = _GatherEntry(buf)
        if entry.epoch == self._epoch and entry.version == version:
            st.gather_hits += 1
            return entry.buf
        entry.buf.flags.writeable = True
        np.take(fieldarr, idx, out=entry.buf, mode="clip")
        entry.buf.flags.writeable = False
        entry.epoch = self._epoch
        entry.version = version
        return entry.buf

    # --- static structures --------------------------------------------------

    def static(self, key: Any, build: Callable[[], Any]) -> Any:
        """Build-once cache for index structures derived from connectivity."""
        try:
            return self._static[key]
        except KeyError:
            value = self._static[key] = build()
            self.stats.static_builds += 1
            return value


#: Allocate-each-time fallback for kernels called with ``ws=None`` (unit
#: tests, the distributed driver).  Never pools, never caches gathers.
HEAP = Workspace(reuse=False)
