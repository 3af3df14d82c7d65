"""The OpenMP-like runtime: thread team, parallel regions, loops.

Usage mirrors how the LULESH reference is structured::

    omp = OmpRuntime(machine, cost_model, n_threads=24)
    with omp.parallel_region("CalcForceForNodes"):
        omp.loop(n_nodes, zero_forces, work_ns_per_item=3)
        omp.loop(n_elems, integrate_stress, work_ns_per_item=160)
    # implicit barrier after each loop; fork charged once per region

Accounting follows the paper's Fig.-11 methodology for OpenMP: "we manually
measure the runtime each execution thread spends in each parallel region ...
we exclude the single-threaded portions of the OpenMP implementation from
our measurement".  Thus :meth:`OmpStats.utilization` divides summed
per-thread busy time by ``n_threads * parallel_ns`` (single-threaded time is
in ``total_ns`` but not in the utilization denominator).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from operator import add, sub
from typing import Any, Callable, Iterator

from repro.openmp.parallel import static_chunks
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig

__all__ = ["OmpRuntime", "OmpStats"]


@dataclass
class _RegionProbe:
    """Duck-typed stand-in for a task handed to the fault injector.

    OpenMP has no tasks, so fault injection happens at parallel-region
    granularity: the region name plays the task tag, the names of the
    kernels the region runs play the task descriptor, and a ``stall``
    fault's cost inflation lands on the region's elapsed time.
    """

    tag: str
    desc: tuple[str, ...] = ()
    cost_ns: int = 0


@dataclass
class OmpStats:
    """Accumulated timing of one OpenMP-like execution.

    All times are integer nanoseconds of simulated wall-clock.

    Attributes:
        total_ns: elapsed program time (serial + parallel regions).
        parallel_ns: elapsed time inside parallel regions only.
        serial_ns: elapsed single-threaded time.
        busy_ns: per-thread productive time inside parallel regions.
        n_regions / n_loops: structural counters (the reference has 30
            parallel regions per iteration; loops carry implicit barriers).
    """

    n_threads: int
    total_ns: int = 0
    parallel_ns: int = 0
    serial_ns: int = 0
    busy_ns: list[int] = field(default_factory=list)
    n_regions: int = 0
    n_loops: int = 0

    def __post_init__(self) -> None:
        if not self.busy_ns:
            self.busy_ns = [0] * self.n_threads

    def utilization(self) -> float:
        """Productive-time ratio inside parallel regions (Fig. 11)."""
        if self.parallel_ns == 0:
            return 1.0
        return sum(self.busy_ns) / (self.n_threads * self.parallel_ns)

    def copy(self) -> "OmpStats":
        """A snapshot that later accumulation does not touch."""
        return replace(self, busy_ns=list(self.busy_ns))

    def since(self, before: "OmpStats") -> "OmpStats":
        """What accumulated between the snapshot *before* and now."""
        return OmpStats(
            self.n_threads,
            self.total_ns - before.total_ns,
            self.parallel_ns - before.parallel_ns,
            self.serial_ns - before.serial_ns,
            list(map(sub, self.busy_ns, before.busy_ns)),
            self.n_regions - before.n_regions,
            self.n_loops - before.n_loops,
        )

    def add(self, delta: "OmpStats") -> None:
        """Accumulate *delta* (a :meth:`since` result) in one step."""
        self.total_ns += delta.total_ns
        self.parallel_ns += delta.parallel_ns
        self.serial_ns += delta.serial_ns
        self.busy_ns[:] = map(add, self.busy_ns, delta.busy_ns)
        self.n_regions += delta.n_regions
        self.n_loops += delta.n_loops

    def integral(self) -> bool:
        """Whether every time is an ``int``, so any sum of them is exact."""
        times = (self.total_ns, self.parallel_ns, self.serial_ns, *self.busy_ns)
        return all(type(ns) is int for ns in times)


class OmpRuntime:
    """Fork/join runtime with static-scheduled parallel loops."""

    def __init__(
        self,
        machine: MachineConfig,
        cost_model: CostModel,
        n_threads: int,
        execute_bodies: bool = True,
        default_schedule: str = "static",
        dynamic_chunk: int | None = None,
    ) -> None:
        machine.validate_workers(n_threads)
        if default_schedule not in ("static", "dynamic"):
            raise ValueError(
                f"default_schedule must be static/dynamic, got {default_schedule}"
            )
        if dynamic_chunk is not None and dynamic_chunk < 1:
            raise ValueError(
                f"dynamic_chunk must be >= 1, got {dynamic_chunk}"
            )
        self.machine = machine
        self.cost_model = cost_model
        self.n_threads = n_threads
        self.execute_bodies = execute_bodies
        self.default_schedule = default_schedule
        # schedule(dynamic, chunk): None models libgomp auto-chunking.
        self.dynamic_chunk = dynamic_chunk
        self._speeds = [
            machine.worker_speed(t, n_threads) for t in range(n_threads)
        ]
        self._stats = OmpStats(n_threads=n_threads)
        self._in_region = False
        self._region_elapsed = 0
        self._iteration_hooks: list[Callable[["OmpRuntime"], None]] = []
        # (n_items, work_ns_per_item, schedule, nowait) -> _loop_cost(...)
        self._loop_costs: dict[tuple, tuple] = {}
        # Optional resilience hook (duck-typed): consulted at region entry
        # via ``draw_task(probe)``; may raise InjectedFault or inflate cost.
        self.fault_injector: Any = None

    # --- structure ------------------------------------------------------------

    @contextmanager
    def parallel_region(
        self, name: str = "region", kernels: tuple[str, ...] = ()
    ) -> Iterator[None]:
        """A ``#pragma omp parallel`` region; fork charged at entry.

        Loops issued inside share the fork; each still ends in an implicit
        barrier.  Regions cannot nest (LULESH does not nest them).
        *kernels* names the kernels the region runs, for the fault
        injector.
        """
        if self._in_region:
            raise RuntimeError("parallel regions cannot nest")
        stall_ns = 0
        if self.fault_injector is not None:
            probe = _RegionProbe(tag=name, desc=kernels)
            fire = self.fault_injector.draw_task(probe)
            stall_ns = probe.cost_ns
            if fire is not None:
                # Raises before the region is entered — runtime state stays
                # consistent, the caller sees the injected failure.
                fire()
        self._in_region = True
        self._region_elapsed = (
            self.cost_model.omp_fork_ns(self.n_threads) + stall_ns
        )
        try:
            yield
        finally:
            self._in_region = False
            self._stats.n_regions += 1
            self._stats.parallel_ns += self._region_elapsed
            self._stats.total_ns += self._region_elapsed
            self._region_elapsed = 0

    def loop(
        self,
        n_items: int,
        body: Callable[[int, int], object] | None = None,
        work_ns_per_item: float = 0.0,
        tag: str = "for",
        nowait: bool = False,
        schedule: str | None = None,
    ) -> None:
        """A ``#pragma omp for`` loop inside the current region.

        ``schedule='static'`` (the reference's choice and the default):
        one contiguous chunk per thread; the barrier waits for the slowest
        thread inflated by the straggler factor.

        ``schedule='dynamic'``: threads pull small chunks from a shared
        counter — the straggler penalty disappears (late threads simply take
        fewer chunks) but every chunk pays a dequeue cost on the shared
        counter, and the interleaved chunks lose the contiguous-sweep
        prefetch (a slightly higher streaming penalty).  This is the
        counterfactual the paper's reader asks about: dynamic scheduling
        alone does *not* recover the task-based version's wins, because the
        per-loop barriers remain.

        ``body(lo, hi)`` is invoked once per *static* chunk either way (the
        math is schedule-independent); the loop's elapsed time is the
        slowest thread plus the implicit barrier, unless ``nowait``.
        """
        if not self._in_region:
            raise RuntimeError("omp for outside of a parallel region")
        if n_items < 0:
            raise ValueError(f"n_items must be non-negative, got {n_items}")
        if schedule is None:
            schedule = self.default_schedule
        if schedule not in ("static", "dynamic"):
            raise ValueError(f"schedule must be static/dynamic, got {schedule}")
        self._stats.n_loops += 1
        key = (n_items, work_ns_per_item, schedule, nowait)
        cost = self._loop_costs.get(key)
        if cost is None:
            cost = self._loop_costs[key] = self._loop_cost(*key)
        chunks, busy, elapsed = cost
        totals = self._stats.busy_ns
        if self.execute_bodies and body is not None:
            # A body that raises leaves the earlier chunks' time charged.
            for t, (lo, hi) in enumerate(chunks):
                if hi > lo:
                    body(lo, hi)
                    totals[t] += busy[t]
        else:
            totals[:] = map(add, totals, busy)
        self._region_elapsed += elapsed

    def _loop_cost(
        self, n_items: int, work_ns_per_item: float, schedule: str,
        nowait: bool,
    ) -> tuple[list[tuple[int, int]], tuple[int, ...], int]:
        """Static chunks, per-thread busy ns and elapsed ns of one loop.

        A pure function of the loop's shape and the runtime's fixed team,
        machine and cost model, so :meth:`loop` computes it once per shape.
        """
        chunks = static_chunks(n_items, self.n_threads)
        # Loop-at-a-time execution re-streams the whole loop footprint: the
        # reuse working set is the full index range (cache-reuse model).
        penalty = self.cost_model.stream_penalty(
            n_items, work_ns_per_item, self.n_threads
        )
        if schedule == "dynamic":
            # Interleaved chunks defeat the hardware prefetcher's
            # contiguous-sweep advantage.
            penalty *= 1.02
        rate = work_ns_per_item * penalty
        busy = tuple(
            int(round(rate * (hi - lo) / speed)) if hi > lo else 0
            for (lo, hi), speed in zip(chunks, self._speeds)
        )
        slowest = max(0, *busy)
        if schedule == "static":
            # Static chunks cannot rebalance around stragglers; the barrier
            # waits for the slowest thread plus the noise factor.
            elapsed = int(round(
                slowest * self.cost_model.omp_imbalance_factor(self.n_threads)
            ))
        else:
            # Dynamic self-balances (no straggler factor) but pays a shared
            # dequeue per chunk; libgomp default dynamic chunk is 1 item —
            # modeled at a saner auto-chunk of ~n/(8T) with a floor.
            if self.n_threads > 1 and n_items > 0:
                if self.dynamic_chunk is not None:
                    chunk_items = self.dynamic_chunk
                else:
                    chunk_items = max(64, n_items // (8 * self.n_threads))
                n_chunks = -(-n_items // chunk_items)
                dequeue = n_chunks * self.cost_model.omp_loop_setup_ns
                elapsed = slowest + dequeue // self.n_threads
            else:
                elapsed = slowest
        if self.n_threads > 1:
            elapsed += self.cost_model.omp_loop_setup_ns
            if not nowait:
                elapsed += self.cost_model.omp_barrier_ns(self.n_threads)
        return chunks, busy, elapsed

    def single(self, work_ns: int, body: Callable[[], object] | None = None) -> None:
        """Single-threaded program portion (outside parallel regions)."""
        if self._in_region:
            raise RuntimeError("serial section inside a parallel region")
        if work_ns < 0:
            raise ValueError(f"work_ns must be non-negative, got {work_ns}")
        if self.execute_bodies and body is not None:
            body()
        # Master thread runs at its own placement speed.
        elapsed = int(round(work_ns / self._speeds[0]))
        self._stats.serial_ns += elapsed
        self._stats.total_ns += elapsed

    # --- accounting ---------------------------------------------------------

    def add_iteration_hook(self, hook: Callable[["OmpRuntime"], None]) -> None:
        """Call ``hook(runtime)`` at every :meth:`end_iteration` boundary.

        OpenMP has no flush boundary, so the leapfrog driver marks iteration
        ends explicitly; the performance-counter registry (:mod:`repro.obs`)
        samples its counters there.
        """
        self._iteration_hooks.append(hook)

    def clear_sampling_hooks(self) -> None:
        """Drop every registered iteration hook.

        A counter sampler's hook holds its registry, whose counters hold
        this runtime: clearing the hooks when a run returns lets the run's
        registry be freed without waiting for the cyclic garbage collector.
        """
        self._iteration_hooks.clear()

    def end_iteration(self) -> None:
        """Mark one leapfrog-iteration boundary (fires sampling hooks)."""
        if self._in_region:
            raise RuntimeError("cannot end an iteration inside a parallel region")
        for hook in self._iteration_hooks:
            hook(self)

    @property
    def stats(self) -> OmpStats:
        return self._stats

    def reset_stats(self) -> None:
        """Clear accumulated statistics (not valid inside a region)."""
        if self._in_region:
            raise RuntimeError("cannot reset stats inside a parallel region")
        self._stats = OmpStats(n_threads=self.n_threads)
