"""Graph capture & replay: build the iteration task graph once, re-fire it.

The paper pre-creates *all* tasks of one leapfrog iteration at once (§IV);
this module removes the cost of doing that pre-creation *every cycle*.  The
runtime records the first build of an iteration as an immutable
:class:`GraphTemplate` — the exact `SimTask`/`Future` objects in creation
order, segmented at flush boundaries — and subsequent cycles *replay* the
template: every captured future and task is reset in place (the re-arm
protocol: :meth:`~repro.amt.future.Future._reset_for_replay`,
:meth:`~repro.simcore.pool.SimTask.reset_for_replay`) and the segment is
handed back to the worker pool.  No futures, tasks, closures, or cost
bindings are allocated in steady state — the same trick CUDA Graphs applies
to inference launch overhead, here applied to Python-side graph
construction.

Replay changes *real* wall clock only.  Simulated time is untouched: the
pool charges the identical serialized spawn costs in the identical order
and assigns fresh, consecutive task ids per run, so DES makespans, traces,
counters, and the executed physics are bit-identical to rebuilding the
graph from scratch.  A runtime simulates a template only at its first
replay and re-applies the memoized outcome at later ones, across runs too:
a warm campaign executor's later jobs re-apply the simulation of its first
(:meth:`~repro.amt.runtime.AmtRuntime.replay_graph`).  A re-applied
segment normally runs its bodies again.  A *timing-only* template (one
captured by a program without a Domain) whose segment still holds every
outcome its bodies would store is served without re-arming it or running
a body: only its task ids and statistics move (:func:`is_settled`).

Segmentation exists for the Fig. 5 (unchained) variant, whose build
interleaves blocking ``wait_all`` barriers: each flush becomes one
:class:`CapturedSegment`, and a segment remembers which futures its
original ``wait_all`` checked so replay reproduces the barrier's rethrow
semantics exactly.

A template is only valid while the graph's structure is: programs must
invalidate (drop) it when the variant, partition sizes, or shape change,
when a checkpoint rollback rewinds the cycle counter, or when a fault
injector plans to strike the upcoming cycle (fault draws happen at task
*creation*, which a replayed cycle never performs).  The LULESH programs
share that rule in :class:`~repro.core.program.GraphProgram`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.amt.future import Future
    from repro.simcore.pool import SimTask

__all__ = [
    "CapturedSegment",
    "GraphTemplate",
    "GraphStats",
    "is_settled",
    "reset_segment",
    "snapshot_segment",
]


@dataclass(frozen=True)
class CapturedSegment:
    """One flush's worth of a captured iteration graph.

    Attributes:
        tasks: the segment's tasks in creation order (the order the pool
            charges spawn costs and assigns ids in).
        futures: every future created in the segment, for the re-arm reset.
        costs: capture-time ``cost_ns`` snapshot per task — execution can
            mutate a task's cost (bounded-replay backoff, stall faults), so
            replay restores the as-built value.
        wait_futures: the futures the original blocking ``wait_all``
            checked after this flush (``None`` for a plain flush).
        rethrow: the original barrier's rethrow flag.
    """

    tasks: tuple["SimTask", ...]
    futures: tuple["Future", ...]
    costs: tuple[int, ...]
    wait_futures: tuple["Future", ...] | None = None
    rethrow: bool = True


@dataclass(frozen=True)
class GraphTemplate:
    """An immutable captured iteration graph: segments in execution order.

    ``timing_only`` marks a graph captured by a program without a Domain.
    Its bodies compute nothing: each can only store the outcome its future
    already holds from the last execution (``None``, a constant, or the
    same input list), unless an input failed.  A memo hit may therefore
    serve its settled segments without running them
    (:meth:`~repro.amt.runtime.AmtRuntime.replay_graph`).
    """

    segments: tuple[CapturedSegment, ...]
    timing_only: bool = False

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def n_tasks(self) -> int:
        return sum(len(seg.tasks) for seg in self.segments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphTemplate(segments={self.n_segments}, tasks={self.n_tasks})"
        )


@dataclass
class GraphStats:
    """Accounting for one program's capture/replay behaviour.

    Backs the ``/graph/*`` performance counters
    (:func:`repro.obs.sources.install_graph_counters`).

    Attributes:
        captures: templates captured (first build + every re-capture after
            an invalidation).
        replays: cycles served by re-firing a captured template.
        memo_hits: replayed cycles whose simulation was re-applied from the
            runtime's replay memo instead of run again.
        invalidations: templates dropped (structure change, rollback, or a
            fault-injection cycle).
        build_ns: real wall-clock spent constructing graphs, execution
            excluded (Python-side task/future/closure creation only).
        replay_ns: real wall-clock spent re-arming captured graphs
            (the reset loops, or the settled checks that stand in for
            them), execution excluded — the direct like-for-like
            comparison against ``build_ns``.
    """

    captures: int = 0
    replays: int = 0
    memo_hits: int = 0
    invalidations: int = 0
    build_ns: int = 0
    replay_ns: int = 0

    def reset(self) -> None:
        """Zero every field **in place**.

        Counter closures capture this object, so per-job scoping must
        mutate it rather than rebind a fresh instance.
        """
        self.captures = 0
        self.replays = 0
        self.memo_hits = 0
        self.invalidations = 0
        self.build_ns = 0
        self.replay_ns = 0


def reset_segment(segment: CapturedSegment) -> None:
    """Re-arm one captured segment in place (zero allocations).

    Resets every future's stored outcome and every task's lifecycle fields,
    restoring capture-time costs.  Exposed as a function so the
    zero-allocation property can be tested in isolation from the DES run.
    """
    for fut in segment.futures:
        fut._reset_for_replay()
    tasks = segment.tasks
    costs = segment.costs
    for i in range(len(tasks)):
        tasks[i].reset_for_replay(costs[i])


def is_settled(segment: CapturedSegment) -> bool:
    """Whether every future of *segment* holds a value and no exception.

    A future whose one-shot value was taken by ``get`` no longer holds it.
    Only reads the futures: a segment that is not settled is left as it
    is, for :func:`reset_segment`.
    """
    for fut in segment.futures:
        if not fut._has_value or fut._retrieved or fut._exception is not None:
            return False
    return True


def snapshot_segment(
    tasks: Sequence["SimTask"],
    futures: Sequence["Future"],
    wait_futures: Sequence["Future"] | None,
    rethrow: bool,
) -> CapturedSegment:
    """Freeze one flushed segment into its immutable captured form."""
    return CapturedSegment(
        tasks=tuple(tasks),
        futures=tuple(futures),
        costs=tuple(t.cost_ns for t in tasks),
        wait_futures=None if wait_futures is None else tuple(wait_futures),
        rethrow=rethrow,
    )
