"""Critical-path analysis of a recorded task graph.

The makespan of a task-parallel execution is bounded below by the longest
dependency chain through its graph — no scheduler, and no number of worker
threads, can beat it.  Comparing that bound with the observed makespan tells
how much of the remaining time is *structural* (chain-limited, fix the
graph) vs *scheduling* (idle/overhead, fix the runtime) — exactly the split
the paper reasons about when it moves from the Fig.-5 barriered schedule to
the Fig.-8 chained one.

Works on the :class:`~repro.simcore.trace.TaskSpan` stream of a run recorded
with ``record_spans=True``: spans carry the dependency edges (``parents``)
that :class:`~repro.simcore.pool.SimWorkerPool` threads through from the
``SimTask`` graph.  A run of several flushes executes its segments back to
back — each blocking barrier or cycle boundary waits for the whole segment
— so the run's chain is the sum of every segment's longest chain.  Spans
are grouped into segments by ``TaskSpan.cycle`` (the flush index; the
spans of one unmerged pool run all carry the same value), and the reported
path is the per-segment chains in segment order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.simcore.trace import TaskSpan

__all__ = ["CriticalPathResult", "analyze_critical_path"]


@dataclass(frozen=True)
class CriticalPathResult:
    """Longest dependency chain of one recorded execution."""

    critical_path_ns: int  # summed durations along the longest chain
    makespan_ns: int  # observed makespan the chain is compared against
    total_busy_ns: int  # summed durations of all spans
    n_spans: int
    path: tuple[TaskSpan, ...]  # the chain, in execution order

    @property
    def speedup_bound(self) -> float:
        """Max further speed-up from perfect scheduling (makespan / chain)."""
        if self.critical_path_ns == 0:
            return 1.0
        return self.makespan_ns / self.critical_path_ns

    @property
    def parallelism(self) -> float:
        """Average available parallelism (total work / chain length)."""
        if self.critical_path_ns == 0:
            return 1.0
        return self.total_busy_ns / self.critical_path_ns

    @property
    def chain_fraction(self) -> float:
        """Share of the makespan pinned under the longest chain."""
        if self.makespan_ns == 0:
            return 0.0
        return self.critical_path_ns / self.makespan_ns

    def summary(self) -> str:
        """Human-readable multi-line report for the CLI."""
        cp_tags = [s.tag for s in self.path]
        head = cp_tags[:3]
        shown = " -> ".join(head) + (" -> ..." if len(cp_tags) > 3 else "")
        return "\n".join(
            [
                f"critical path: {self.critical_path_ns / 1e6:.3f} ms over "
                f"{len(self.path)} tasks ({shown})",
                f"makespan:      {self.makespan_ns / 1e6:.3f} ms "
                f"({self.chain_fraction:.1%} chain-limited)",
                f"speed-up bound from scheduling alone: "
                f"{self.speedup_bound:.2f}x",
                f"available parallelism (work / chain): "
                f"{self.parallelism:.1f}",
            ]
        )


def analyze_critical_path(
    spans: Sequence[TaskSpan], makespan_ns: int
) -> CriticalPathResult:
    """Compute the longest dependency chain through *spans*.

    Chain length is the sum of task durations along dependency edges; edges
    to tasks outside a span's segment (e.g. parents retired before a
    blocking barrier's flush) contribute nothing.  Segments run one after
    another, so their longest chains add up.  The returned bound always
    satisfies ``critical_path_ns <= makespan_ns`` for spans recorded from
    simulated executions, since every segment's chain executed inside its
    own makespan.
    """
    if makespan_ns < 0:
        raise ValueError(f"makespan must be non-negative, got {makespan_ns}")
    if len({s.task_id for s in spans}) != len(spans):
        raise ValueError("duplicate task ids in span stream")
    segments: dict[int, list[TaskSpan]] = {}
    for s in spans:
        segments.setdefault(s.cycle, []).append(s)
    total = 0
    path: list[TaskSpan] = []
    for cycle in sorted(segments):
        length, chain = _longest_chain(segments[cycle])
        total += length
        path.extend(chain)
    return CriticalPathResult(
        critical_path_ns=total,
        makespan_ns=makespan_ns,
        total_busy_ns=sum(s.duration_ns for s in spans),
        n_spans=len(spans),
        path=tuple(path),
    )


def _longest_chain(spans: Sequence[TaskSpan]) -> tuple[int, list[TaskSpan]]:
    """The longest chain through one segment's spans and its length."""
    by_id = {s.task_id: s for s in spans}
    # Longest chain ending at each span, iteratively (graphs are deep for
    # continuation chains — avoid recursion limits).
    dist: dict[int, int] = {}
    best_parent: dict[int, int | None] = {}
    for s in spans:
        if s.task_id in dist:
            continue
        stack = [s.task_id]
        while stack:
            tid = stack[-1]
            node = by_id[tid]
            ready = True
            for p in node.parents:
                if p in by_id and p not in dist:
                    stack.append(p)
                    ready = False
            if not ready:
                continue
            stack.pop()
            if tid in dist:
                continue
            best, chosen = 0, None
            for p in node.parents:
                if p in by_id and dist[p] > best:
                    best, chosen = dist[p], p
            dist[tid] = best + node.duration_ns
            best_parent[tid] = chosen
    end_id = max(dist, key=lambda tid: dist[tid])
    chain: list[TaskSpan] = []
    cursor: int | None = end_id
    while cursor is not None:
        chain.append(by_id[cursor])
        cursor = best_parent[cursor]
    chain.reverse()
    return dist[end_id], chain
