"""Span tracing with cross-rank parent/child context propagation.

The instrument the ROADMAP's futurized-boundary-exchange work will be
evaluated with: every simulated rank owns a virtual timeline of *spans*
(compute phases, halo sends/receives, allreduces), and message-borne
:class:`SpanContext` stamps — carrying a Lamport clock and the sender's
span identity — align the per-rank timelines causally.  A receive span is
*parented* to the send span that produced its data, on another rank, so a
single merged timeline (Chrome trace with one process per rank, or JSONL;
:mod:`repro.obs.traceview` writes both) shows per-rank
compute/communication overlap with cross-rank arrows.

Timing model (documented, deliberate):

* **compute spans** measure real wall time of the instrumented block and
  append it to the rank's virtual clock — honest relative phase costs even
  though all ranks share one OS process;
* **communication spans** use a small wire model (latency + inverse
  bandwidth), since the in-process exchange itself is a memcpy; a receive
  can never start before its matching send's virtual end plus latency
  (happens-before, enforced via the propagated context);
* **Lamport clocks** tick on every span start and merge on every receive
  (``observe``), so causal order is checkable independently of the
  virtual-time alignment.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = [
    "LogicalClock",
    "SpanContext",
    "Span",
    "SpanTracer",
]


class LogicalClock:
    """A Lamport clock: local ticks and receive-merge observation."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def tick(self) -> int:
        """Advance for a local event; returns the new value."""
        self.value += 1
        return self.value

    def observe(self, remote: int) -> int:
        """Merge a received stamp (``max(local, remote) + 1``)."""
        self.value = max(self.value, remote) + 1
        return self.value


@dataclass(frozen=True)
class SpanContext:
    """The cross-rank propagation stamp piggybacked on a message.

    Attributes:
        span_id: the sending span's id (the receive span's parent).
        rank: the sending rank.
        clock: the sender's Lamport stamp at send time.
        ready_ns: earliest virtual time the payload can be consumed
            (sender's span end plus wire latency).
    """

    span_id: int
    rank: int
    clock: int
    ready_ns: int


@dataclass
class Span:
    """One timeline interval on one rank's virtual clock."""

    span_id: int
    name: str
    rank: int
    kind: str  # "compute" | "comm" | "sync"
    start_ns: int
    end_ns: int
    clock: int
    cycle: int | None = None
    parent_id: int | None = None
    parent_rank: int | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_json(self) -> str:
        """One compact JSON object (one JSONL line)."""
        obj: dict = {
            "span_id": self.span_id,
            "name": self.name,
            "rank": self.rank,
            "kind": self.kind,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "clock": self.clock,
        }
        if self.cycle is not None:
            obj["cycle"] = self.cycle
        if self.parent_id is not None:
            obj["parent_id"] = self.parent_id
            obj["parent_rank"] = self.parent_rank
        return json.dumps(obj, sort_keys=True)


class SpanTracer:
    """Per-rank virtual timelines with message-aligned causality.

    Args:
        n_ranks: simulated ranks sharing this tracer (one virtual clock and
            one Lamport clock each).
        latency_ns: modeled one-way wire latency for message spans.
        bytes_per_ns: modeled wire bandwidth for message spans.
        wall_clock: time source for measuring compute spans (injectable for
            deterministic tests).
    """

    def __init__(
        self,
        n_ranks: int = 1,
        latency_ns: int = 2_000,
        bytes_per_ns: float = 4.0,
        wall_clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        self.n_ranks = n_ranks
        self.latency_ns = latency_ns
        self.bytes_per_ns = bytes_per_ns
        self.spans: list[Span] = []
        self._now = [0] * n_ranks
        self._clocks = [LogicalClock() for _ in range(n_ranks)]
        self._next_id = 0
        self._wall = wall_clock

    def now(self, rank: int) -> int:
        """The rank's current virtual time."""
        return self._now[rank]

    def clock(self, rank: int) -> int:
        """The rank's current Lamport value."""
        return self._clocks[rank].value

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    # --- compute spans ------------------------------------------------------

    @contextmanager
    def span(
        self,
        name: str,
        rank: int = 0,
        cycle: int | None = None,
        kind: str = "compute",
    ) -> Iterator[Span]:
        """Measure the enclosed block as one span on *rank*'s timeline."""
        clock = self._clocks[rank].tick()
        span = Span(
            span_id=self._new_id(), name=name, rank=rank, kind=kind,
            start_ns=self._now[rank], end_ns=-1, clock=clock, cycle=cycle,
        )
        t0 = self._wall()
        try:
            yield span
        finally:
            dur = max(1, self._wall() - t0)
            span.end_ns = span.start_ns + dur
            self._now[rank] = span.end_ns
            self.spans.append(span)

    # --- message spans (PlaneExchanger integration) -------------------------

    def message_ns(self, nbytes: int) -> int:
        """Modeled on-wire duration of an *nbytes* payload."""
        return max(1, int(round(nbytes / self.bytes_per_ns)))

    def message_send(
        self,
        name: str,
        src: int,
        nbytes: int,
        cycle: int | None = None,
    ) -> SpanContext:
        """Record a send span on *src*; returns the context to propagate."""
        clock = self._clocks[src].tick()
        dur = self.message_ns(nbytes)
        span = Span(
            span_id=self._new_id(), name=name, rank=src, kind="comm",
            start_ns=self._now[src], end_ns=self._now[src] + dur,
            clock=clock, cycle=cycle,
        )
        self._now[src] = span.end_ns
        self.spans.append(span)
        return SpanContext(
            span_id=span.span_id, rank=src, clock=clock,
            ready_ns=span.end_ns + self.latency_ns,
        )

    def message_recv(
        self,
        name: str,
        dst: int,
        nbytes: int,
        ctx: SpanContext | None,
        cycle: int | None = None,
    ) -> Span:
        """Record a receive span on *dst*, parented to *ctx*'s send span.

        The receive starts no earlier than the context's ``ready_ns``
        (happens-before), and the Lamport clock merges the sender's stamp,
        so ``recv.clock > send.clock`` always holds.
        """
        if ctx is not None:
            clock = self._clocks[dst].observe(ctx.clock)
            start = max(self._now[dst], ctx.ready_ns)
        else:
            clock = self._clocks[dst].tick()
            start = self._now[dst]
        span = Span(
            span_id=self._new_id(), name=name, rank=dst, kind="comm",
            start_ns=start, end_ns=start + self.message_ns(nbytes),
            clock=clock, cycle=cycle,
            parent_id=None if ctx is None else ctx.span_id,
            parent_rank=None if ctx is None else ctx.rank,
        )
        self._now[dst] = span.end_ns
        self.spans.append(span)
        return span

    def sync_all(self, name: str, cycle: int | None = None) -> None:
        """A global barrier (allreduce): align every rank's clocks.

        Each rank gets a ``sync`` span from its local virtual time to the
        global maximum (the barrier wait), and all Lamport clocks merge.
        """
        if self.n_ranks == 1:
            return
        # every rank leaves the barrier at the same instant, one past the
        # slowest arrival so even the last rank's wait span has width
        barrier_ns = max(self._now) + 1
        peak_clock = max(c.value for c in self._clocks)
        for r in range(self.n_ranks):
            clock = self._clocks[r].observe(peak_clock)
            span = Span(
                span_id=self._new_id(), name=name, rank=r, kind="sync",
                start_ns=self._now[r], end_ns=barrier_ns,
                clock=clock, cycle=cycle,
            )
            self._now[r] = span.end_ns
            self.spans.append(span)
