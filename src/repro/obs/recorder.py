"""Bounded ring-buffer flight recorder of typed structured events.

Aircraft-style always-on recording: every layer of the system emits typed
events into one bounded ring buffer (oldest events fall off first), so the
tail of any run — successful or crashed — can be dumped as JSONL and read
back as a structured post-mortem.  The emitters are duck-typed: the AMT
runtime, the resilience layer, the tuner, the graph capture cache, and the
distributed communicator each hold a ``flight_recorder`` attribute that
defaults to ``None`` (recording is strictly opt-in and costs nothing when
off).

Event kinds are a closed vocabulary (:data:`EVENT_KINDS`): an unknown kind
is a programming error, not a new event type, so consumers can exhaustively
switch on ``kind`` without defensive fallbacks.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass, field

from repro.obs.traceview import write_jsonl

__all__ = ["EVENT_KINDS", "FlightRecorder", "ObsEvent"]

#: The closed vocabulary of flight-recorder event kinds.
EVENT_KINDS = frozenset(
    {
        # runtime (repro.amt.runtime)
        "task_spawn",  # one task created (tag)
        "task_steal",  # per-segment steal summary (count, attempts)
        "task_retire",  # one task executed (tag, worker, duration_ns)
        "flush",  # one executed segment (makespan_ns, n_tasks)
        # resilience (repro.resilience)
        "fault",  # injector strike: raise/stall/nan/inf
        "comm_fault",  # injector strike on the wire: drop/dup
        "retry",  # bounded replay re-executed a task
        "rollback",  # checkpoint restore performed
        "checkpoint",  # checkpoint written
        "degrade",  # timestep degradation applied
        # graph capture & replay (repro.amt.graph users)
        "graph_capture",
        "graph_replay",
        "graph_invalidate",
        # tuning (repro.tuning)
        "tuner_trial",
        # process execution backend (repro.parallel)
        "parallel_start",  # pool spawned, segment shared (workers, shm_bytes)
        "parallel_stop",  # backend closed (cycles, fallbacks)
        "parallel_cycle",  # one cycle ran on real cores (waves, tasks)
        "parallel_fallback",  # one cycle ran serially (reason)
        # worker supervision (repro.parallel.supervisor)
        "worker_lost",  # classified worker failure (worker, reason, wave)
        "worker_respawn",  # dead worker replaced (worker, respawns)
        "wave_retry",  # wave re-dispatched after shadow restore (attempt)
        "backend_degraded",  # budgets exhausted; serial path for the rest
        # distributed exchange (repro.dist.comm)
        "halo_send",
        "halo_recv",
        "allreduce",
        # run lifecycle (drivers/CLI)
        "run_begin",
        "run_end",
        # campaign scheduler (repro.serve)
        "job_submitted",  # job admitted (job_id, priority)
        "job_start",  # attempt began on an executor (job_id, attempt)
        "job_cache_hit",  # served from the result cache (job_id, fingerprint)
        "job_done",  # completed (job_id, cached, wall_ns)
        "job_failed",  # terminal failure (job_id, status, error)
    }
)


@dataclass(frozen=True)
class ObsEvent:
    """One recorded event.

    Attributes:
        seq: monotonically increasing sequence number (survives ring
            eviction — gaps in dumped sequences reveal dropped history).
        kind: one of :data:`EVENT_KINDS`.
        time_ns: emitter-supplied timestamp (simulated ns where the emitter
            has simulated time, 0 otherwise).
        cycle: leapfrog cycle the event belongs to, when known.
        rank: simulated rank the event belongs to, when known.
        detail: kind-specific structured payload (JSON-serializable).
    """

    seq: int
    kind: str
    time_ns: int = 0
    cycle: int | None = None
    rank: int | None = None
    detail: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """One compact JSON object (one JSONL line)."""
        obj: dict = {"seq": self.seq, "kind": self.kind, "time_ns": self.time_ns}
        if self.cycle is not None:
            obj["cycle"] = self.cycle
        if self.rank is not None:
            obj["rank"] = self.rank
        if self.detail:
            obj["detail"] = self.detail
        return json.dumps(obj, sort_keys=True, default=str)


class FlightRecorder:
    """Bounded ring buffer of :class:`ObsEvent` rows.

    Args:
        capacity: maximum events retained; older events are evicted
            silently (their count survives in :attr:`n_dropped`).
    """

    def __init__(self, capacity: int = 65_536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: deque[ObsEvent] = deque(maxlen=capacity)
        self._seq = 0

    def record(
        self,
        kind: str,
        *,
        time_ns: int = 0,
        cycle: int | None = None,
        rank: int | None = None,
        **detail: object,
    ) -> ObsEvent:
        """Append one event; returns it.  Unknown kinds raise ValueError."""
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown flight-recorder event kind {kind!r}; "
                f"known: {sorted(EVENT_KINDS)}"
            )
        ev = ObsEvent(
            seq=self._seq, kind=kind, time_ns=time_ns, cycle=cycle,
            rank=rank, detail=dict(detail),
        )
        self._seq += 1
        self._ring.append(ev)
        return ev

    # --- inspection ---------------------------------------------------------

    @property
    def events(self) -> list[ObsEvent]:
        """Retained events, oldest first."""
        return list(self._ring)

    @property
    def n_recorded(self) -> int:
        """Events recorded since construction (evicted ones included)."""
        return self._seq

    @property
    def n_dropped(self) -> int:
        """Events evicted from the ring."""
        return self._seq - len(self._ring)

    def events_of(self, kind: str) -> list[ObsEvent]:
        """Retained events of one *kind*, oldest first."""
        return [e for e in self._ring if e.kind == kind]

    def counts(self) -> dict[str, int]:
        """Retained-event count per kind (sorted by kind)."""
        return dict(sorted(Counter(e.kind for e in self._ring).items()))

    # --- export -------------------------------------------------------------

    def to_json_lines(self) -> list[str]:
        """One JSON line per retained event, oldest first."""
        return [e.to_json() for e in self._ring]

    def dump_jsonl(self, path: str) -> int:
        """Write retained events as JSONL; returns the number written.

        The first line is a header object (``schema``, totals) so a dump is
        self-describing; every following line is one :class:`ObsEvent`.
        """
        lines = self.to_json_lines()
        header = json.dumps(
            {
                "schema": "lulesh-hpx-flight/1",
                "capacity": self.capacity,
                "n_recorded": self.n_recorded,
                "n_dropped": self.n_dropped,
                "n_events": len(lines),
            },
            sort_keys=True,
        )
        return write_jsonl(path, [header, *lines])
