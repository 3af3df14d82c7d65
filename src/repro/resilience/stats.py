"""Shared accounting for the resilience layer.

One :class:`ResilienceStats` instance is threaded through the injector, the
replay policy, and the recovery manager so a single object answers "what did
resilience do this run" — it backs the ``/resilience/*`` counters in the
performance registry (:func:`repro.obs.sources.install_resilience_counters`)
and the trace-event list consumed by tests and the CLI summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["ResilienceStats"]

#: Resilience event kind → flight-recorder event kind.  Task/field strikes
#: fold into ``fault`` and wire strikes into ``comm_fault``; the specific
#: injector kind survives in the event detail.
_FLIGHT_KINDS = {
    "retry": "retry",
    "checkpoint": "checkpoint",
    "rollback": "rollback",
    "degrade": "degrade",
    "stall": "fault",
    "raise": "fault",
    "nan": "fault",
    "inf": "fault",
    "drop": "comm_fault",
    "dup": "comm_fault",
    "kill": "fault",
    "hang": "fault",
    "garble": "fault",
}


@dataclass
class ResilienceStats:
    """Counters and an event log for one run.

    Attributes:
        injected_faults: faults actually fired (not merely armed).
        retries: task re-executions performed by the replay policy.
        rollbacks: checkpoint restores performed by auto-recovery.
        degraded_cycles: cycles executed under a degraded (halved) timestep.
        checkpoints: checkpoints written (including the initial one).
        comm_dropped: PlaneExchanger messages suppressed by the injector.
        comm_duplicated: PlaneExchanger messages sent twice by the injector.
        events: ``(kind, detail)`` tuples in occurrence order — the trace
            of everything the resilience layer did, for tests and debugging.
        flight_recorder: optional
            :class:`~repro.obs.recorder.FlightRecorder` (duck-typed) that
            mirrors every recorded event, mapped through the kind table
            above, into the run-wide flight record.
    """

    injected_faults: int = 0
    retries: int = 0
    rollbacks: int = 0
    degraded_cycles: int = 0
    checkpoints: int = 0
    comm_dropped: int = 0
    comm_duplicated: int = 0
    events: list[tuple[str, dict]] = field(default_factory=list)
    flight_recorder: Any = None

    def record(self, kind: str, **detail: object) -> None:
        """Append one trace event (mirrored into the flight recorder)."""
        self.events.append((kind, dict(detail)))
        fr = self.flight_recorder
        if fr is not None:
            flight_kind = _FLIGHT_KINDS.get(kind)
            if flight_kind is not None:
                payload = dict(detail)
                cycle = payload.pop("cycle", None)
                if flight_kind in ("fault", "comm_fault"):
                    payload["fault_kind"] = kind
                fr.record(
                    flight_kind,
                    cycle=cycle if isinstance(cycle, int) else None,
                    **payload,
                )

    def events_of(self, kind: str) -> list[dict]:
        """All event details of one *kind*, in occurrence order."""
        return [d for k, d in self.events if k == kind]
