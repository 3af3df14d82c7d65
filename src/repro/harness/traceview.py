"""Execution-trace export and ASCII visualization.

Two consumers:

* :func:`to_chrome_trace` — serializes recorded task spans into the Chrome
  trace-event format (load in ``chrome://tracing`` or Perfetto) for visual
  inspection of the task schedule.  Beyond the plain ``X`` duration events
  it emits ``thread_name`` metadata (rows labeled ``worker-0..N-1``),
  flow events (``ph: "s"/"f"``) along the recorded dependency edges so
  Perfetto draws the graph's arrows over the Gantt, and counter tracks
  (``ph: "C"``) — per-worker busy state plus the aggregate running-task
  count — so utilization renders as a curve above the schedule;
* :func:`ascii_gantt` — a terminal Gantt chart (used by
  ``examples/task_graph_inspect.py``).

Spans must be recorded by constructing the runtime with
``record_spans=True``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Sequence

from repro.simcore.trace import TaskSpan

__all__ = ["to_chrome_trace", "write_chrome_trace", "ascii_gantt"]


def _metadata_events(
    spans: Sequence[TaskSpan], process_name: str, n_workers: int | None
) -> list[dict]:
    """Process/thread naming so Perfetto labels rows, not bare tids."""
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": process_name},
        }
    ]
    workers = (
        range(n_workers)
        if n_workers is not None
        else sorted({s.worker for s in spans})
    )
    for w in workers:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": w,
                "args": {"name": f"worker-{w}"},
            }
        )
    return events


def _flow_events(spans: Sequence[TaskSpan]) -> list[dict]:
    """One s/f pair per dependency edge whose both endpoints were recorded.

    Spans are keyed by ``(cycle, task_id)``: a bare task id is ambiguous
    across graph-replayed cycles, and a plain id-keyed dict would be
    silently overwritten by every replay, attaching all arrows to the last
    cycle's spans.  Same-cycle resolution wins; an edge whose parent
    retired in an *earlier* flush segment (a blocking barrier mid-cycle,
    the Fig. 5 structure) falls back to the nearest preceding cycle.
    """
    by_key = {(s.cycle, s.task_id): s for s in spans}
    earlier: dict[int, TaskSpan] = {}
    for s in sorted(spans, key=lambda s: s.cycle):
        earlier[s.task_id] = s  # last (highest-cycle) span per id
    events: list[dict] = []
    flow_id = 0
    for child in spans:
        for pid in child.parents:
            parent = by_key.get((child.cycle, pid))
            if parent is None:
                cand = earlier.get(pid)
                if cand is not None and cand.cycle <= child.cycle:
                    parent = cand
            if parent is None:
                continue  # predecessor's span was never recorded
            flow_id += 1
            events.append(
                {
                    "name": "dep",
                    "cat": "flow",
                    "ph": "s",
                    "id": flow_id,
                    "pid": 1,
                    "tid": parent.worker,
                    "ts": parent.end_ns / 1000.0,
                }
            )
            events.append(
                {
                    "name": "dep",
                    "cat": "flow",
                    "ph": "f",
                    "bp": "e",
                    "id": flow_id,
                    "pid": 1,
                    "tid": child.worker,
                    "ts": child.start_ns / 1000.0,
                }
            )
    return events


def _counter_events(spans: Sequence[TaskSpan]) -> list[dict]:
    """Per-worker busy tracks and the aggregate running-task count."""
    events: list[dict] = []
    # (time, delta, worker); at equal times count ends before starts so the
    # counter dips to its between-task value instead of double-counting.
    edges: list[tuple[int, int, int]] = []
    for s in spans:
        edges.append((s.start_ns, 1, s.worker))
        edges.append((s.end_ns, -1, s.worker))
    edges.sort(key=lambda e: (e[0], e[1]))
    running = 0
    for t, delta, worker in edges:
        running += delta
        events.append(
            {
                "name": "running-tasks",
                "ph": "C",
                "pid": 1,
                "ts": t / 1000.0,
                "args": {"running": running},
            }
        )
        events.append(
            {
                "name": f"worker#{worker}/busy",
                "ph": "C",
                "pid": 1,
                "ts": t / 1000.0,
                "args": {"busy": 1 if delta > 0 else 0},
            }
        )
    return events


def to_chrome_trace(
    spans: Sequence[TaskSpan],
    process_name: str = "simulated-machine",
    n_workers: int | None = None,
) -> list[dict]:
    """Convert task spans to Chrome trace-event dicts.

    Times are emitted in microseconds (the trace-event unit); worker ids
    become thread ids, named ``worker-N`` via ``thread_name`` metadata.
    Dependency arrows (``ph: "s"/"f"``) follow the recorded
    ``TaskSpan.parents`` edges, and ``ph: "C"`` counter tracks draw the
    utilization curves.  Pass ``n_workers`` to name idle workers too.
    """
    events = _metadata_events(spans, process_name, n_workers)
    for span in spans:
        events.append(
            {
                "name": span.tag,
                "cat": "task",
                "ph": "X",
                "pid": 1,
                "tid": span.worker,
                "ts": span.start_ns / 1000.0,
                "dur": span.duration_ns / 1000.0,
                "args": {"task_id": span.task_id, "cycle": span.cycle},
            }
        )
    events.extend(_flow_events(spans))
    events.extend(_counter_events(spans))
    return events


def write_chrome_trace(
    path: str,
    spans: Sequence[TaskSpan],
    process_name: str = "simulated-machine",
    n_workers: int | None = None,
) -> None:
    """Write a ``chrome://tracing``-loadable JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"traceEvents": to_chrome_trace(spans, process_name, n_workers)},
            fh,
        )


def ascii_gantt(
    spans: Sequence[TaskSpan],
    makespan_ns: int,
    n_workers: int,
    width: int = 72,
    max_workers: int = 16,
) -> str:
    """Terminal Gantt chart: one row per worker, '#' where busy."""
    if makespan_ns <= 0:
        raise ValueError(f"makespan must be positive, got {makespan_ns}")
    if width < 8:
        raise ValueError(f"width must be >= 8, got {width}")
    per_worker: dict[int, list[TaskSpan]] = defaultdict(list)
    for s in spans:
        per_worker[s.worker].append(s)
    rows = []
    for w in range(min(n_workers, max_workers)):
        cells = [" "] * width
        for s in per_worker.get(w, []):
            lo = int(s.start_ns / makespan_ns * width)
            hi = max(lo + 1, int(s.end_ns / makespan_ns * width))
            for c in range(lo, min(hi, width)):
                cells[c] = "#"
        rows.append(f"w{w:02d} |{''.join(cells)}|")
    if n_workers > max_workers:
        rows.append(f"... ({n_workers - max_workers} more workers)")
    return "\n".join(rows)
