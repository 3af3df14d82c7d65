"""Timeline exports: Chrome traces, span JSONL and the terminal Gantt.

Two span types render into the Chrome trace-event format (load in
``chrome://tracing`` or Perfetto):

* :func:`to_chrome_trace` — a run's recorded task schedule
  (:class:`~repro.simcore.trace.TaskSpan`): one process whose
  ``worker-N`` lanes hold the tasks, flow arrows (``ph: "s"/"f"``) along
  the recorded dependency edges so Perfetto draws the graph over the
  Gantt, and counter tracks (``ph: "C"``) — per-worker busy state plus the
  aggregate running-task count — so utilization renders as a curve;
* :func:`spans_to_chrome_trace` — the merged multi-rank timeline
  (:class:`~repro.obs.spans.Span`): one process per rank with one lane per
  span kind, and arrows along cross-rank parent edges.

Both exporters build their events with the same metadata, duration and
flow-arrow builders, and every Chrome-trace file is written by one private
writer; each exporter only decides how its span type maps onto processes,
lanes and arrows.  :func:`write_jsonl` writes every header-plus-records
JSONL file (the rank spans, the flight record and the metrics dump), and
:func:`ascii_gantt` draws a task schedule in the terminal (used by
``examples/task_graph_inspect.py``).

Task spans must be recorded by constructing the runtime with
``record_spans=True``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Iterable, Sequence

from repro.obs.spans import Span
from repro.simcore.trace import TaskSpan

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "spans_to_chrome_trace",
    "spans_to_jsonl_lines",
    "write_span_timeline",
    "write_jsonl",
    "ascii_gantt",
]

#: The lanes of one rank in the merged timeline, one per span kind.
_SPAN_KINDS = ("compute", "comm", "sync")


# --- shared builders and writers ----------------------------------------------


def _metadata_events(
    pid: int, process_name: str, lanes: Iterable[tuple[int, str]]
) -> list[dict]:
    """Process and thread naming, so Perfetto labels rows, not bare ids."""
    events = [
        {"name": "process_name", "ph": "M", "pid": pid,
         "args": {"name": process_name}}
    ]
    for tid, name in lanes:
        events.append(
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
             "args": {"name": name}}
        )
    return events


def _duration_event(
    name: str, cat: str, pid: int, tid: int, start_ns: int, dur_ns: int,
    args: dict,
) -> dict:
    """One ``ph: "X"`` event; trace-event times are microseconds."""
    return {
        "name": name, "cat": cat, "ph": "X", "pid": pid, "tid": tid,
        "ts": start_ns / 1000.0, "dur": dur_ns / 1000.0, "args": args,
    }


def _flow_events(
    name: str,
    flow_id: int,
    src: tuple[int, int, int],
    dst: tuple[int, int, int],
) -> list[dict]:
    """The ``s``/``f`` pair of one arrow; *src*, *dst* are (pid, tid, ns)."""
    (src_pid, src_tid, src_ns), (dst_pid, dst_tid, dst_ns) = src, dst
    return [
        {"name": name, "cat": "flow", "ph": "s", "id": flow_id,
         "pid": src_pid, "tid": src_tid, "ts": src_ns / 1000.0},
        {"name": name, "cat": "flow", "ph": "f", "bp": "e", "id": flow_id,
         "pid": dst_pid, "tid": dst_tid, "ts": dst_ns / 1000.0},
    ]


def _write_trace_events(path: str, events: list[dict]) -> None:
    """Write a ``chrome://tracing``-loadable JSON file of *events*."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events}, fh)


def write_jsonl(path: str, lines: Sequence[str]) -> int:
    """Write a JSONL file: a header line, then one line per record.

    *lines* holds the header first; returns the number of records.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    return len(lines) - 1


# --- task schedule --------------------------------------------------------------


def _dependency_flows(spans: Sequence[TaskSpan]) -> list[dict]:
    """One arrow per dependency edge whose both endpoints were recorded.

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
            events.extend(_flow_events(
                "dep", flow_id,
                (1, parent.worker, parent.end_ns),
                (1, child.worker, child.start_ns),
            ))
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
    workers = (
        range(n_workers)
        if n_workers is not None
        else sorted({s.worker for s in spans})
    )
    events = _metadata_events(
        1, process_name, [(w, f"worker-{w}") for w in workers]
    )
    for span in spans:
        events.append(_duration_event(
            span.tag, "task", 1, span.worker, span.start_ns, span.duration_ns,
            {"task_id": span.task_id, "cycle": span.cycle},
        ))
    events.extend(_dependency_flows(spans))
    events.extend(_counter_events(spans))
    return events


def write_chrome_trace(
    path: str,
    spans: Sequence[TaskSpan],
    process_name: str = "simulated-machine",
    n_workers: int | None = None,
) -> None:
    """Write a ``chrome://tracing``-loadable JSON file."""
    _write_trace_events(path, to_chrome_trace(spans, process_name, n_workers))


# --- merged multi-rank timeline ---------------------------------------------------


def spans_to_jsonl_lines(spans: Sequence[Span]) -> list[str]:
    """One JSON line per span, in (rank, start) order, after a header."""
    header = json.dumps(
        {
            "schema": "lulesh-hpx-spans/1",
            "n_spans": len(spans),
            "n_ranks": len({s.rank for s in spans}) if spans else 0,
        },
        sort_keys=True,
    )
    ordered = sorted(spans, key=lambda s: (s.rank, s.start_ns, s.span_id))
    return [header] + [s.to_json() for s in ordered]


def spans_to_chrome_trace(spans: Sequence[Span]) -> list[dict]:
    """Chrome trace-event dicts: one process per rank, arrows across ranks.

    Every rank becomes a process (``rank-N``) with one thread per span
    kind, so compute and communication render as separate lanes of the
    same rank; cross-rank parent edges become flow events (``ph: "s"/"f"``)
    — the arrows that show a halo receive consuming a remote send.
    """
    events: list[dict] = []
    for rank in sorted({s.rank for s in spans}):
        events.extend(
            _metadata_events(rank, f"rank-{rank}", enumerate(_SPAN_KINDS))
        )
    tid_of = {kind: tid for tid, kind in enumerate(_SPAN_KINDS)}
    by_id = {s.span_id: s for s in spans}
    flow = 0
    for s in spans:
        args: dict = {"span_id": s.span_id, "clock": s.clock}
        if s.cycle is not None:
            args["cycle"] = s.cycle
        tid = tid_of.get(s.kind, 0)
        events.append(_duration_event(
            s.name, s.kind, s.rank, tid, s.start_ns, max(s.duration_ns, 1),
            args,
        ))
        parent = by_id.get(s.parent_id) if s.parent_id is not None else None
        if parent is not None:
            flow += 1
            events.extend(_flow_events(
                "msg", flow,
                (parent.rank, tid_of.get(parent.kind, 0), parent.end_ns),
                (s.rank, tid, s.start_ns),
            ))
    return events


def write_span_timeline(
    chrome_path: str | None,
    jsonl_path: str | None,
    spans: Sequence[Span],
) -> None:
    """Write the merged timeline as a Chrome trace and/or JSONL file."""
    if chrome_path is not None:
        _write_trace_events(chrome_path, spans_to_chrome_trace(spans))
    if jsonl_path is not None:
        write_jsonl(jsonl_path, spans_to_jsonl_lines(spans))


# --- terminal view ------------------------------------------------------------------


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
