"""Observability: counters, profiles, timelines, flight record, regression gate.

The paper's whole methodology is introspection-driven — §V reads HPX
performance counters (``/threads/idle-rate``) and task timelines to find
the next bottleneck, and Octo-Tiger's HPX+APEX workflow (PAPERS.md) shows
what an always-on introspection layer buys at scale.  This package is that
layer for the reproduction:

* :mod:`repro.obs.registry` — an HPX-style hierarchical counter registry
  with per-interval sampling, ``hpx:print-counter``-style output and the
  ``--counters`` JSON export;
* :mod:`repro.obs.sources` — counter registration for the AMT and OpenMP
  runtimes (``install_amt_counters`` / ``install_omp_counters``) and the
  graph, arena, parallel, resilience, tuning and serve families;
* :mod:`repro.obs.profiler` — per-kernel aggregation of recorded task
  spans (count / total / mean / p50 / p99 / share-of-makespan);
* :mod:`repro.obs.critical_path` — the longest dependency chain through a
  recorded task graph, the theoretical lower bound on makespan;
* :mod:`repro.obs.recorder` — a bounded ring-buffer **flight recorder** of
  typed structured events (task spawn/steal/retire, flush, fault injection,
  retry, rollback, checkpoint, graph capture/replay/invalidate, tuner
  trial, halo send/recv), emitted by the runtimes, the resilience layer,
  the tuner, the graph cache, and the distributed communicator — dumpable
  as JSONL on demand or automatically on failure;
* :mod:`repro.obs.spans` — **span-based tracing** with explicit
  parent/child context propagated across simulated ranks via Lamport
  clocks stamped on :class:`~repro.dist.comm.PlaneExchanger` messages;
* :mod:`repro.obs.traceview` — the timeline exports: the task schedule and
  the merged multi-rank timeline as Chrome traces, the span JSONL, and a
  terminal Gantt chart;
* :mod:`repro.obs.diff` — the **regression gate**: compare a run's
  counters against a stored baseline (including ``BENCH_*.json``
  trajectories) with tolerance bands, print a per-metric verdict table,
  and flag regressions (``lulesh-hpx obs diff``, wired into CI).

Everything here consumes the runtimes' existing accounting surfaces
(``RunStats``, ``TraceRecorder``, ``TaskSpan``).  Nothing in the
simulation depends back on this package: emitters hold duck-typed
``flight_recorder`` / ``tracer`` attributes that default to ``None``.
"""

from repro.obs.critical_path import CriticalPathResult, analyze_critical_path
from repro.obs.diff import (
    DEFAULT_SKIP,
    DiffResult,
    MetricVerdict,
    diff_metrics,
    load_metric_values,
    write_baseline,
    write_metrics_jsonl,
)
from repro.obs.profiler import PhaseProfile, PhaseStat, normalize_tag
from repro.obs.recorder import EVENT_KINDS, FlightRecorder, ObsEvent
from repro.obs.registry import (
    Counter,
    CounterRegistry,
    CounterSample,
    GaugeCounter,
    RatioCounter,
)
from repro.obs.sources import (
    install_amt_counters,
    install_omp_counters,
    worker_thread_path,
)
from repro.obs.spans import LogicalClock, Span, SpanContext, SpanTracer
from repro.obs.traceview import (
    spans_to_chrome_trace,
    spans_to_jsonl_lines,
    write_span_timeline,
)

__all__ = [
    "Counter",
    "GaugeCounter",
    "RatioCounter",
    "CounterSample",
    "CounterRegistry",
    "install_amt_counters",
    "install_omp_counters",
    "worker_thread_path",
    "PhaseProfile",
    "PhaseStat",
    "normalize_tag",
    "CriticalPathResult",
    "analyze_critical_path",
    "EVENT_KINDS",
    "FlightRecorder",
    "ObsEvent",
    "LogicalClock",
    "Span",
    "SpanContext",
    "SpanTracer",
    "spans_to_chrome_trace",
    "spans_to_jsonl_lines",
    "write_span_timeline",
    "MetricVerdict",
    "DiffResult",
    "DEFAULT_SKIP",
    "diff_metrics",
    "load_metric_values",
    "write_baseline",
    "write_metrics_jsonl",
]
