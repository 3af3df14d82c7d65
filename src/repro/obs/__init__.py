"""Structured observability: flight recorder, spans, metrics, regression gate.

The paper's whole methodology is introspection-driven — §V reads HPX
performance counters and task timelines to find the next bottleneck, and
Octo-Tiger's HPX+APEX workflow (PAPERS.md) shows what an always-on
introspection layer buys at scale.  This package layers a structured
observability subsystem over (and unifying) :mod:`repro.perf`:

* :mod:`repro.obs.recorder` — a bounded ring-buffer **flight recorder** of
  typed structured events (task spawn/steal/retire, flush, fault injection,
  retry, rollback, checkpoint, graph capture/replay/invalidate, tuner
  trial, halo send/recv), emitted by the runtimes, the resilience layer,
  the tuner, the graph cache, and the distributed communicator — dumpable
  as JSONL on demand or automatically on failure;
* :mod:`repro.obs.spans` — **span-based tracing** with explicit
  parent/child context propagated across simulated ranks via Lamport
  clocks stamped on :class:`~repro.dist.comm.PlaneExchanger` messages, so
  a single merged timeline (Chrome-trace and JSONL export) shows
  compute/communication overlap per rank;
* :mod:`repro.obs.metrics` — a **time-series metrics store** over the
  counter registry's per-interval samples: windowed aggregates
  (p50/p95/max, rates) and JSONL export, replacing last-value-only reads;
* :mod:`repro.obs.diff` — the **regression gate**: compare a run's metric
  series against a stored baseline (including ``BENCH_*.json``
  trajectories) with tolerance bands, print a per-metric verdict table,
  and flag regressions (``lulesh-hpx obs diff``, wired into CI).

Nothing in the simulation depends back on this package: emitters hold
duck-typed ``flight_recorder`` / ``tracer`` attributes that default to
``None``.
"""

from repro.obs.diff import (
    DEFAULT_SKIP,
    DiffResult,
    MetricVerdict,
    diff_metrics,
    load_metric_values,
    write_baseline,
)
from repro.obs.metrics import MetricSeries, MetricStore, SeriesAggregate
from repro.obs.recorder import EVENT_KINDS, FlightRecorder, ObsEvent
from repro.obs.spans import (
    LogicalClock,
    Span,
    SpanContext,
    SpanTracer,
    spans_to_chrome_trace,
    spans_to_jsonl_lines,
    write_span_timeline,
)

__all__ = [
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
    "MetricSeries",
    "MetricStore",
    "SeriesAggregate",
    "MetricVerdict",
    "DiffResult",
    "DEFAULT_SKIP",
    "diff_metrics",
    "load_metric_values",
    "write_baseline",
]
