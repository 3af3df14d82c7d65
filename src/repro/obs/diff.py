"""The regression gate: compare run metrics against a stored baseline.

``lulesh-hpx obs diff`` loads two metric snapshots — a committed baseline
and the current run — and checks every shared metric against a tolerance
band around its baseline value.  The simulated timing model is pure integer
arithmetic, so committed baselines are portable across machines; only the
counters that measure the host vary, and :data:`DEFAULT_SKIP` skips them by
default: the graph build and re-arm times (``*build-time*``,
``*replay-time*``), the process backend's whole ``/parallel/*`` family, and
the campaign's ``/serve/wall-time`` and ``/serve/jobs-per-sec``.

Verdict semantics (all gated metrics are lower-is-better by convention —
runtimes, idle rates, steal/fault counts):

* ``ok`` — inside the band;
* ``regression`` — above the upper band edge: the gate fails;
* ``improved`` — below the lower band edge: reported (the baseline is
  stale) but not a failure;
* ``missing`` / ``new`` — present on only one side: reported, not a
  failure, so adding a counter doesn't break CI;
* ``skipped`` — matched a skip pattern.

Accepted snapshot formats (:func:`load_metric_values` auto-detects):
``lulesh-hpx-counters/1`` JSON (last sample per path),
``lulesh-hpx-metrics/1`` JSONL, ``lulesh-hpx-obs-baseline/1`` JSON (flat
``metrics`` map), and ``BENCH_*.json`` trajectories (numeric leaves
flattened into ``/``-joined paths).
"""

from __future__ import annotations

import fnmatch
import json
from dataclasses import dataclass, field

from repro.obs.traceview import write_jsonl

__all__ = [
    "DEFAULT_SKIP",
    "DiffResult",
    "MetricVerdict",
    "diff_metrics",
    "load_metric_values",
    "write_baseline",
    "write_metrics_jsonl",
]

#: Wall-clock-derived counters: nondeterministic across hosts, never gated.
#: (``/graph/build-time`` and ``/graph/replay-time`` measure real host time;
#: the whole ``/parallel/*`` family is produced by the process backend whose
#: wall time, wave counts and fallback splits depend on the host; the
#: ``/serve/`` wall-time and jobs-per-sec counters are campaign host
#: throughput; everything else in the registry is deterministic simulated
#: arithmetic.)
DEFAULT_SKIP = (
    "*build-time*",
    "*replay-time*",
    "/parallel/*",
    "/serve/wall-time",
    "/serve/jobs-per-sec",
)

BASELINE_SCHEMA = "lulesh-hpx-obs-baseline/1"
METRICS_SCHEMA = "lulesh-hpx-metrics/1"


@dataclass(frozen=True)
class MetricVerdict:
    """One metric's comparison outcome."""

    path: str
    status: str  # "ok" | "regression" | "improved" | "missing" | "new" | "skipped"
    baseline: float | None = None
    current: float | None = None

    @property
    def rel_change(self) -> float | None:
        """``(current - baseline) / |baseline|``; None when not comparable."""
        if self.baseline is None or self.current is None:
            return None
        if self.baseline == 0:
            return 0.0 if self.current == 0 else float("inf")
        return (self.current - self.baseline) / abs(self.baseline)


@dataclass
class DiffResult:
    """All verdicts of one baseline/current comparison."""

    tolerance: float
    verdicts: list[MetricVerdict] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricVerdict]:
        return [v for v in self.verdicts if v.status == "regression"]

    @property
    def improvements(self) -> list[MetricVerdict]:
        return [v for v in self.verdicts if v.status == "improved"]

    @property
    def ok(self) -> bool:
        """True when no metric regressed (improvements don't fail the gate)."""
        return not self.regressions

    def counts(self) -> dict[str, int]:
        """Verdict-status histogram (sorted by status)."""
        out: dict[str, int] = {}
        for v in self.verdicts:
            out[v.status] = out.get(v.status, 0) + 1
        return dict(sorted(out.items()))

    def format_table(self) -> list[str]:
        """Human-readable per-metric verdict lines plus a summary footer."""

        def fmt(x: float | None) -> str:
            if x is None:
                return "-"
            return format(x, ".6g")

        width = max((len(v.path) for v in self.verdicts), default=6)
        width = max(width, len("metric"))
        lines = [
            f"{'metric':<{width}}  {'baseline':>14}  {'current':>14}  "
            f"{'change':>8}  verdict"
        ]
        for v in sorted(self.verdicts, key=lambda v: v.path):
            rel = v.rel_change
            change = "-" if rel is None or rel == float("inf") else f"{rel:+.1%}"
            lines.append(
                f"{v.path:<{width}}  {fmt(v.baseline):>14}  "
                f"{fmt(v.current):>14}  {change:>8}  {v.status.upper()}"
            )
        counts = ", ".join(f"{k}={n}" for k, n in self.counts().items())
        lines.append(
            f"-- {len(self.verdicts)} metrics (tolerance ±{self.tolerance:.1%}): "
            f"{counts or 'none'}"
        )
        return lines


def diff_metrics(
    baseline: dict[str, float],
    current: dict[str, float],
    tolerance: float = 0.05,
    skip: tuple[str, ...] = DEFAULT_SKIP,
) -> DiffResult:
    """Compare two ``{path: value}`` snapshots with a relative band.

    A metric regresses when ``current`` exceeds ``baseline * (1 +
    tolerance)`` (plus an absolute grace of *tolerance* for near-zero
    baselines, so a 0→0.02 jitter on an empty counter doesn't fail).
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    result = DiffResult(tolerance=tolerance)
    for path in sorted(set(baseline) | set(current)):
        if any(fnmatch.fnmatch(path, pat) for pat in skip):
            result.verdicts.append(
                MetricVerdict(
                    path, "skipped", baseline.get(path), current.get(path)
                )
            )
            continue
        if path not in current:
            result.verdicts.append(
                MetricVerdict(path, "missing", baseline=baseline[path])
            )
            continue
        if path not in baseline:
            result.verdicts.append(
                MetricVerdict(path, "new", current=current[path])
            )
            continue
        base, cur = baseline[path], current[path]
        slack = abs(base) * tolerance + tolerance
        if cur > base + slack:
            status = "regression"
        elif cur < base - slack:
            status = "improved"
        else:
            status = "ok"
        result.verdicts.append(MetricVerdict(path, status, base, cur))
    return result


def _flatten_numeric(obj: object, prefix: str, out: dict[str, float]) -> None:
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        out[prefix] = float(obj)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            _flatten_numeric(obj[key], f"{prefix}/{key}" if prefix else str(key), out)


def _last_samples(rows) -> dict[str, float]:
    """``{path: last sample value}`` of ``(path, samples)`` rows.

    A path without samples is left out; a repeated path keeps the last
    sample of its last non-empty row.
    """
    return {
        path: float(samples[-1]["value"]) for path, samples in rows if samples
    }


def load_metric_values(path: str) -> dict[str, float]:
    """Load a metric snapshot as ``{path: value}``, auto-detecting format.

    Handles ``--counters`` JSON exports and ``--metrics`` JSONL dumps (the
    last sample of each counter), flat ``obs baseline`` files, and
    ``BENCH_*.json`` trajectories (every numeric leaf, keyed by its
    ``/``-joined position).
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if payload is None:
        # Not one JSON document: try JSONL (metrics dump).
        header, _, records = text.partition("\n")
        if str(json.loads(header).get("schema", "")).startswith(
            "lulesh-hpx-metrics"
        ):
            rows = (json.loads(ln) for ln in records.splitlines() if ln.strip())
            return _last_samples((r["path"], r.get("samples")) for r in rows)
        raise ValueError(f"unrecognized metric snapshot format: {path}")
    if not isinstance(payload, dict):
        raise ValueError(f"metric snapshot must be a JSON object: {path}")
    schema = str(payload.get("schema", ""))
    if schema.startswith("lulesh-hpx-counters"):
        return _last_samples(
            (p, entry.get("samples"))
            for p, entry in payload.get("counters", {}).items()
        )
    if schema.startswith("lulesh-hpx-obs-baseline"):
        return {k: float(v) for k, v in payload["metrics"].items()}
    if schema.startswith("lulesh-hpx-metrics"):
        # A metrics dump of no series: its header line alone.
        return {}
    flat: dict[str, float] = {}
    _flatten_numeric(payload, "", flat)
    if not flat:
        raise ValueError(f"no numeric metrics found in {path}")
    return flat


def write_metrics_jsonl(path: str, counters: dict) -> int:
    """Write a ``--counters`` export as ``lulesh-hpx-metrics/1`` JSONL.

    *counters* is :meth:`~repro.obs.registry.CounterRegistry.to_json_dict`'s
    payload.  After the header, each counter gets one line with its path
    and samples (and its unit and description when set), in path order.
    Returns the number of counters written.
    """
    lines = [json.dumps(
        {"schema": METRICS_SCHEMA, "n_series": len(counters["counters"])},
        sort_keys=True,
    )]
    for name, entry in counters["counters"].items():
        row = {"path": name, "samples": entry["samples"]}
        row.update((k, entry[k]) for k in ("unit", "description") if entry[k])
        lines.append(json.dumps(row, sort_keys=True))
    return write_jsonl(path, lines)


def write_baseline(path: str, metrics: dict[str, float], note: str = "") -> None:
    """Write a flat baseline file (``lulesh-hpx-obs-baseline/1``)."""
    payload: dict = {
        "schema": BASELINE_SCHEMA,
        "metrics": {k: metrics[k] for k in sorted(metrics)},
    }
    if note:
        payload["note"] = note
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
