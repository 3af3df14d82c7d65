"""Turning measurements into the benchmark's metrics.

:func:`end_to_end` reduces one measured run (and the extra set-ups) to the
``END_TO_END`` metrics; :func:`layer_metrics` reduces a traced run's spans
and counter marks to the ``PER_LAYER`` metrics.  Every layer metric is
reported on every workload: a layer a workload bypasses reads 0.
"""

from __future__ import annotations

import statistics

from hostnoise import REFERENCE_NS
from layers import KERNEL_GROUPS, PER_LAYER, SERVE_SPANS, kernel_bytes
from tracing import self_times, total_times

__all__ = ["at_reference", "op_stats", "end_to_end", "layer_metrics"]

ZONES_PER_CYCLE = {"exec-s20": 20**3, "process-s20": 20**3}


def at_reference(measured: dict):
    """Op latencies and iteration periods at the reference host speed.

    Each time is multiplied by ``REFERENCE_NS`` over the reference loop's
    latest time before it.
    """
    scale = [REFERENCE_NS / r for r in measured["reference_ns"]]
    return (
        [v * f for v, f in zip(measured["latencies_ns"], scale)],
        [v * f for v, f in zip(measured["periods_ns"], scale)],
    )


def op_stats(latencies_ns) -> dict:
    """Median and p90 op latency in ms, with their sample counts."""
    ms = sorted(v / 1e6 for v in latencies_ns)
    n = len(ms)
    p90 = statistics.quantiles(ms, n=10)[-1] if n >= 2 else ms[0]
    return {
        "p50_ms": statistics.median(ms),
        "p90_ms": p90,
        "n": n,
        "n_above_p90": sum(1 for v in ms if v > p90),
    }


def setup_at_reference(result: dict) -> float:
    """One set-up's time at the reference host speed.

    Scaled by the mean of the reference readings the child took just
    before its imports and just after its set-up.
    """
    return result["setup_s"] * REFERENCE_NS / result["setup_reference_ns"]


def end_to_end(measured: dict, setups: list[dict]) -> dict:
    """The end-to-end metrics of one run, as ``{name: value}``.

    *setups* are the results of every child whose set-up counts, the
    measuring one included.  Every time is scaled to the reference host
    speed: ``setup_s`` is the median set-up, ``ops_per_s_ref`` is ops over
    the time their loop iterations took.
    """
    latencies, periods = at_reference(measured)
    return {
        "setup_s": statistics.median(setup_at_reference(r) for r in setups),
        "ops_per_s_ref": len(periods) / (sum(periods) / 1e9),
        "op_ms_p50_ref": op_stats(latencies)["p50_ms"],
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workload, recorder, setup_spans, mark0, mark1,
                  latencies_ns, setup) -> dict:
    """Per-layer metrics of the traced run's timed phase.

    Per-cycle figures divide by the timed ops of the execute workloads and
    by parallel cycles for ``parallel.*``; ``serve.*`` times are per job,
    and ``serve.overhead_ms`` is the job latency the wrapped entry points
    do not cover (queueing, lane hand-off, record keeping).
    """
    spans = recorder.spans
    self_ns = self_times(spans)
    incl_ns = total_times(spans)
    counts = recorder.counts
    ops = max(1, len(latencies_ns))
    op_total_ns = sum(latencies_ns)
    delta = {k: mark1.get(k, 0) - mark0.get(k, 0) for k in mark1}
    out: dict[str, float] = {}

    kernel_ns = 0
    for group in KERNEL_GROUPS:
        ns = self_ns.get("kernels." + group, 0)
        kernel_ns += ns
        out[f"kernels.{group}_ms"] = ns / ops / 1e6
    out["kernels.share"] = _ratio(kernel_ns, op_total_ns)
    out["kernels.computed_gbps"] = _ratio(kernel_bytes(recorder.items), kernel_ns)

    out["amt.replay_ms"] = self_ns.get("amt.replay", 0) / ops / 1e6
    sim_tasks = getattr(workload, "sim_tasks", None)
    if sim_tasks is not None:  # campaign misses: tasks per simulated cycle
        out["amt.tasks_per_cycle"] = _ratio(sim_tasks, workload.sim_iterations)
        out["amt.sim_tasks_per_s"] = _ratio(sim_tasks, workload.sim_ns / 1e9)
    else:
        n_tasks = delta.get("n_tasks", 0)
        out["amt.tasks_per_cycle"] = n_tasks / ops
        out["amt.sim_tasks_per_s"] = _ratio(
            n_tasks, incl_ns.get("amt.replay", 0) / 1e9
        )

    captures = [s for s in setup_spans + spans if s.name == "core.capture"]
    out["core.captures"] = len(captures)
    out["core.capture_ms"] = _ratio(
        sum(s.duration_ns for s in captures), len(captures)
    ) / 1e6

    cycles = delta.get("parallel_cycles", 0)
    out["parallel.dispatch_ms"] = _ratio(incl_ns.get("parallel.dispatch", 0),
                                         cycles) / 1e6
    out["parallel.busy_ms"] = _ratio(delta.get("busy_ns", 0), cycles) / 1e6
    out["parallel.serial_ms"] = _ratio(incl_ns.get("parallel.serial", 0),
                                       cycles) / 1e6
    capacity = delta.get("wall_ns", 0) * mark1.get("workers", 0)
    out["parallel.idle_frac"] = (
        1.0 - delta.get("busy_ns", 0) / capacity if capacity else 0.0
    )
    out["parallel.msgs_per_cycle"] = _ratio(counts.get("parallel.msgs", 0), cycles)
    out["parallel.tasks_per_cycle"] = _ratio(delta.get("tasks_dispatched", 0),
                                             cycles)
    out["parallel.waves_per_cycle"] = _ratio(delta.get("waves", 0), cycles)
    out["parallel.fallback_cycles"] = mark1.get("fallback_cycles", 0)
    out["parallel.respawns"] = mark1.get("respawns", 0)
    out["setup.pool_start_s"] = setup.get("pool_start_s", 0.0)

    is_campaign = "hits" in mark1
    jobs = ops if is_campaign else 0
    for name in SERVE_SPANS:
        out[name + "_ms"] = _ratio(incl_ns.get(name, 0), jobs) / 1e6
    serve_ns = sum(incl_ns.get(name, 0) for name in SERVE_SPANS)
    out["serve.overhead_ms"] = _ratio(op_total_ns - serve_ns, jobs) / 1e6
    lookups = delta.get("hits", 0) + delta.get("misses", 0)
    acquires = delta.get("created", 0) + delta.get("reused", 0)
    out["serve.lookups"] = lookups
    out["serve.hit_rate"] = _ratio(delta.get("hits", 0), lookups)
    out["serve.executor_acquires"] = acquires
    out["serve.executor_reuse_rate"] = _ratio(delta.get("reused", 0), acquires)

    out["setup.import_s"] = setup.get("import_s", 0.0)
    out["setup.domain_s"] = setup.get("domain_s", 0.0)
    out["trace.spans"] = len(spans)
    missing = set(PER_LAYER) - set(out) - {"trace.overhead_pct"}
    if missing:
        raise KeyError(f"layer metrics not computed: {sorted(missing)}")
    return out
