"""The layer map: what the traced run wraps, and the metric catalogue.

``TARGETS`` lists the public entry points of each layer of ``repro`` that
the traced run wraps (see :func:`tracing.install`).  ``END_TO_END`` and
``PER_LAYER`` name every metric the benchmark prints, with its unit;
``BENCHMARK.json`` at the repository root must list the same names.
"""

from __future__ import annotations

__all__ = [
    "KERNEL_GROUPS",
    "TARGETS",
    "SERIAL_TARGETS",
    "SERVE_SPANS",
    "END_TO_END",
    "PER_LAYER",
    "kernel_bytes",
]

_K = "repro.lulesh.kernels."

#: Kernel group -> (module, function) entry points the programs call.
KERNEL_GROUPS = {
    "stress": [(_K + "stress", "init_stress_terms"),
               (_K + "stress", "integrate_stress")],
    "hourglass": [(_K + "hourglass", "calc_hourglass_control"),
                  (_K + "hourglass", "calc_fb_hourglass_force")],
    "force_sum": [(_K + "nodal", "sum_elem_forces_to_nodes"),
                  (_K + "nodal", "calc_acceleration")],
    "nodal_update": [(_K + "nodal", "apply_acceleration_bc"),
                     (_K + "nodal", "calc_velocity_dt"),
                     (_K + "nodal", "calc_position_dt")],
    "kinematics": [(_K + "kinematics", "calc_kinematics_dt"),
                   (_K + "kinematics", "calc_lagrange_elements_part2")],
    "qcalc": [(_K + "qcalc", "calc_monotonic_q_gradients"),
              (_K + "qcalc", "calc_monotonic_q_region"),
              (_K + "qcalc", "check_q_stop")],
    "eos": [(_K + "eos", "apply_material_properties_prologue"),
            (_K + "eos", "eval_eos_region"),
            (_K + "eos", "update_volumes")],
    "constraints": [(_K + "constraints", "calc_courant_constraint"),
                    (_K + "constraints", "calc_hydro_constraint"),
                    (_K + "constraints", "reduce_time_constraints"),
                    (_K + "constraints", "time_increment")],
}

#: float64 values each kernel reads or writes per item of its ``[lo, hi)``
#: range, counted from the Domain fields it touches (an element kernel that
#: gathers a node field reads 8 corner values).  Bytes derived from these
#: are *computed*, not measured: cache misses and re-reads are ignored.
_DOUBLES_PER_ITEM = {
    "init_stress_terms": 5,
    "integrate_stress": 4 + 24 + 24,
    "calc_hourglass_control": 24 + 24 + 3 + 24,
    "calc_fb_hourglass_force": 24 + 24 + 3 + 24 + 24,
    "sum_elem_forces_to_nodes": 3 + 48,
    "calc_acceleration": 7,
    "calc_velocity_dt": 6,
    "calc_position_dt": 6,
    "calc_kinematics_dt": 8 + 48,
    "calc_lagrange_elements_part2": 5,
    "calc_monotonic_q_gradients": 8 + 48,
    "calc_monotonic_q_region": 12 + 1 + 12,
    "check_q_stop": 1,
    "apply_material_properties_prologue": 3,
    "eval_eos_region": 8 + 1,
    "update_volumes": 2,
    "calc_courant_constraint": 4,
    "calc_hydro_constraint": 2,
}


def kernel_bytes(items: dict[str, int]) -> int:
    """Computed bytes for per-function item counts (``hi - lo`` sums)."""
    return sum(8 * _DOUBLES_PER_ITEM.get(fn, 0) * n for fn, n in items.items())


def _kernel_targets():
    for group, entries in KERNEL_GROUPS.items():
        for module, fn in entries:
            kind = "items" if fn in _DOUBLES_PER_ITEM else "span"
            yield (module, fn, "kernels." + group, kind)


#: (module, qualname, span name, kind) — installed in this order, so a
#: later wrapper around an already-wrapped kernel nests outside it.
TARGETS = list(_kernel_targets()) + [
    ("repro.amt.runtime", "AmtRuntime.replay_graph", "amt.replay", "span"),
    ("repro.amt.runtime", "AmtRuntime.begin_capture", "core.capture", "open"),
    ("repro.amt.runtime", "AmtRuntime.end_capture", "core.capture", "close"),
    ("repro.amt.runtime", "AmtRuntime.abort_capture", "core.capture", "close"),
    ("repro.parallel.supervisor", "WorkerSupervisor.run_wave",
     "parallel.dispatch", "span"),
    ("repro.parallel.dataflow", "DataflowExecutor.run_cycle",
     "parallel.dispatch", "span"),
    ("repro.parallel.pool", "ProcessWorkerPool.send_wave", "parallel.msgs",
     "count"),
    ("repro.parallel.pool", "ProcessWorkerPool.send_task", "parallel.msgs",
     "count"),
    ("repro.serve.fingerprint", "resolve_spec", "serve.fingerprint", "span"),
    ("repro.serve.fingerprint", "job_fingerprint", "serve.fingerprint", "span"),
    ("repro.serve.cache", "ResultCache.lookup", "serve.cache_lookup", "span"),
    ("repro.serve.cache", "ResultCache.store", "serve.cache_store", "span"),
    ("repro.serve.executor", "ExecutorPool.acquire", "serve.executor_acquire",
     "span"),
    ("repro.serve.executor", "WarmExecutor.run_job", "serve.run_job", "span"),
]

#: Main-process serial sections of the process backend.  These names are
#: wrapped in the dispatcher modules only (the kernels they reach are
#: already wrapped above, so kernel spans nest inside).
SERIAL_TARGETS = [
    (module, fn, "parallel.serial", "span")
    for module in ("repro.parallel.backend", "repro.parallel.dataflow")
    for fn in ("execute_spec", "reduce_time_constraints")
]

#: Spans whose inclusive time is a campaign job's work inside the lane.
SERVE_SPANS = (
    "serve.fingerprint",
    "serve.cache_lookup",
    "serve.cache_store",
    "serve.executor_acquire",
    "serve.run_job",
)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s_ref": "1/s",
    "op_ms_p50_ref": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"kernels.{g}_ms": "ms" for g in KERNEL_GROUPS},
    "kernels.share": "ratio",
    "kernels.computed_gbps": "GB/s",
    "amt.replay_ms": "ms",
    "amt.tasks_per_cycle": "count",
    "amt.sim_tasks_per_s": "1/s",
    "core.capture_ms": "ms",
    "core.captures": "count",
    "parallel.dispatch_ms": "ms",
    "parallel.busy_ms": "ms",
    "parallel.serial_ms": "ms",
    "parallel.idle_frac": "ratio",
    "parallel.msgs_per_cycle": "count",
    "parallel.tasks_per_cycle": "count",
    "parallel.waves_per_cycle": "count",
    "parallel.fallback_cycles": "count",
    "parallel.respawns": "count",
    "setup.pool_start_s": "s",
    "serve.fingerprint_ms": "ms",
    "serve.cache_lookup_ms": "ms",
    "serve.cache_store_ms": "ms",
    "serve.executor_acquire_ms": "ms",
    "serve.run_job_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.hit_rate": "ratio",
    "serve.lookups": "count",
    "serve.executor_reuse_rate": "ratio",
    "serve.executor_acquires": "count",
    "setup.import_s": "s",
    "setup.domain_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}
