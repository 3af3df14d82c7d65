"""One workload in one fresh interpreter: set up, measure, check, report.

``run.py`` starts this script with BLAS threads pinned to 1, ``src/`` on
``PYTHONPATH`` and a private ``TMPDIR``; it writes one JSON document to
the ``--result`` path.  ``--setup-only`` stops after set-up (the extra
set-ups behind the ``setup_s`` median); ``--traced`` wraps the layers and
adds per-layer numbers.

The process backend's fork server re-imports this file as ``__mp_main__``
in every worker, so nothing may run at import time: everything sits under
the ``__main__`` guard.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _stop_helper_processes() -> None:
    """Stop and reap the fork server and resource tracker, if started."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            try:
                stop()
            except (OSError, ChildProcessError):
                pass


#: How often the reference loop re-measures the host's speed.
_REFERENCE_EVERY_NS = 50_000_000


def _setup_reference_ns() -> int:
    """The reference loop's time around a set-up: fastest of four readings.

    One set-up is a single sample, not hundreds of ops, so it is bracketed
    by more readings than an op.
    """
    from hostnoise import reference_ns

    return min(reference_ns() for _ in range(4))


def _measure(workload, seconds: float):
    """Closed loop: run ops until *seconds* pass and a boundary is reached.

    Each iteration (bookkeeping, op, check) records the op's latency, the
    iteration's period and the latest time of the reference loop, which
    runs outside the period.
    """
    from hostnoise import reference_ns

    latencies: list[int] = []
    periods: list[int] = []
    reference: list[int] = []
    errors: list[str] = []
    failed = 0
    t_first = time.perf_counter()
    deadline = t_first + seconds
    probed_at = 0
    while not (time.perf_counter() >= deadline and workload.at_boundary()):
        if time.perf_counter_ns() - probed_at >= _REFERENCE_EVERY_NS:
            ref = reference_ns()
            probed_at = time.perf_counter_ns()
        reference.append(ref)
        t_start = time.perf_counter_ns()
        workload.between_ops()
        t0 = time.perf_counter_ns()
        try:
            value = workload.op()
        except Exception as exc:  # a failed op is counted, not fatal
            value, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        latencies.append(time.perf_counter_ns() - t0)
        if error is None:
            error = workload.verify(value)
        if error is not None:
            failed += 1
            errors.append(error)
        periods.append(time.perf_counter_ns() - t_start)
    return {
        "latencies_ns": latencies,
        "periods_ns": periods,
        "reference_ns": reference,
        "wall_s": time.perf_counter() - t_first,
        "failed": failed,
        "errors": errors,
    }


def run(args) -> dict:
    launch = args.launch if args.launch is not None else time.perf_counter()
    t_probe = time.perf_counter()
    ref_before = _setup_reference_ns()
    probe_s = time.perf_counter() - t_probe  # not part of set-up
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (imports are part of set-up)

    import layers
    import workloads
    from hostnoise import HostProbe, tree_peak_rss_mb

    import repro.core.hpx_lulesh  # noqa: F401
    import repro.lulesh.reference  # noqa: F401
    import repro.parallel  # noqa: F401
    import repro.serve.scheduler  # noqa: F401

    import_s = time.perf_counter() - t0
    recorder = None
    if args.traced:
        from tracing import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder, layers.TARGETS)
        install(recorder, layers.SERIAL_TARGETS, everywhere=False)

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    os.makedirs(args.workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes,
                                                  args.workdir)
    if workload.one_cpu and hasattr(os, "sched_setaffinity"):
        # The highest-numbered CPU: CPU 0 usually takes the most interrupts.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    out: dict = {"workload": args.workload, "seed": args.seed}
    try:
        workload.setup()
        out["setup_s"] = time.perf_counter() - launch - probe_s
        out["setup_reference_ns"] = (ref_before + _setup_reference_ns()) / 2
        out["setup"] = {"import_s": import_s, **workload.setup_info}
        if args.setup_only:
            return out
        setup_spans = []
        if recorder is not None:
            setup_spans = list(recorder.spans)
            recorder.clear()
        probe = HostProbe()
        probe.start()
        mark0 = workload.mark()
        measured = _measure(workload, args.seconds)
        mark1 = workload.mark()
        probe.stop()
        out["peak_rss_mb"] = tree_peak_rss_mb()
        if recorder is not None:
            recorder.enabled = False
        bad_ops, check_errors = workload.finish()
        attempted = len(measured["latencies_ns"])
        out.update(measured)
        out.update(
            attempted=attempted,
            failed=min(attempted, measured["failed"] + bad_ops),
            errors=(measured["errors"] + check_errors)[:20],
            host=probe.report(),
        )
        if recorder is not None:
            from report import layer_metrics

            out["missing_targets"] = recorder.missing
            out["layers"] = layer_metrics(
                workload, recorder, setup_spans, mark0, mark1,
                measured["latencies_ns"], out["setup"],
            )
            if args.spans:
                recorder.write_jsonl(args.spans)
        return out
    finally:
        workload.close()
        _stop_helper_processes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--launch", type=float, default=None,
                        help="parent's perf_counter() just before the launch")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default=None, help="JSONL path for spans")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    out = run(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
