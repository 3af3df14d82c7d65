"""Benchmark of the execute path, the process backend and the campaign service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exec-s20 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Each workload runs in fresh interpreters (``child.py``) with BLAS threads
pinned to 1.  ``--trace 0`` measures the end-to-end metrics with tracing
off: the run sets up ``SETUP_RUNS`` times (the median is ``setup_s``) and
measures once.  ``--trace 1`` measures once untraced and once traced and
prints the per-layer metrics, including the tracing overhead.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostnoise import REFERENCE_NS  # noqa: E402
from layers import END_TO_END, PER_LAYER  # noqa: E402
from report import (  # noqa: E402
    ZONES_PER_CYCLE,
    at_reference,
    end_to_end,
    op_stats,
)
from workloads import WORKLOADS  # noqa: E402

#: Every child of one workload's run must end this many seconds after it.
RUN_BUDGET_S = 170.0
#: Set-ups per run behind the ``setup_s`` median (fewer with ``--smoke``).
SETUP_RUNS = 5
SMOKE_SETUP_RUNS = 2
#: AF_UNIX socket paths are limited to ~107 bytes; the fork server puts its
#: socket two levels below TMPDIR, so a longer TMPDIR cannot be used.
_MAX_TMPDIR = 64


class ChildFailed(RuntimeError):
    pass


def _child_env(tmpdir: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    if len(tmpdir) <= _MAX_TMPDIR:
        env["TMPDIR"] = tmpdir
    return env


def _run_child(args, tmpdir: str, tag: str, extra: list[str]) -> dict:
    workdir = os.path.join(tmpdir, tag)
    result = os.path.join(tmpdir, tag + ".json")
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--result", result,
        "--workdir", workdir,
    ] + (["--smoke"] if args.smoke else []) + extra
    cmd += ["--launch", repr(time.perf_counter())]
    proc = subprocess.run(
        cmd, env=_child_env(tmpdir), cwd=ROOT, capture_output=True,
        text=True, timeout=max(1.0, args.deadline - time.perf_counter()),
    )
    shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not os.path.exists(result):
        tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-15:]
        raise ChildFailed(
            f"{tag} exited with {proc.returncode}:\n" + "\n".join(tail)
        )
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _p50_ms(measured: dict) -> float:
    return op_stats(at_reference(measured)[0])["p50_ms"]


def _print_run(args, measured: dict, setups: list[dict], e2e: dict) -> None:
    """The human-readable report; raw (as timed) figures sit beside each."""
    per = measured["periods_ns"]
    raw = op_stats(measured["latencies_ns"])
    ref = op_stats(at_reference(measured)[0])
    raw_ops = len(per) / (sum(per) / 1e9)
    host = measured["host"]
    before, after = host["before"], host["after"]
    n = measured["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  closed loop, 1 client")
    print(f"  setup_s        {_fmt(e2e['setup_s'])} s   "
          f"(median of {len(setups)} set-ups; raw "
          + ", ".join(_fmt(r["setup_s"]) for r in setups) + " s)")
    print(f"  ops_per_s_ref  {_fmt(e2e['ops_per_s_ref'])} 1/s   "
          f"(raw {_fmt(raw_ops)} 1/s; {n} ops in {measured['wall_s']:.3f} s)")
    print(f"  op_ms_p50_ref  {_fmt(e2e['op_ms_p50_ref'])} ms   "
          f"(raw {_fmt(raw['p50_ms'])} ms; n={raw['n']})")
    print(f"  op_ms_p90_ref  {_fmt(ref['p90_ms'])} ms   "
          f"(raw {_fmt(raw['p90_ms'])} ms; {raw['n_above_p90']} above; "
          "not gated)")
    print(f"  peak_rss_mb    {_fmt(e2e['peak_rss_mb'])} MB   (process tree)")
    print(f"  error_rate     {_fmt(measured['failed'] / n)}   "
          f"({measured['failed']} of {n} failed)")
    zones = ZONES_PER_CYCLE.get(args.workload)
    if zones and not args.smoke:
        fom = raw_ops * zones
        print(f"  FOM            {_fmt(fom)} z/s   grind "
              f"{_fmt(1e6 / fom)} us/z/c   (derived from raw ops/s)")
    refs = measured["reference_ns"]
    print(f"  host           cpus {host['host_cpus']}  reference loop "
          f"{min(refs) / 1e6:.3f}..{max(refs) / 1e6:.3f} ms "
          f"(nominal {REFERENCE_NS / 1e6:.3f})  "
          f"py-loop {before['python_loop_ms']:.1f}->"
          f"{after['python_loop_ms']:.1f} ms  "
          f"stream {before['numpy_stream_gbps']:.2f}->"
          f"{after['numpy_stream_gbps']:.2f} GB/s  "
          f"steal {100 * after['steal_share']:.2f}%  "
          f"load {before['loadavg_1m']}->{after['loadavg_1m']}")
    for error in measured["errors"]:
        print(f"  ERROR          {error}")


def run_one(args, tmpdir: str) -> dict:
    """Run one workload; returns the result object printed last."""
    args.deadline = time.perf_counter() + RUN_BUDGET_S
    if args.trace:
        plain = _run_child(args, tmpdir, "untraced", [])
        traced = _run_child(args, tmpdir, "traced", [
            "--traced",
            "--spans", os.path.join(args.out, f"{args.workload}-"
                                    f"{args.seed}.spans.jsonl"),
        ])
        layers = traced["layers"]
        layers["trace.overhead_pct"] = 100.0 * (
            _p50_ms(traced) / _p50_ms(plain) - 1.0
        )
        print(f"workload {args.workload}  seed {args.seed}  traced run")
        for target in traced["missing_targets"]:
            print(f"  (not traced, the program has no {target})")
        for name, unit in PER_LAYER.items():
            print(f"  {name:28s} {_fmt(layers[name])} {unit}")
        runs = (plain, traced)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        setups = [
            _run_child(args, tmpdir, f"setup{i}", ["--setup-only"])
            for i in range((SMOKE_SETUP_RUNS if args.smoke else SETUP_RUNS) - 1)
        ]
        measured = _run_child(args, tmpdir, "measure", [])
        setups.append(measured)
        e2e = end_to_end(measured, setups)
        _print_run(args, measured, setups, e2e)
        runs = (measured,)
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "correct": failed == 0 and not any(r["errors"] for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args, tmpdir: str) -> dict:
    """Every workload, untraced, plus the summary table."""
    args.trace = 0
    results = {}
    for name in WORKLOADS:
        args.workload = name
        results[name] = run_one(args, tmpdir)
        print()
    print("summary (miss_ms_p50 = campaign-miss op_ms_p50_ref)")
    names = list(END_TO_END) + ["error_rate"]
    print("  " + "workload".ljust(15) + "".join(n.rjust(13) for n in names))
    for name, res in results.items():
        row = [res["metrics"][m]["value"] for m in END_TO_END]
        row.append(res["failed"] / res["attempted"])
        print("  " + name.ljust(15) + "".join(_fmt(v).rjust(13) for v in row))
    value = results["campaign-miss"]["metrics"]["op_ms_p50_ref"]["value"]
    print(f"  miss_ms_p50 {_fmt(value)} ms")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, res in results.items()
            for metric, value in res["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (s=5) and fewer set-ups, for the "
                        "smoke test")
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench_out"),
                        help="directory for the traced run's spans")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    os.makedirs(args.out, exist_ok=True)
    tmpdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmpdir, exist_ok=True)
    try:
        if args.workload == "all":
            result = run_all(args, tmpdir)
        else:
            result = run_one(args, tmpdir)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmpdir))  # only if no other run uses it
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
