"""Steadiness check: two sets of runs, interleaved, compared metric by metric.

Runs ``run.py --trace 0`` once per seed and workload for each of two sets,
alternating the sets (A B, then B A for the next seed, ...) so that drift
of the host over minutes lands on both sets alike instead of looking like
a regression of whichever set ran later.  For every end-to-end metric it
reports each set's median and quartiles, the spread ``(Q3 - Q1) / median``
(quartiles as ``statistics.quantiles(values, n=4)`` gives them) and how far
set B's median lies from set A's, against the metric's bound in
``BENCHMARK.json``.

By default both sets run this checkout (the same-code check).  Point
``--a`` and ``--b`` at two checkouts to compare a parent and a change::

    python3 perfbench/steadiness.py --workloads exec-s20 --seeds 5
    python3 perfbench/steadiness.py --a ../parent --b . --json out.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(root: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--a", default=ROOT, help="checkout of set A")
    parser.add_argument("--b", default=ROOT, help="checkout of set B")
    parser.add_argument("--json", default=None, help="write the raw results")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    raw = {w: {"A": [], "B": []} for w in args.workloads}
    for k, seed in enumerate(range(1, args.seeds + 1)):
        for workload in args.workloads:
            order = ("A", "B") if k % 2 == 0 else ("B", "A")
            for side in order:
                root = args.a if side == "A" else args.b
                raw[workload][side].append(
                    _run(root, workload, seed, args.seconds)
                )
                print(f"seed {seed} {workload} {side} done", file=sys.stderr)

    report = {}
    ok = True
    for workload, sides in raw.items():
        report[workload] = {}
        print(f"{workload}")
        for name, meta in bounds.items():
            a = summarize([r[name] for r in sides["A"]])
            b = summarize([r[name] for r in sides["B"]])
            sign = 1.0 if meta["better"] == "lower" else -1.0
            worse = sign * (b["median"] - a["median"]) / a["median"]
            spread_ok = max(a["spread"], b["spread"]) <= meta["bound"]
            verdict = "ok" if spread_ok and worse <= meta["bound"] else "FAIL"
            ok &= verdict == "ok"
            report[workload][name] = {"A": a, "B": b, "b_worse_by": worse,
                                      "bound": meta["bound"]}
            print(f"  {name:12s} A {a['median']:.5g} [{a['q1']:.5g}, "
                  f"{a['q3']:.5g}] spread {a['spread']:.3f} | B "
                  f"{b['median']:.5g} [{b['q1']:.5g}, {b['q3']:.5g}] spread "
                  f"{b['spread']:.3f} | B worse by {worse:+.3f} "
                  f"(bound {meta['bound']}, target spread < "
                  f"{meta['bound'] / 3:.3f}) {verdict}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
