"""Campaign throughput benchmark: jobs/sec and cache dedup on a real sweep.

The headline artifact of the simulation-as-a-service layer: a 54-job
parameter sweep at s=10 (variant ladder x thread counts x iteration
counts, execute and timing-only) submitted twice through the
:class:`~repro.serve.scheduler.CampaignScheduler`.  Pass 1 is all cache
misses and measures warm-executor throughput (executor and template reuse
across the sweep's shape classes); pass 2 replays the identical sweep and
must be served almost entirely from the content-addressed result cache.

Results go to ``BENCH_campaign.json`` at the repo root (CI uploads it):
jobs/sec per pass, cache hit rate per pass, executor/template reuse
tallies.  The acceptance headline — the repeated pass resolves >= 90% of
jobs from the cache, and hit payloads are bit-identical to their pass-1
computations — is asserted, not just recorded.

The ``warm_vs_cold`` rows time single jobs on a warm executor at s=45:
the first job of a fresh executor (cold: it captures the graph and
simulates one replay) against a later job of the same executor (warm:
every cycle re-applies the runtime's memoized simulation).  The OpenMP
pair's cold job simulates one cycle and re-adds it; its warm job
simulates none.
"""

import json
import time
from pathlib import Path

from repro.obs.registry import CounterRegistry
from repro.serve import CampaignScheduler, JobSpec, ResultCache, expand_sweep
from repro.serve.executor import WarmExecutor
from repro.serve.fingerprint import resolve_spec

from benchmarks.rows import timing_row

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_campaign.json"

#: 3 variants x 3 thread counts x 3 iteration counts x {timing, execute}
#: = 54 jobs at s=10, well past the 50-job acceptance floor.
SWEEP_AXES = {
    "variant": ["full", "fig6", "fig7"],
    "threads": [8, 16, 24],
    "i": [2, 3, 4],
    "execute": [False, True],
}
MIN_REPEAT_HIT_RATE = 0.9
#: The warm-vs-cold jobs: one executor key per HPX variant and one for
#: OpenMP, REPS fresh executors each serving a cold and then a warm job.
WARM_JOB = {"s": 45, "r": 11, "i": 3, "threads": 24, "execute": False}
WARM_VARIANTS = ("fig5", "fig6", "full")
WARM_SPECS = {
    **{variant: JobSpec(variant=variant, **WARM_JOB)
       for variant in WARM_VARIANTS},
    "omp": JobSpec(impl="omp", **WARM_JOB),
}
REPS = 9


def _merge_results(blocks):
    """Store each of *blocks* under its key, keeping the file's others."""
    data = json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    data.update(blocks)
    OUT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _timed_job(warm, spec):
    """Wall time of one job, its payload and, for an AMT program, its
    ``(captures, memo_hits)``."""
    t0 = time.perf_counter_ns()
    outcome = warm.run_job(spec, registry=CounterRegistry())
    wall_ns = time.perf_counter_ns() - t0
    stats = getattr(warm.program, "graph_stats", None)
    counts = None if stats is None else (stats.captures, stats.memo_hits)
    return wall_ns, outcome.result, counts


def _sweep():
    return expand_sweep(SWEEP_AXES, defaults={"s": 10, "r": 11})


def _run_pass(scheduler, specs):
    before_hits = scheduler.stats.cache.hits
    before_done = scheduler.stats.completed
    t0 = time.perf_counter_ns()
    records = scheduler.run_campaign(specs)
    wall_ns = time.perf_counter_ns() - t0
    completed = scheduler.stats.completed - before_done
    hits = scheduler.stats.cache.hits - before_hits
    assert all(r.status == "completed" for r in records), [
        (r.job_id, r.status, r.error) for r in records if r.status != "completed"
    ]
    return records, {
        "jobs": len(specs),
        "completed": completed,
        "cache_hits": hits,
        "hit_rate": hits / len(specs),
        "wall_s": wall_ns / 1e9,
        "jobs_per_sec": completed / (wall_ns / 1e9),
    }


class TestCampaignThroughput:
    def test_repeated_sweep(self, tmp_path, oneshot):
        specs = _sweep()
        assert len(specs) >= 50

        cache = ResultCache(str(tmp_path / "cache"))
        with CampaignScheduler(cache=cache, lanes=2, max_executors=6) as sched:
            first, pass1 = _run_pass(sched, specs)
            second, pass2 = oneshot(_run_pass, sched, specs)
            pool = {
                "executors_created": sched.pool.created,
                "executors_reused": sched.pool.reused,
                "template_reuses": sched.stats.template_reuses,
            }

        assert pass1["hit_rate"] == 0.0  # cold cache: everything computes
        assert pass2["hit_rate"] >= MIN_REPEAT_HIT_RATE, pass2
        # A hit is the stored computation, bit for bit.
        for a, b in zip(first, second):
            assert b.result == a.result, (a.job_id, b.job_id)
        # The sweep shares executors across iteration counts: far fewer
        # stacks than jobs.
        assert pool["executors_created"] < len(specs) / 2

        payload = {
            "meta": {
                "sweep": {k: list(v) for k, v in SWEEP_AXES.items()},
                "s": 10,
                "n_jobs": len(specs),
                "lanes": 2,
                "max_executors": 6,
                "min_repeat_hit_rate": MIN_REPEAT_HIT_RATE,
            },
            "pass1": pass1,
            "pass2": pass2,
            "pool": pool,
        }
        _merge_results(payload)
        print(
            f"\ncampaign: {len(specs)} jobs  "
            f"pass1 {pass1['jobs_per_sec']:.1f} jobs/s ({pass1['hit_rate']:.0%} "
            f"cached)  pass2 {pass2['jobs_per_sec']:.1f} jobs/s "
            f"({pass2['hit_rate']:.0%} cached)"
        )

    def test_warm_job_against_cold_control(self):
        """The same job timed cold (first on a fresh executor) and warm.

        Warm jobs re-apply the runtime's memoized simulation from their
        first replayed cycle on; the cold job is the control, whose
        capture and one simulated replay a warm executor does not save.
        A warm OpenMP job re-adds the cold job's simulated cycle, so its
        payload must be the cold job's.
        """
        rows, graph_stats = [], {}
        for case, spec in WARM_SPECS.items():
            resolved = resolve_spec(spec)
            samples = {"cold": [], "warm": []}
            stats = graph_stats[case] = {"cold": [], "warm": []}
            for _ in range(REPS):
                warm = WarmExecutor(resolved)
                try:
                    payloads = {}
                    for kind in ("cold", "warm"):
                        wall_ns, payload, counts = _timed_job(warm, spec)
                        payloads[kind] = payload
                        samples[kind].append(wall_ns)
                        stats[kind].append(counts)
                finally:
                    warm.close()
                assert payloads["warm"] == payloads["cold"], case
            base = (f"{case}, s={WARM_JOB['s']}, {WARM_JOB['r']} regions, "
                    f"{WARM_JOB['threads']} threads, i={WARM_JOB['i']}, "
                    "timing-only")
            for kind, label in (
                ("cold", "first job of a fresh executor"),
                ("warm", "second job of the executor"),
            ):
                rows.append(timing_row(
                    "serve.run_job", f"{base}, {kind}: {label}", "ms",
                    [ns / 1e6 for ns in samples[kind]],
                ))
        _merge_results({"warm_vs_cold": rows})
        for row in rows:
            print(f"\n{row['config']}: median {row['median']:.2f} ms "
                  f"(mad {row['mad']:.2f}, min {row['min']:.2f})", end="")
        print()
        for variant in WARM_VARIANTS:
            # Cold: a capture, one simulated replay and one re-applied.
            assert graph_stats[variant]["cold"] == [(1, 1)] * REPS, variant
            # Warm: every cycle re-applies the first job's memo.
            hits = [hits for _, hits in graph_stats[variant]["warm"]]
            assert hits == [WARM_JOB["i"]] * REPS, (variant, hits)
