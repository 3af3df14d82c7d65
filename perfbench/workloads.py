"""The benchmark's workloads, each driven closed loop by one client.

* ``exec-s20`` — ``HpxLuleshProgram`` (full variant, replay on, Table I
  partitions, s=20, 11 regions) on the single-process simulated backend:
  the ``--execute`` default.  One op is one leapfrog cycle.
* ``process-s20`` — the same program through ``ParallelHpxBackend`` with
  2 workers and the backend's default dispatch.  One op is one cycle.
* ``campaign-miss`` — distinct timing-only paper-configuration jobs
  through ``CampaignScheduler``: every job misses the result cache.

Both execute workloads restart the problem every ``epoch`` cycles (the
seed picks the epoch length) by restoring the initial fields in place, so
every run times the same stretch of the physics and can check its state
against the sequential reference at a fixed cycle count.

The campaign jobs come in *passes*: each pass runs every job once, in an
order the seed shuffles, and a run ends only on a pass boundary.  Every pass is the same multiset of jobs, so a run's statistics
do not depend on where the time limit falls.
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass

__all__ = ["Sizes", "FULL", "SMOKE", "WORKLOADS"]


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``SMOKE`` shrinks everything for a quick check."""

    exec_s: int = 20
    exec_threads: int = 24  # simulated workers (the CLI default)
    process_workers: int = 2
    epoch_min: int = 40  # restart the execute workloads every 40..60 cycles
    epoch_span: int = 21
    # Warm cycles after the capture cycle.  The process backend needs about
    # a second: its first parallel cycles still pack waves by modelled
    # costs, and the workers first-touch their pages.
    warmup_cycles: int = 3
    process_warmup_cycles: int = 25
    campaign_s: tuple[int, ...] = (45, 60)
    campaign_threads: tuple[int, ...] = (8, 24, 48)


FULL = Sizes()
SMOKE = Sizes(exec_s=5, epoch_min=4, epoch_span=3, warmup_cycles=1,
              process_warmup_cycles=2,
              campaign_s=(5, 6), campaign_threads=(2, 4, 8))

#: (impl, variant) pairs of the campaign job mix.  Naive-port jobs are left
#: out: one takes seconds at s=45 and would swamp every other job.
_ORCHESTRATIONS = (
    ("omp", "full"),
    ("hpx", "fig5"),
    ("hpx", "fig6"),
    ("hpx", "fig7"),
    ("hpx", "full"),
)
_ITERATIONS = (2, 3, 4)


class Workload:
    """Interface the measuring loop drives (see ``child.py``)."""

    name = ""
    #: Pin the interpreter to one CPU.  Every workload but the process
    #: backend computes on one thread at a time; pinned, a hand-off between
    #: threads never waits for an idle virtual CPU to wake up, whose
    #: latency is up to the hypervisor.
    one_cpu = True

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.setup_info: dict[str, float] = {}

    def setup(self) -> None:
        """Build everything and warm up; the next op is timed."""

    def between_ops(self) -> None:
        """Untimed bookkeeping before each op."""

    def at_boundary(self) -> bool:
        """Whether the run may stop before the next op."""
        return True

    def op(self):
        """One timed op; its return value goes to :meth:`verify`."""
        raise NotImplementedError

    def verify(self, value) -> str | None:
        """Check one op's output (untimed); an error message or None."""
        return None

    def mark(self) -> dict:
        """Cumulative layer counters (the traced run takes differences)."""
        return {}

    def finish(self) -> tuple[int, list[str]]:
        """End-of-run correctness check: (failed ops, messages)."""
        return 0, []

    def close(self) -> None:
        """Release every resource (idempotent)."""


# --- execute workloads --------------------------------------------------------


class ExecWorkload(Workload):
    """One leapfrog cycle per op on the single-process (sim) backend."""

    name = "exec-s20"
    backend_kind = "sim"

    def __init__(self, seed, sizes, workdir) -> None:
        super().__init__(seed, sizes, workdir)
        self.epoch = sizes.epoch_min + self.rng.randrange(sizes.epoch_span)
        self.backend = None
        self.epoch_ends: list[tuple[int, float, float]] = []
        self._acc: dict[str, int] = {}

    def setup(self) -> None:
        import time

        from repro.amt.runtime import AmtRuntime
        from repro.core.hpx_lulesh import HpxLuleshProgram
        from repro.core.kernel_graph import ProblemShape
        from repro.core.partitioning import table1_partition_sizes
        from repro.lulesh.checkpoint import snapshot_state
        from repro.lulesh.costs import DEFAULT_COSTS
        from repro.lulesh.domain import Domain
        from repro.lulesh.options import LuleshOptions
        from repro.simcore.costmodel import CostModel
        from repro.simcore.machine import MachineConfig

        s = self.sizes
        t0 = time.perf_counter()
        self.opts = LuleshOptions(nx=s.exec_s, numReg=11)
        self.domain = Domain(self.opts)
        self.setup_info["domain_s"] = time.perf_counter() - t0
        self.snapshot = snapshot_state(self.domain)
        nodal, elems = table1_partition_sizes(s.exec_s)
        self.rt = AmtRuntime(MachineConfig(), CostModel(), s.exec_threads)
        self.program = HpxLuleshProgram(
            self.rt,
            ProblemShape.from_domain(self.domain),
            DEFAULT_COSTS,
            nodal_partition=nodal,
            elements_partition=elems,
            domain=self.domain,
        )
        self.driver = self.program
        warmup = s.warmup_cycles
        if self.backend_kind == "process":
            from repro.parallel import ParallelHpxBackend

            t0 = time.perf_counter()
            self.backend = ParallelHpxBackend(
                self.program, workers=s.process_workers
            )
            self.setup_info["pool_start_s"] = time.perf_counter() - t0
            self.driver = self.backend
            warmup = s.process_warmup_cycles
        for _ in range(1 + warmup):  # capture + warm cycles
            self.driver.step()

    def between_ops(self) -> None:
        if self.domain.cycle >= self.epoch:
            self._restart()

    def _restart(self) -> None:
        """Rewind to the initial state in place; captured graph kept."""
        from repro.lulesh.checkpoint import restore_state

        d = self.domain
        self.epoch_ends.append((d.cycle, d.origin_energy(), d.time))
        restore_state(d, self.snapshot)
        self.program.begin_job()
        if self.backend is not None:
            self._fold_backend_stats()
            self.backend.begin_job()

    def _backend_counters(self) -> dict[str, int]:
        st = self.backend.stats
        return {
            "parallel_cycles": st.parallel_cycles,
            "fallback_cycles": st.fallback_cycles,
            "waves": st.waves,
            "tasks_dispatched": st.tasks_dispatched,
            "busy_ns": st.busy_ns,
            "wall_ns": st.wall_ns,
            "respawns": self.backend.supervisor.stats.respawns,
        }

    def _fold_backend_stats(self) -> None:
        for key, value in self._backend_counters().items():
            self._acc[key] = self._acc.get(key, 0) + value

    def op(self):
        self.driver.step()

    def mark(self) -> dict:
        out = {"n_tasks": self.rt.stats.n_tasks, "workers": 0}
        if self.backend is not None:
            out["workers"] = self.backend.stats.workers
            for key, value in self._backend_counters().items():
                out[key] = self._acc.get(key, 0) + value
        return out

    def finish(self) -> tuple[int, list[str]]:
        """Compare every epoch end, and the last state, with the reference.

        The reference is the plain sequential driver on a fresh Domain;
        origin energy, time and cycle count must match bit for bit.
        """
        from repro.lulesh.domain import Domain
        from repro.lulesh.reference import SequentialDriver

        d = self.domain
        ends = self.epoch_ends + [(d.cycle, d.origin_energy(), d.time)]
        wanted = {cycle for cycle, _e, _t in ends}
        ref_domain = Domain(self.opts)
        ref = SequentialDriver(ref_domain)
        golden = {}
        while ref_domain.cycle < max(wanted):
            ref.step()
            if ref_domain.cycle in wanted:
                golden[ref_domain.cycle] = (
                    ref_domain.origin_energy(), ref_domain.time
                )
        bad_ops, errors = 0, []
        for cycle, energy, t in ends:
            if golden.get(cycle) != (energy, t):
                bad_ops += cycle
                errors.append(
                    f"cycle {cycle}: origin energy {energy!r} / time {t!r} "
                    f"!= reference {golden.get(cycle)!r}"
                )
        return bad_ops, errors

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()


class ProcessWorkload(ExecWorkload):
    """The same cycles through the process backend's worker pool."""

    name = "process-s20"
    backend_kind = "process"
    one_cpu = False  # the workers need every CPU

    def finish(self) -> tuple[int, list[str]]:
        """Also check that every cycle after the capture ran in parallel.

        A respawned worker or a cycle on the serial path (a fall-back, or
        the degraded backend) still gives the reference's bits, but times
        another code path: each counts as a failed op.
        """
        bad_ops, errors = super().finish()
        counts = self.mark()
        extra_fallbacks = counts["fallback_cycles"] - 1  # 1 = the capture
        if extra_fallbacks or counts["respawns"] or self.backend.degraded:
            bad_ops += max(1, extra_fallbacks + counts["respawns"])
            errors.append(
                f"process backend left its parallel path: "
                f"{counts['fallback_cycles']} fall-back cycles (1 expected), "
                f"{counts['respawns']} respawns, "
                f"degraded={self.backend.degraded}"
            )
        return bad_ops, errors


# --- campaign workload --------------------------------------------------------


class CampaignMissWorkload(Workload):
    """Distinct timing-only jobs through the scheduler: every op misses.

    A pass runs every class at every iteration count, with the result cache
    emptied first, so every job computes and stores.  Jobs of one class
    share its executor, so executor reuse shows.
    """

    name = "campaign-miss"

    def __init__(self, seed, sizes, workdir) -> None:
        super().__init__(seed, sizes, workdir)
        self.cache_dir = os.path.join(workdir, "cache")
        self.scheduler = None
        self.classes = [  # one warm executor each
            (impl, variant, s, threads)
            for impl, variant in _ORCHESTRATIONS
            for s in sizes.campaign_s
            for threads in sizes.campaign_threads
        ]
        self.jobs = [self._spec(cls, i)
                     for cls in self.classes for i in _ITERATIONS]
        self._order: list[int] = []
        self._pos = 0
        self.payloads: dict = {}
        self.sim_tasks = 0
        self.sim_iterations = 0
        self.sim_ns = 0

    def _spec(self, cls, iterations: int):
        from repro.serve.job import JobSpec

        impl, variant, s, threads = cls
        return JobSpec(s=s, i=iterations, threads=threads, impl=impl,
                       variant=variant)

    def _run(self, spec):
        return self.scheduler.run_campaign([spec])[0]

    def setup(self) -> None:
        from repro.serve.cache import ResultCache
        from repro.serve.scheduler import CampaignScheduler

        self.cache = ResultCache(self.cache_dir)
        self.scheduler = CampaignScheduler(
            cache=self.cache, lanes=1, max_executors=len(self.classes) + 2
        )
        # Warm one executor per class (its graph captured by a 1-cycle
        # job), so every pass of the timed stream sees the same warm pool.
        for cls in self.classes:
            record = self._run(self._spec(cls, 1))
            if record.status != "completed":
                raise RuntimeError(f"warm-up job {cls} {record.status}: "
                                   f"{record.error}")

    def at_boundary(self) -> bool:
        return self._pos == 0

    def between_ops(self) -> None:
        if self._pos == 0:  # a new pass: empty cache, every job once, shuffled
            for entry in os.listdir(self.cache_dir):
                shutil.rmtree(os.path.join(self.cache_dir, entry))
            self._order = list(range(len(self.jobs)))
            self.rng.shuffle(self._order)

    def op(self):
        spec = self.jobs[self._order[self._pos]]
        self._pos = (self._pos + 1) % len(self._order)
        return spec, self._run(spec)

    def verify(self, value) -> str | None:
        spec, record = value
        if record.status != "completed":
            return f"{spec}: {record.status} ({record.error})"
        if record.cached:
            return f"{spec}: served from a cache that was just emptied"
        result = record.result
        if result["iterations"] != spec.i or result["runtime_ns"] <= 0:
            return f"{spec}: implausible payload {result['iterations']}"
        # The same job computed in the previous pass must give the same bits.
        earlier = self.payloads.setdefault(spec, result)
        if earlier != result:
            return f"{spec}: recomputation differs from the earlier result"
        if spec.impl == "hpx":
            self.sim_tasks += result["n_tasks"]
            self.sim_iterations += result["iterations"]
            self.sim_ns += record.wall_ns
        return None

    def mark(self) -> dict:
        pool = self.scheduler.pool
        cache = self.cache.stats
        return {
            "hits": cache.hits,
            "misses": cache.misses,
            "created": pool.created,
            "reused": pool.reused,
        }

    def close(self) -> None:
        if self.scheduler is not None:
            self.scheduler.close()
            self.scheduler = None


WORKLOADS = {
    cls.name: cls
    for cls in (ExecWorkload, ProcessWorkload, CampaignMissWorkload)
}
