"""Wall-clock benchmark of the process execution backend (real cores).

The headline artifact of the real-parallel backend: steady-state per-cycle
wall clock of the shared-memory process backend at 1/2/4 workers vs the
single-process arena path, at s=20 and s=30 in execute mode.  The timed
region excludes pool startup and the serial capture cycle (the warm path
is the product; startup is amortized over a whole run), mirroring the
replay-style methodology of ``BENCH_graph.json``.  Each steady cycle is
timed on its own, ``CYCLES`` per arm, and every arm writes one row of
the ``benchmarks.rows`` schema: its cycle wall clock and, for the process
backend, its utilization per cycle (measured spec time over wall clock x
workers).

Results go to ``BENCH_parallel.json`` at the repo root (CI uploads it).
The scaling headline — a median cycle >= 1.5x faster at 4 workers than
the 1-worker process backend at s=30 — is asserted only where the host
actually has >= 4 CPUs; on smaller hosts the run still executes
(correctness + overhead numbers are meaningful) and the artifact records
``cpu_limited: true``.

Physics sanity rides along: every arm of a size must land on the exact
same origin energy — the backend is an execution strategy, not a solver
change.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.amt.runtime import AmtRuntime
from repro.core.hpx_lulesh import HpxLuleshProgram
from repro.core.kernel_graph import ProblemShape
from repro.core.partitioning import table1_partition_sizes
from repro.lulesh.costs import DEFAULT_COSTS
from repro.lulesh.domain import Domain
from repro.lulesh.options import LuleshOptions
from repro.parallel import ParallelHpxBackend, process_backend_supported
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig

from benchmarks.rows import timing_row

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_parallel.json"
SIZES = (20, 30)
WORKER_COUNTS = (1, 2, 4)
CYCLES = 20
WARMUP = 1  # warm parallel cycles after the capture cycle
MIN_SPEEDUP_4V1_S30 = 1.5

pytestmark = pytest.mark.skipif(
    not process_backend_supported(),
    reason="host cannot run the process backend",
)


def _program(nx):
    opts = LuleshOptions(nx=nx, numReg=11)
    domain = Domain(opts)
    npart, epart = table1_partition_sizes(nx)
    return HpxLuleshProgram(
        AmtRuntime(MachineConfig(), CostModel(), 8),
        ProblemShape.from_domain(domain),
        DEFAULT_COSTS,
        nodal_partition=npart,
        elements_partition=epart,
        domain=domain,
    )


def _config(nx, arm):
    return f"s={nx}, 11 regions, Table I partitions, execute, {arm}"


def _timed_step_ns(step):
    t0 = time.perf_counter_ns()
    step()
    return time.perf_counter_ns() - t0


def _time_sim_arm(nx):
    """Steady-state cycle wall clocks of the single-process path."""
    program = _program(nx)
    program.run(1 + WARMUP)  # capture + warm replay
    walls = [_timed_step_ns(program.step) for _ in range(CYCLES)]
    return walls, program.domain


def _time_process_arm(nx, workers):
    """Steady-state cycle wall clocks and utilizations of the process
    backend.

    A cycle's utilization is its measured spec time (workers and the
    main process's serial specs) over its wall clock x workers: the
    fraction of the pool's capacity spent computing (the rest is barrier
    slack, messaging, and the main process's own work).
    """
    program = _program(nx)
    walls, utilizations = [], []
    with ParallelHpxBackend(program, workers=workers) as backend:
        backend.run(1 + WARMUP)  # serial capture + warm parallel cycles
        assert backend.stats.parallel_cycles == WARMUP
        for _ in range(CYCLES):
            busy0 = backend.stats.busy_ns
            wall = _timed_step_ns(backend.step)
            walls.append(wall)
            utilizations.append(
                (backend.stats.busy_ns - busy0) / (wall * workers)
            )
        assert backend.stats.parallel_cycles == WARMUP + CYCLES
    return walls, utilizations, program.domain


def _ms(samples_ns):
    return [ns / 1e6 for ns in samples_ns]


def _merge_results(section, payload):
    data = json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    meta = data.setdefault("meta", {})
    meta["sizes"] = list(SIZES)
    meta["worker_counts"] = list(WORKER_COUNTS)
    meta["timed_cycles"] = CYCLES
    meta["host_cpus"] = os.cpu_count()
    meta["cpu_limited"] = (os.cpu_count() or 1) < max(WORKER_COUNTS)
    data[section] = payload
    OUT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


class TestProcessBackendWallclock:
    def test_worker_scaling(self):
        """1/2/4-worker sweep vs the arena path; headline at s=30.

        The ratio of the 1-worker to the 4-worker median cycle (process
        backend) is the scaling headline; the single-process arm situates
        the backend against the arena path whose task graph it executes.
        """
        rows, medians = [], {}
        for nx in SIZES:
            walls, sim = _time_sim_arm(nx)
            rows.append(timing_row("cycle", _config(nx, "single process"),
                                   "ms/cycle", _ms(walls)))
            for workers in WORKER_COUNTS:
                walls, utilizations, domain = _time_process_arm(nx, workers)
                energy, sim_energy = domain.origin_energy(), sim.origin_energy()
                assert energy == sim_energy, (
                    f"s={nx} w={workers}: origin energy diverged from the "
                    f"single-process path ({energy!r} != {sim_energy!r})"
                )
                assert domain.cycle == sim.cycle
                config = _config(nx, f"process backend, workers={workers}")
                rows.append(timing_row("cycle", config, "ms/cycle",
                                       _ms(walls)))
                medians[nx, workers] = rows[-1]["median"]
                rows.append(timing_row("parallel.utilization", config,
                                       "ratio", utilizations))
        _merge_results("worker_scaling", rows)
        for row in rows:
            print(f"\n{row['layer']} {row['config']}: median "
                  f"{row['median']:.3f} {row['unit']} (mad {row['mad']:.3f}, "
                  f"min {row['min']:.3f})", end="")
        print()

        headline = medians[30, 1] / medians[30, 4]
        if (os.cpu_count() or 1) >= max(WORKER_COUNTS):
            assert headline >= MIN_SPEEDUP_4V1_S30, (
                f"4-worker speedup over 1 worker at s=30 was "
                f"{headline:.3f}x, needs >= {MIN_SPEEDUP_4V1_S30}x"
            )
        else:
            # the sweep still ran and proved bit-identity; record why the
            # scaling assertion cannot hold here
            assert headline > 0

    def test_fallback_cycles_are_bounded(self):
        """Steady state means exactly one serial (capture) cycle."""
        program = _program(SIZES[0])
        with ParallelHpxBackend(program, workers=2) as backend:
            backend.run(6)
            stats = backend.stats
        _merge_results("steady_state", {
            "cycles": 6,
            "fallback_cycles": stats.fallback_cycles,
            "parallel_cycles": stats.parallel_cycles,
            "lowerings": stats.lowerings,
        })
        assert stats.fallback_cycles == 1
        assert stats.parallel_cycles == 5
        assert stats.lowerings == 1
