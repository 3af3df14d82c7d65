"""Wall-clock benchmark of the process execution backend (real cores).

The headline artifact of the real-parallel backend: steady-state per-cycle
wall clock of the shared-memory process backend at 1/2/4 workers vs the
single-process arena path, at s=20 and s=30 in execute mode.  The timed
region excludes pool startup and the serial capture cycle (the warm path
is the product; startup is amortized over a whole run), mirroring the
replay-style methodology of ``BENCH_graph.json``.

Results go to ``BENCH_parallel.json`` at the repo root (CI uploads it).
The scaling headline — >= 1.5x at 4 workers over the 1-worker process
backend at s=30 — is asserted only where the host actually has >= 4 CPUs;
on smaller hosts the run still executes (correctness + overhead numbers
are meaningful) and the artifact records ``cpu_limited: true``.

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

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_parallel.json"
SIZES = (20, 30)
WORKER_COUNTS = (1, 2, 4)
CYCLES = 5
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


def _time_sim_arm(nx):
    """Steady-state per-cycle wall clock of the single-process path."""
    program = _program(nx)
    program.run(1 + WARMUP)  # capture + warm replay
    t0 = time.perf_counter_ns()
    program.run(CYCLES)
    wall = (time.perf_counter_ns() - t0) / CYCLES
    return wall, program.domain.origin_energy(), program.domain.cycle


def _time_process_arm(nx, workers):
    """Steady-state per-cycle wall clock of the process backend.

    ``utilization`` is measured busy time summed over every spec, divided
    by makespan x workers — the fraction of the pool's wall-clock capacity
    actually spent computing (the rest is barrier slack, messaging, and
    serial sections).
    """
    program = _program(nx)
    with ParallelHpxBackend(program, workers=workers) as backend:
        backend.run(1 + WARMUP)  # serial capture + warm parallel cycles
        assert backend.stats.parallel_cycles == WARMUP
        busy0 = backend.stats.busy_ns
        t0 = time.perf_counter_ns()
        backend.run(CYCLES)
        total_wall = time.perf_counter_ns() - t0
        wall = total_wall / CYCLES
        assert backend.stats.parallel_cycles == WARMUP + CYCLES
        stats = backend.stats
        result = {
            "wall_ns": wall,
            "waves_per_cycle": stats.waves // stats.parallel_cycles,
            "tasks_per_cycle": stats.tasks_dispatched // stats.parallel_cycles,
            "shm_bytes": stats.shm_bytes,
            "utilization": (stats.busy_ns - busy0) / (total_wall * workers),
        }
    return result, program.domain.origin_energy(), program.domain.cycle


def _merge_results(section, payload):
    data = json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    meta = data.setdefault("meta", {})
    meta["unit"] = "ns per steady-state cycle, execute mode"
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

        ``speedup_4v1`` (process backend, 4 vs 1 workers) is the scaling
        headline; ``speedup_vs_sim`` situates the backend against the
        single-process arena path whose task graph it executes.
        """
        results = {}
        for nx in SIZES:
            sim_wall, sim_energy, sim_cycle = _time_sim_arm(nx)
            per_size = {"sim_wall_ns": sim_wall}
            arms = {}
            for workers in WORKER_COUNTS:
                arm, energy, cycle = _time_process_arm(nx, workers)
                assert energy == sim_energy, (
                    f"s={nx} w={workers}: origin energy diverged from the "
                    f"single-process path ({energy!r} != {sim_energy!r})"
                )
                assert cycle == sim_cycle
                arm["speedup_vs_sim"] = sim_wall / arm["wall_ns"]
                arms[f"w{workers}"] = arm
            per_size["process"] = arms
            per_size["speedup_4v1"] = (
                arms["w1"]["wall_ns"] / arms["w4"]["wall_ns"]
            )
            per_size["origin_energy"] = sim_energy
            results[f"s{nx}"] = per_size
        _merge_results("worker_scaling", results)

        headline = results["s30"]["speedup_4v1"]
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
