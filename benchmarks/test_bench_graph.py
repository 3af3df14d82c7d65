"""Wall-clock benchmarks of graph capture & replay (real time, not simulated).

The capture/replay engine (:mod:`repro.amt.graph`) exists to remove the
per-cycle *host* cost of rebuilding the iteration task graph — Python
closure creation, future wiring, partition-range iteration — the same way
CUDA Graphs amortize kernel-launch setup.  These benches measure that
directly: per-cycle graph-construction time (rebuild arm) vs re-arm time
(replay arm), and end-to-end per-cycle wall clock, for every rung of the
variant ladder at s ∈ {15, 30} in timing-only mode (where graph handling
is the entire host cost).  Results are written to ``BENCH_graph.json`` at
the repo root (CI uploads it as an artifact).

The replay arm times cycles 3 and later of each run.  Those cycles
re-apply the run's memoized simulation of its first replay (cycle 2)
instead of simulating again, so its ``e2e_speedup`` measures rebuilding
and simulating every cycle against re-arming and re-applying one, not
graph construction alone.  The ``replay_memo`` block separates the two
replay kinds: per-cycle wall time of a run's simulated first replay and
of a memo-hit replay, over fresh programs.

Headline assertions: re-arming a captured graph must be at least 5x
cheaper than rebuilding it, the full variant at s=30 must run at least
1.15x faster per cycle end-to-end with replay on, and a memo-hit replay
of it must be at least 3x cheaper than its simulated first replay.  A
tracemalloc test additionally pins the steady state to (near) zero
allocations: resetting every task and future of a captured template
allocates nothing beyond a constant bookkeeping margin, no matter how
many cycles replay.
"""

import json
import time
import tracemalloc
from pathlib import Path

from repro.amt.graph import reset_segment
from repro.simcore.pool import _DONE
from repro.amt.runtime import AmtRuntime
from repro.core.hpx_lulesh import HpxLuleshProgram, HpxVariant
from repro.core.kernel_graph import ProblemShape
from repro.core.naive_hpx import NaiveHpxProgram
from repro.core.partitioning import table1_partition_sizes
from repro.lulesh.costs import DEFAULT_COSTS
from repro.lulesh.options import LuleshOptions
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig

from benchmarks.rows import timing_row

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_graph.json"
SIZES = (15, 30)
VARIANTS = ("fig5", "fig6", "fig7", "full")
MIN_CONSTRUCTION_RATIO = 5.0
MIN_E2E_SPEEDUP_S30 = 1.15
CYCLES = 12
WARMUP = 2
BLOCKS = 3
TRACEMALLOC_SLACK_BYTES = 2048
MEMO_SIZE = 30
MEMO_PROGRAMS = 7
MIN_MEMO_SPEEDUP_S30 = 3.0


def _hpx_program(nx, variant_name, replay):
    opts = LuleshOptions(nx=nx, numReg=11)
    shape = ProblemShape.from_options(opts)
    rt = AmtRuntime(MachineConfig(), CostModel(), 8)
    npart, epart = table1_partition_sizes(nx)
    variant = getattr(HpxVariant, variant_name)()
    return HpxLuleshProgram(
        rt, shape, DEFAULT_COSTS, nodal_partition=npart,
        elements_partition=epart, variant=variant, replay_graph=replay,
    )


def _naive_program(nx, replay):
    opts = LuleshOptions(nx=nx, numReg=11)
    shape = ProblemShape.from_options(opts)
    rt = AmtRuntime(MachineConfig(), CostModel(), 8)
    return NaiveHpxProgram(rt, shape, DEFAULT_COSTS, replay_graph=replay)


def _time_arm(make_program, replay):
    """Best-of-``BLOCKS`` per-cycle wall clock plus construction split.

    One program per block (capture state is part of what is measured);
    ``WARMUP`` untimed cycles absorb the capture itself and interpreter
    warmup, so the timed region is the steady state.
    """
    best_wall = None
    best_constr = None
    for _ in range(BLOCKS):
        program = make_program(replay)
        program.run(WARMUP)
        stats = program.graph_stats
        build0, replay0 = stats.build_ns, stats.replay_ns
        t0 = time.perf_counter_ns()
        program.run(CYCLES)
        wall = (time.perf_counter_ns() - t0) / CYCLES
        constr = (
            (stats.replay_ns - replay0) if replay
            else (stats.build_ns - build0)
        ) / CYCLES
        best_wall = wall if best_wall is None else min(best_wall, wall)
        best_constr = constr if best_constr is None else min(best_constr, constr)
    return best_wall, best_constr


def _cycle_ns(program):
    """Wall clock of one cycle of *program*."""
    t0 = time.perf_counter_ns()
    program.step()
    return time.perf_counter_ns() - t0


def _merge_results(section, payload):
    data = json.loads(OUT_PATH.read_text()) if OUT_PATH.exists() else {}
    data.setdefault("meta", {})["unit"] = (
        "ns per cycle (best of blocks), timing-only mode"
    )
    data["meta"]["sizes"] = list(SIZES)
    data["meta"]["cycles_per_block"] = CYCLES
    data[section] = payload
    OUT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


class TestGraphReplayWallclock:
    def test_variant_ladder_timing(self):
        """Rebuild vs replay across the ladder; headlines at s=30/full.

        ``construction_ratio`` compares what each arm spends getting a
        runnable graph each cycle — building it from scratch vs resetting
        the captured one — and must be >= 5x on every rung at s=30.
        ``e2e_speedup`` is the whole per-cycle wall clock, replayed
        cycles re-applying the memoized simulation, and must be >= 1.15x
        for the full variant at s=30.
        """
        results = {}
        for nx in SIZES:
            per_size = {}
            for name in VARIANTS:
                make = lambda replay, name=name: _hpx_program(nx, name, replay)
                rebuild_wall, build_ns = _time_arm(make, replay=False)
                replay_wall, rearm_ns = _time_arm(make, replay=True)
                per_size[name] = {
                    "rebuild_wall_ns": rebuild_wall,
                    "replay_wall_ns": replay_wall,
                    "build_ns": build_ns,
                    "rearm_ns": rearm_ns,
                    "construction_ratio": build_ns / max(rearm_ns, 1),
                    "e2e_speedup": rebuild_wall / replay_wall,
                }
            results[f"s{nx}"] = per_size
        _merge_results("hpx_variants", results)
        for name in VARIANTS:
            ratio = results["s30"][name]["construction_ratio"]
            assert ratio >= MIN_CONSTRUCTION_RATIO, (
                f"graph construction only {ratio:.1f}x cheaper on replay "
                f"for {name} at s=30, needs >= {MIN_CONSTRUCTION_RATIO}x"
            )
        headline = results["s30"]["full"]["e2e_speedup"]
        assert headline >= MIN_E2E_SPEEDUP_S30, (
            f"replay end-to-end speedup at s=30/full was {headline:.3f}x, "
            f"needs >= {MIN_E2E_SPEEDUP_S30}x"
        )

    def test_replay_memo(self):
        """A run's first replay simulates; later replays re-apply it.

        Each of ``MEMO_PROGRAMS`` fresh programs per configuration
        captures cycle 1, then times cycle 2 (the simulated first replay,
        which fills the memo) and cycle 3 (a memo hit).  The memo hit
        must be >= 3x cheaper for the full variant at s=30.
        """
        rows = []
        medians = {}
        for name in VARIANTS + ("naive",):
            simulated, reapplied = [], []
            for _ in range(MEMO_PROGRAMS):
                if name == "naive":
                    program = _naive_program(MEMO_SIZE, True)
                else:
                    program = _hpx_program(MEMO_SIZE, name, True)
                program.run(1)
                simulated.append(_cycle_ns(program))
                reapplied.append(_cycle_ns(program))
                assert program.graph_stats.memo_hits == 1
            config = (f"{name}, s={MEMO_SIZE}, 11 regions, 8 workers, "
                      "timing-only")
            for layer, samples in (("replay:simulated", simulated),
                                   ("replay:memo-hit", reapplied)):
                rows.append(timing_row(layer, config, "ms/cycle",
                                       [ns / 1e6 for ns in samples]))
                medians[name, layer] = rows[-1]["median"]
        _merge_results("replay_memo", rows)
        speedup = (medians["full", "replay:simulated"]
                   / medians["full", "replay:memo-hit"])
        assert speedup >= MIN_MEMO_SPEEDUP_S30, (
            f"a memo-hit replay at s={MEMO_SIZE}/full was only "
            f"{speedup:.2f}x cheaper than a simulated one, needs >= "
            f"{MIN_MEMO_SPEEDUP_S30}x"
        )

    def test_naive_timing(self):
        """The loop-per-barrier port, recorded (no headline assertion)."""
        results = {}
        for nx in SIZES:
            make = lambda replay: _naive_program(nx, replay)
            rebuild_wall, build_ns = _time_arm(make, replay=False)
            replay_wall, rearm_ns = _time_arm(make, replay=True)
            results[f"s{nx}"] = {
                "rebuild_wall_ns": rebuild_wall,
                "replay_wall_ns": replay_wall,
                "build_ns": build_ns,
                "rearm_ns": rearm_ns,
                "construction_ratio": build_ns / max(rearm_ns, 1),
                "e2e_speedup": rebuild_wall / replay_wall,
            }
        _merge_results("naive", results)
        assert results["s30"]["replay_wall_ns"] > 0

    def test_steady_state_zero_allocations(self):
        """Re-arming a captured template allocates nothing.

        Resets every segment of a captured s=15 full-variant graph many
        times under tracemalloc; the traced-memory peak over the loop must
        stay within a constant slack of the starting point, independent of
        the number of re-arms (the workspace-arena methodology).
        """
        program = _hpx_program(15, "full", replay=True)
        program.run(1)
        template = program._template
        assert template is not None and template.n_tasks > 10

        def rearm():
            # Stand in for the pool between resets: flip the lifecycle int
            # back to executed (allocation-free) so reset is legal again.
            for seg in template.segments:
                for t in seg.tasks:
                    t.state = _DONE
                reset_segment(seg)

        rearm()
        tracemalloc.start()
        try:
            # one warm pass inside tracing, then pin the baseline
            rearm()
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            for _ in range(10):
                rearm()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        grown = peak - base
        _merge_results("steady_state_allocations", {
            "template_tasks": template.n_tasks,
            "rearm_passes": 10,
            "peak_growth_bytes": grown,
            "slack_bytes": TRACEMALLOC_SLACK_BYTES,
        })
        assert grown <= TRACEMALLOC_SLACK_BYTES, (
            f"re-arming grew traced memory by {grown} bytes over 10 passes"
        )
