"""Integration tests: graph replay is invisible to physics and DES timing.

The capture/replay engine only removes *host* work (Python graph
construction).  Everything observable — field physics, simulated runtime,
task and flush counts, the DES trace — must be bit-identical between a
replayed run and one that rebuilds its graph every cycle, on every rung
of the variant ladder, including after rollback- or fault-triggered
invalidation.
"""

import pytest

from repro.amt.runtime import AmtRuntime
from repro.core.driver import run_hpx, run_naive_hpx
from repro.core.hpx_lulesh import HpxLuleshProgram, HpxVariant
from repro.core.kernel_graph import ProblemShape
from repro.core.naive_hpx import NaiveHpxProgram
from repro.lulesh.costs import DEFAULT_COSTS
from repro.lulesh.domain import Domain
from repro.lulesh.options import LuleshOptions
from repro.obs.registry import CounterRegistry
from repro.resilience.plan import ResiliencePlan
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig

OPTS = LuleshOptions(nx=6, numReg=5)
VARIANTS = ("fig5", "fig6", "fig7", "full")


def run_pair(variant_name, execute, iterations=5):
    """The same run with and without graph replay; returns both programs."""
    out = []
    for replay in (True, False):
        domain = Domain(OPTS) if execute else None
        shape = (
            ProblemShape.from_domain(domain)
            if domain is not None
            else ProblemShape.from_options(OPTS)
        )
        rt = AmtRuntime(MachineConfig(), CostModel(), 8)
        program = HpxLuleshProgram(
            rt, shape, DEFAULT_COSTS, nodal_partition=64,
            elements_partition=64, domain=domain,
            variant=getattr(HpxVariant, variant_name)(),
            replay_graph=replay,
        )
        program.run(iterations)
        out.append(program)
    return out


class TestBitIdenticalReplay:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_execute_mode(self, variant):
        replayed, rebuilt = run_pair(variant, execute=True)
        assert replayed.domain.e.sum() == rebuilt.domain.e.sum()
        assert (replayed.domain.origin_energy()
                == rebuilt.domain.origin_energy())
        assert replayed.domain.cycle == rebuilt.domain.cycle
        assert replayed.domain.time == rebuilt.domain.time
        assert replayed.rt.stats.total_ns == rebuilt.rt.stats.total_ns
        assert replayed.rt.stats.n_tasks == rebuilt.rt.stats.n_tasks
        assert replayed.rt.stats.n_flushes == rebuilt.rt.stats.n_flushes

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_timing_only_mode(self, variant):
        replayed, rebuilt = run_pair(variant, execute=False)
        assert replayed.rt.stats.total_ns == rebuilt.rt.stats.total_ns
        assert replayed.rt.stats.n_tasks == rebuilt.rt.stats.n_tasks
        assert replayed.rt.stats.spawn_ns == rebuilt.rt.stats.spawn_ns

    @pytest.mark.parametrize("nx,num_reg", [(4, 3), (5, 7), (8, 11)])
    def test_sizes_and_regions(self, nx, num_reg):
        opts = LuleshOptions(nx=nx, numReg=num_reg)
        energies = []
        for replay in (True, False):
            res = run_hpx(opts, 4, 4, execute=True, replay_graph=replay)
            energies.append((res.domain.origin_energy(),
                            res.runtime_ns, res.n_tasks))
        assert energies[0] == energies[1]

    def test_naive_bit_identical(self):
        results = []
        for replay in (True, False):
            res = run_naive_hpx(OPTS, 4, 5, execute=True, replay_graph=replay)
            results.append((res.domain.origin_energy(), res.runtime_ns,
                            res.n_tasks))
        assert results[0] == results[1]


class TestGraphStatsAccounting:
    def test_capture_once_then_replay(self):
        replayed, rebuilt = run_pair("full", execute=True, iterations=5)
        assert replayed.graph_stats.captures == 1
        assert replayed.graph_stats.replays == 4
        assert replayed.graph_stats.invalidations == 0
        assert replayed.graph_stats.replay_ns > 0
        assert rebuilt.graph_stats.captures == 0
        assert rebuilt.graph_stats.replays == 0
        assert rebuilt.graph_stats.build_ns > 0

    def test_knob_mutation_invalidates(self):
        domain = Domain(OPTS)
        shape = ProblemShape.from_domain(domain)
        rt = AmtRuntime(MachineConfig(), CostModel(), 8)
        program = HpxLuleshProgram(rt, shape, DEFAULT_COSTS,
                                   nodal_partition=64, elements_partition=64,
                                   domain=domain)
        program.run(2)
        assert program.graph_stats.captures == 1
        program.nodal_partition //= 2
        program.run(2)
        assert program.graph_stats.invalidations == 1
        assert program.graph_stats.captures == 2

    def test_counters_exported_via_driver(self):
        registry = CounterRegistry()
        run_hpx(OPTS, 4, 4, execute=True, registry=registry)
        assert registry.counter("/graph/captures").sample_value() == 1
        assert registry.counter("/graph/replays").sample_value() == 3
        # cycle 2 simulates the first replay; cycles 3-4 re-apply it
        assert registry.counter("/graph/memo-hits").sample_value() == 2
        assert registry.counter("/graph/replay-time").sample_value() > 0

    def test_disabled_replay_counters_stay_zero(self):
        registry = CounterRegistry()
        run_hpx(OPTS, 4, 4, execute=True, registry=registry,
                replay_graph=False)
        assert registry.counter("/graph/captures").sample_value() == 0
        assert registry.counter("/graph/build-time").sample_value() > 0


class TestResilienceInteraction:
    """Rollback and injected faults must invalidate the captured graph."""

    def _plan(self):
        return ResiliencePlan(
            inject=("field:e:nan@3",), fault_seed=2,
            auto_recover=True, checkpoint_every=2,
        )

    def test_hpx_rollback_converges_with_replay(self):
        base = run_hpx(OPTS, 4, 6, execute=True, replay_graph=False)
        registry = CounterRegistry()
        plan = self._plan()
        res = run_hpx(OPTS, 4, 6, execute=True, resilience=plan,
                      replay_graph=True, registry=registry)
        assert plan.stats.rollbacks >= 1
        ref = base.domain.origin_energy()
        assert abs(res.domain.origin_energy() - ref) <= 1e-8 * abs(ref)
        assert registry.counter("/graph/invalidations").sample_value() >= 1

    def test_naive_rollback_converges_with_replay(self):
        base = run_naive_hpx(OPTS, 4, 6, execute=True, replay_graph=False)
        plan = self._plan()
        registry = CounterRegistry()
        res = run_naive_hpx(OPTS, 4, 6, execute=True, resilience=plan,
                            replay_graph=True, registry=registry)
        assert plan.stats.rollbacks >= 1
        ref = base.domain.origin_energy()
        assert abs(res.domain.origin_energy() - ref) <= 1e-8 * abs(ref)
        assert registry.counter("/graph/invalidations").sample_value() >= 1

    @pytest.mark.parametrize(
        "run", [run_hpx, run_naive_hpx], ids=["hpx", "naive"]
    )
    def test_fault_cycle_is_not_captured(self, run):
        """A stall fault at cycle 2 must neither replay a stale graph nor
        capture one poisoned by the inflated task cost."""
        base = run(OPTS, 4, 4, execute=True, replay_graph=False)
        plan = ResiliencePlan(inject=("task:*:stall@2",), fault_seed=3)
        registry = CounterRegistry()
        res = run(OPTS, 4, 4, execute=True, resilience=plan,
                  replay_graph=True, registry=registry)
        # physics unharmed by a stall; timing differs only on the
        # fault cycle, which ran outside any capture
        ref = base.domain.origin_energy()
        assert abs(res.domain.origin_energy() - ref) <= 1e-12 * abs(ref)
        assert registry.counter("/graph/captures").sample_value() == 2
        assert registry.counter("/graph/invalidations").sample_value() == 1
        # an armed injector keeps every replay on the simulator
        assert registry.counter("/graph/memo-hits").sample_value() == 0
        assert plan.stats.injected_faults >= 1


class TestBarrierCount:
    """A replayed cycle reports the barrier count of the graph it re-fires."""

    @pytest.mark.parametrize(
        "variant,barriers", [("fig5", 18), ("fig6", 6), ("fig7", 6), ("full", 6)]
    )
    def test_replay_keeps_the_built_count(self, variant, barriers):
        def program():
            opts = LuleshOptions(nx=4, numReg=3)
            return HpxLuleshProgram(
                AmtRuntime(MachineConfig(), CostModel(), 8),
                ProblemShape.from_options(opts), DEFAULT_COSTS,
                nodal_partition=32, elements_partition=32,
                variant=HpxVariant.named(variant),
            )

        fresh = program()
        fresh.build_iteration()
        fresh.rt.flush()
        replayed = program()
        replayed.run(3)
        assert replayed.graph_stats.replays == 2
        assert fresh.barriers_per_iteration == barriers
        assert replayed.barriers_per_iteration == barriers
