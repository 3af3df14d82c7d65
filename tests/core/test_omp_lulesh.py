"""Unit tests for the OpenMP-structured orchestration."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import session
from repro.core.kernel_graph import EOS_LOOPS_PER_REP, ProblemShape
from repro.core.omp_lulesh import OmpLuleshProgram, omp_iteration
from repro.lulesh.costs import DEFAULT_COSTS
from repro.lulesh.domain import Domain
from repro.lulesh.options import LuleshOptions
from repro.lulesh.reference import SequentialDriver
from repro.obs.registry import CounterRegistry
from repro.openmp.runtime import OmpRuntime
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig


def make_omp(n_threads, execute):
    return OmpRuntime(MachineConfig(), CostModel(), n_threads, execute_bodies=execute)


class TestStructure:
    def test_region_and_loop_counts(self):
        opts = LuleshOptions(nx=4, numReg=3)
        shape = ProblemShape.from_options(opts)
        omp = make_omp(4, execute=False)
        omp_iteration(omp, shape, DEFAULT_COSTS)
        # Regions: 15 fixed + 3 monoq + 3 eos + 3 constraints = 24 for 3 regions
        assert omp.stats.n_regions == 15 + 3 * 3
        # EOS loops: sum over regions of rep * EOS_LOOPS_PER_REP
        eos_loops = sum(shape.region_reps) * EOS_LOOPS_PER_REP
        # fixed loops: 1+1+2+1+2+1+3+1+1 +1+1+1 +1+1 +1 = 19; monoq 3; constraints 6
        assert omp.stats.n_loops == 19 + 3 + eos_loops + 6

    def test_more_regions_more_loops(self):
        def loops(num_reg):
            opts = LuleshOptions(nx=4, numReg=num_reg)
            omp = make_omp(4, execute=False)
            omp_iteration(omp, ProblemShape.from_options(opts), DEFAULT_COSTS)
            return omp.stats.n_loops

        assert loops(11) > loops(3)

    def test_timing_only_runs_without_domain(self):
        opts = LuleshOptions(nx=4, numReg=2)
        omp = make_omp(8, execute=False)
        omp_iteration(omp, ProblemShape.from_options(opts), DEFAULT_COSTS)
        assert omp.stats.total_ns > 0


class TestExecution:
    def test_single_iteration_matches_reference(self):
        opts = LuleshOptions(nx=4, numReg=3)
        ref = Domain(opts)
        SequentialDriver(ref).step()

        dom = Domain(opts)
        omp = make_omp(4, execute=True)
        program = OmpLuleshProgram(omp, ProblemShape.from_domain(dom),
                                   DEFAULT_COSTS, dom)
        program.run(1)
        for f in ("x", "xd", "e", "p", "q", "v", "ss"):
            assert np.array_equal(getattr(ref, f), getattr(dom, f)), f

    def test_thread_count_does_not_change_physics(self):
        opts = LuleshOptions(nx=4, numReg=3)

        def run(threads):
            dom = Domain(opts)
            omp = make_omp(threads, execute=True)
            OmpLuleshProgram(
                omp, ProblemShape.from_domain(dom), DEFAULT_COSTS, dom
            ).run(5)
            return dom

        a, b = run(1), run(24)
        assert np.array_equal(a.e, b.e)
        assert np.array_equal(a.x, b.x)

    def test_stops_at_stoptime(self):
        opts = LuleshOptions(nx=3, numReg=1)
        dom = Domain(opts)
        omp = make_omp(2, execute=True)
        program = OmpLuleshProgram(omp, ProblemShape.from_domain(dom),
                                   DEFAULT_COSTS, dom)
        program.run(100_000)
        assert dom.time == pytest.approx(opts.stoptime)

    def test_invalid_iterations(self):
        opts = LuleshOptions(nx=3, numReg=1)
        omp = make_omp(2, execute=False)
        program = OmpLuleshProgram(omp, ProblemShape.from_options(opts),
                                   DEFAULT_COSTS)
        with pytest.raises(ValueError):
            program.run(0)


class TestTimingBehaviour:
    def test_runtime_scales_with_iterations(self):
        opts = LuleshOptions(nx=6, numReg=3)
        shape = ProblemShape.from_options(opts)

        def total(iters):
            omp = make_omp(8, execute=False)
            OmpLuleshProgram(omp, shape, DEFAULT_COSTS).run(iters)
            return omp.stats.total_ns

        assert total(4) == pytest.approx(2 * total(2), rel=1e-9)

    def test_parallel_faster_than_serial_for_big_problem(self):
        opts = LuleshOptions(nx=20, numReg=3)
        shape = ProblemShape.from_options(opts)

        def total(threads):
            omp = make_omp(threads, execute=False)
            OmpLuleshProgram(omp, shape, DEFAULT_COSTS).run(1)
            return omp.stats.total_ns

        assert total(24) < total(1)


class TestSessionRun:
    @pytest.mark.parametrize("execute", [False, True])
    def test_run_frees_its_registry_and_the_session_its_runtime(
        self, execute, monkeypatch,
    ):
        """The counter sampler's hook, the registry and its counters close
        a reference cycle through the session's one runtime.  Each run
        breaks it when it returns, so the run's registry goes without the
        cyclic garbage collector, and the runtime goes with the session."""
        refs = []

        def make(*args, **kwargs):
            omp = OmpRuntime(*args, **kwargs)
            refs.append(weakref.ref(omp))
            return omp

        monkeypatch.setattr(session, "OmpRuntime", make)
        gc.disable()
        try:
            sess = session.Session("omp", LuleshOptions(nx=4, numReg=3), 4,
                                   execute=execute)
            for _ in range(2):
                registry = CounterRegistry()
                registry_ref = weakref.ref(registry)
                sess.run(2, registry=registry)
                del registry
                assert registry_ref() is None
            assert len(refs) == 1 and refs[0]() is sess.rt
            del sess
            assert refs[0]() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("impl", ["omp", "hpx"])
    def test_failed_attach_leaves_no_sampling_hook(self, impl):
        """A registry that already holds one of the run's paths fails the
        run after its sampler hook is installed; the hook goes with it."""
        registry = CounterRegistry()
        registry.register_gauge("/arena/checkouts", lambda: 0)
        sess = session.Session(impl, LuleshOptions(nx=4, numReg=3), 4,
                               execute=True)
        with pytest.raises(ValueError, match="already registered"):
            sess.run(1, registry=registry)
        sess.run(2)
        assert registry.n_intervals == 0
