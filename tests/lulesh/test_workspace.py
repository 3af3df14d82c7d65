"""Unit tests for the kernel workspace arena + the zero-allocation guarantee."""

import tracemalloc

import numpy as np
import pytest

from repro.core.partitioning import partition_layout, table1_partition_sizes
from repro.lulesh.domain import Domain
from repro.lulesh.kernels import constraints as con_k
from repro.lulesh.kernels import eos as eos_k
from repro.lulesh.kernels import hourglass as hg_k
from repro.lulesh.kernels import kinematics as kin_k
from repro.lulesh.kernels import nodal as nodal_k
from repro.lulesh.kernels import qcalc as q_k
from repro.lulesh.kernels import stress as stress_k
from repro.lulesh.options import LuleshOptions
from repro.lulesh.reference import SequentialDriver
from repro.lulesh.workspace import HEAP, KernelArena, Workspace, WorkspaceStats


class TestKernelArena:
    def test_take_allocates_then_pools(self):
        arena = KernelArena(WorkspaceStats(), reuse=True)
        a = arena.take((16,))
        arena.give(a)
        b = arena.take((16,))
        assert b is a
        assert arena.stats.checkouts == 2
        assert arena.stats.allocations == 1
        assert arena.stats.bytes_reused == a.nbytes

    def test_distinct_keys_do_not_share(self):
        arena = KernelArena(WorkspaceStats(), reuse=True)
        a = arena.take((16,))
        arena.give(a)
        assert arena.take((16,), dtype=bool) is not a
        assert arena.take((8,)) is not a

    def test_no_reuse_mode_never_pools(self):
        arena = KernelArena(WorkspaceStats(), reuse=False)
        a = arena.take((16,))
        arena.give(a)
        assert arena.take((16,)) is not a
        assert arena.stats.allocations == 2
        assert arena.stats.bytes_reused == 0

    def test_high_water_tracks_concurrent_checkouts(self):
        arena = KernelArena(WorkspaceStats(), reuse=True)
        a = arena.take((16,))
        b = arena.take((16,))
        arena.give(a)
        arena.give(b)
        arena.take((16,))
        assert arena.stats.high_water_bytes == a.nbytes + b.nbytes


class TestWorkspaceScope:
    def test_scope_returns_buffers_on_exit(self):
        ws = Workspace(reuse=True)
        with ws.scope() as s:
            a = s.take((32,))
        with ws.scope() as s:
            assert s.take((32,)) is a

    def test_scope_returns_on_exception(self):
        ws = Workspace(reuse=True)
        with pytest.raises(RuntimeError):
            with ws.scope() as s:
                a = s.take((32,))
                raise RuntimeError("boom")
        assert ws.take((32,)) is a

    def test_heap_fallback_is_allocate_each_time(self):
        with HEAP.scope() as s:
            a = s.take((32,))
        with HEAP.scope() as s:
            assert s.take((32,)) is not a


class _FakeMesh:
    def __init__(self, nodelist):
        self.nodelist = nodelist


class TestGatherCache:
    def _ws(self):
        rng = np.random.default_rng(7)
        nodelist = rng.integers(0, 20, size=(6, 8))
        return Workspace(_FakeMesh(nodelist), reuse=True), rng.random(20)

    def test_fresh_outside_phase_window(self):
        ws, field = self._ws()
        a = ws.gather("x", field, 0, 6)
        b = ws.gather("x", field, 0, 6)
        assert a is not b
        assert ws.stats.gather_hits == 0
        assert a.flags.writeable

    def test_cached_inside_phase_window(self):
        ws, field = self._ws()
        with ws.phase():
            a = ws.gather("x", field, 0, 6)
            b = ws.gather("x", field, 0, 6)
        assert a is b
        assert not a.flags.writeable
        assert ws.stats.gather_hits == 1
        np.testing.assert_array_equal(a, field[ws.mesh.nodelist[0:6]])

    def test_new_phase_invalidates(self):
        ws, field = self._ws()
        with ws.phase():
            a = ws.gather("x", field, 0, 6)
        field[:] += 1.0
        with ws.phase():
            b = ws.gather("x", field, 0, 6)
            np.testing.assert_array_equal(b, field[ws.mesh.nodelist[0:6]])
        assert b is a  # same buffer, re-filled
        assert ws.stats.gather_hits == 0

    def test_touch_invalidates_within_phase(self):
        ws, field = self._ws()
        with ws.phase():
            a = ws.gather("x", field, 0, 6)
            field[:] += 1.0
            ws.touch("x")
            b = ws.gather("x", field, 0, 6)
            np.testing.assert_array_equal(b, field[ws.mesh.nodelist[0:6]])
            assert b is a
            assert ws.stats.gather_hits == 0
            # an untouched field stays cached
            c = ws.gather("x", field, 0, 6)
            assert c is b
            assert ws.stats.gather_hits == 1

    def test_nested_phase_shares_outer_epoch(self):
        ws, field = self._ws()
        with ws.phase():
            a = ws.gather("x", field, 0, 6)
            with ws.phase():
                assert ws.gather("x", field, 0, 6) is a
            assert ws.stats.gather_hits == 1

    def test_fresh_gather_stays_out_of_the_pool(self):
        ws, field = self._ws()
        a = ws.gather("x", field, 0, 6)
        assert ws.stats.live_bytes == 0
        assert ws.stats.high_water_bytes == 0
        assert ws.stats.allocations == 1
        assert ws.take((6, 8)) is not a

    def test_partitions_cached_separately(self):
        ws, field = self._ws()
        with ws.phase():
            a = ws.gather("x", field, 0, 3)
            b = ws.gather("x", field, 3, 6)
        assert a.shape == (3, 8) and b.shape == (3, 8)
        np.testing.assert_array_equal(b, field[ws.mesh.nodelist[3:6]])


class TestStaticCache:
    def test_builds_once(self):
        ws = Workspace(reuse=True)
        calls = []
        build = lambda: calls.append(1) or np.arange(4)  # noqa: E731
        a = ws.static("k", build)
        b = ws.static("k", build)
        assert a is b
        assert len(calls) == 1
        assert ws.stats.static_builds == 1


class TestDomainIntegration:
    def test_configure_workspace_swaps_mode(self):
        domain = Domain(LuleshOptions(nx=4, numReg=1))
        assert domain.workspace.reuse
        ws = domain.workspace
        domain.configure_workspace(True)
        assert domain.workspace is ws  # no-op when mode unchanged
        domain.configure_workspace(False)
        assert not domain.workspace.reuse

    def test_counters_move_in_a_step(self):
        domain = Domain(LuleshOptions(nx=4, numReg=1))
        SequentialDriver(domain).step()
        st = domain.workspace.stats
        assert st.checkouts > 0
        assert st.gathers > 0
        assert st.gather_hits > 0  # hourglass/qcalc reuse stress/kinematics gathers
        assert st.high_water_bytes > 0


class TestOutOfWindowCalls:
    def test_repeated_kernel_calls_do_not_grow_the_arena(self):
        """Kernels called outside any phase window (as the distributed
        driver calls them) gather into caller-owned buffers: six calls leave
        the arena's live bytes and high-water mark where the first left
        them."""
        domain = Domain(LuleshOptions(nx=8, numReg=1))
        st = domain.workspace.stats
        stress_k.integrate_stress(domain, 0, domain.numElem)
        first = (st.live_bytes, st.high_water_bytes)
        for _ in range(5):
            stress_k.integrate_stress(domain, 0, domain.numElem)
        assert (st.live_bytes, st.high_water_bytes) == first


class TestCheckoutsPerCall:
    """Scratch checkouts cost a dict round trip each, so the region kernels
    check out a fixed set per call: counted, not timed."""

    @pytest.fixture(scope="class")
    def domain(self):
        domain = Domain(LuleshOptions(nx=20, numReg=11))
        SequentialDriver(domain).step()
        return domain

    def checkouts(self, domain, fn, *args):
        before = domain.workspace.stats.checkouts
        fn(domain, *args)
        return domain.workspace.stats.checkouts - before

    def test_eos_checkouts_do_not_grow_with_rep(self, domain):
        """Region 10 (549 elements) at every repetition count the regions
        use; the 20 repetitions take two passes."""
        region = domain.regions.reg_elem_lists[10]
        counts = {rep: self.checkouts(domain, eos_k.eval_eos_region, region, rep)
                  for rep in (1, 2, 7, 20)}
        assert len(set(counts.values())) == 1, counts

    def test_q_region_checkouts(self, domain):
        region = domain.regions.reg_elem_lists[10]
        n = self.checkouts(domain, q_k.calc_monotonic_q_region, region, 0, None)
        assert n < 30


def _call(fn, *args):
    return fn(*args)


def partitioned_step(domain, call=_call):
    """One leapfrog cycle with every kernel called over the Table I
    partitions, each phase inside a phase window (as ``steps.py`` orders
    the full-range calls).  Every kernel call goes through
    ``call(kernel, *args)``, so a caller can time them."""
    d = domain
    nodal_p, elements_p = table1_partition_sizes(d.opts.nx)
    elems = partition_layout(d.numElem, elements_p)
    nodes = partition_layout(d.numNode, nodal_p)
    region_parts = [
        (lst, d.regions.rep(r), lo, hi)
        for r, lst in enumerate(d.regions.reg_elem_lists)
        for lo, hi in partition_layout(len(lst), elements_p)
    ]
    ws = d.workspace
    call(con_k.time_increment, d)
    dt = d.deltatime
    with ws.phase():
        for lo, hi in elems:
            call(stress_k.init_stress_terms, d, lo, hi)
            call(stress_k.integrate_stress, d, lo, hi)
            call(hg_k.calc_hourglass_control, d, lo, hi)
            call(hg_k.calc_fb_hourglass_force, d, lo, hi)
        for lo, hi in nodes:
            call(nodal_k.sum_elem_forces_to_nodes, d, lo, hi)
            call(nodal_k.calc_acceleration, d, lo, hi)
        call(nodal_k.apply_acceleration_bc, d)
        for lo, hi in nodes:
            call(nodal_k.calc_velocity, d, lo, hi, dt)
            call(nodal_k.calc_position, d, lo, hi, dt)
    with ws.phase():
        for lo, hi in elems:
            call(kin_k.calc_kinematics, d, lo, hi, dt)
            call(kin_k.calc_lagrange_elements_part2, d, lo, hi)
            call(q_k.calc_monotonic_q_gradients, d, lo, hi)
        for lst, _, lo, hi in region_parts:
            call(q_k.calc_monotonic_q_region, d, lst, lo, hi)
        for lo, hi in elems:
            call(q_k.check_q_stop, d, lo, hi)
            call(eos_k.apply_material_properties_prologue, d, lo, hi)
        for lst, rep, lo, hi in region_parts:
            call(eos_k.eval_eos_region, d, lst, rep, lo, hi)
        for lo, hi in elems:
            call(eos_k.update_volumes, d, lo, hi)
    courant = hydro = 1.0e20
    with ws.phase():
        for lst, _, lo, hi in region_parts:
            courant = min(
                courant, call(con_k.calc_courant_constraint, d, lst, lo, hi)
            )
            hydro = min(hydro, call(con_k.calc_hydro_constraint, d, lst, lo, hi))
    call(con_k.reduce_time_constraints, d, courant, hydro)


def steady_state_peak(step, warmup=3):
    """Bytes above the baseline traced while one warm *step* runs."""
    for _ in range(warmup):
        step()
    tracemalloc.start()
    try:
        step()  # settle tracemalloc's own bookkeeping
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - baseline


class TestZeroSteadyStateAllocations:
    def test_steady_state_iteration_allocates_nothing(self):
        """The tentpole guarantee: after warmup, one leapfrog iteration on
        the arena path performs no new numpy array allocations.

        A single fresh ``(ne, 8)`` float64 gather at nx=16 is 256 KiB;
        the threshold only leaves room for interpreter-level noise
        (closures, list nodes, boxed floats).
        """
        domain = Domain(LuleshOptions(nx=16, numReg=1))
        driver = SequentialDriver(domain)
        for _ in range(3):
            driver.step()
        tracemalloc.start()
        try:
            driver.step()  # settle tracemalloc's own bookkeeping
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            driver.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - baseline < 24 * 1024, (
            f"steady-state iteration allocated {peak - baseline} bytes"
        )

    def test_partitioned_iteration_allocates_nothing(self):
        """The same guarantee over the s=20 Table I partitions: element
        ranges 3 x 2,048 + 1,856 and nodal ranges 4 x 2,048 + 1,069.  NumPy
        allocates a per-call buffer for some operand layouts only at some
        shapes, so the full-range case alone does not cover these."""
        domain = Domain(LuleshOptions(nx=20, numReg=11))
        assert [hi - lo for lo, hi in partition_layout(domain.numElem, 2048)] \
            == [2048] * 3 + [1856]
        assert [hi - lo for lo, hi in partition_layout(domain.numNode, 2048)] \
            == [2048] * 4 + [1069]
        grown = steady_state_peak(lambda: partitioned_step(domain))
        assert grown < 24 * 1024, (
            f"steady-state partitioned iteration allocated {grown} bytes"
        )
        # The partitioned cycles ran every kernel: same state as the
        # sequential reference after as many cycles.
        ref = Domain(LuleshOptions(nx=20, numReg=11))
        driver = SequentialDriver(ref)
        while ref.cycle < domain.cycle:
            driver.step()
        for name, arr in ref.copy_state().items():
            assert arr.tobytes() == getattr(domain, name).tobytes(), name

    def test_allocate_each_time_mode_does_allocate(self):
        """The ablation arm really is allocate-each-time (sanity check)."""
        domain = Domain(LuleshOptions(nx=8, numReg=1))
        domain.configure_workspace(False)
        driver = SequentialDriver(domain)
        for _ in range(2):
            driver.step()
        before = domain.workspace.stats.allocations
        driver.step()
        assert domain.workspace.stats.allocations > before
