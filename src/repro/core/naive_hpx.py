"""The prior-work HPX port [16]: 1:1 ``hpx::for_each`` loop replacement.

§III: "A prior effort [16] to realize LULESH in HPX primarily just replaced
the traditional for-loops with hpx::for_each constructs.  However, this
version performs significantly worse than the OpenMP reference [17]" — and
§IV: "in [16], parallel regions are split into multiple for-loops, which
introduces even *more* synchronization barriers."

This module reproduces that approach: every loop of the reference becomes a
blocking :func:`repro.amt.algorithms.for_loop` with HPX's default
auto-chunking.  Each loop pays task creation, scheduling, and a blocking
barrier — the structure the paper's manual decomposition dismantles.

Like :class:`~repro.core.hpx_lulesh.HpxLuleshProgram`, the program captures
the first cycle's loop graph and replays it on subsequent cycles
(``replay_graph``): per-cycle state the loop bodies need lives in one
recyclable :class:`_NaiveCycleState` that is reset in place before each
replay, and the timestep is read from the domain at execution time.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

from repro.amt.algorithms import for_loop
from repro.amt.graph import GraphStats, GraphTemplate
from repro.amt.runtime import AmtRuntime
from repro.core.kernel_graph import EOS_LOOPS_PER_REP, ProblemShape
from repro.lulesh.catalogue import KERNELS
from repro.lulesh.costs import KernelCosts
from repro.lulesh.domain import Domain
from repro.lulesh.kernels.constraints import reduce_time_constraints, time_increment

__all__ = ["naive_iteration", "NaiveHpxProgram"]


class _NaiveCycleState:
    """Per-cycle mutable state the loop bodies close over.

    One instance is shared by every loop body of a built graph; resetting
    it in place re-arms the bodies for a replayed cycle without recreating
    a single closure.
    """

    __slots__ = ("bc_done", "eos_done", "courant", "hydro")

    def __init__(self, n_regions: int) -> None:
        self.bc_done = False
        self.eos_done = [False] * n_regions
        self.courant = 1.0e20
        self.hydro = 1.0e20

    def reset(self) -> None:
        self.bc_done = False
        done = self.eos_done
        for r in range(len(done)):
            done[r] = False
        self.courant = 1.0e20
        self.hydro = 1.0e20


def naive_iteration(
    rt: AmtRuntime,
    shape: ProblemShape,
    costs: KernelCosts,
    domain: Domain | None = None,
    state: _NaiveCycleState | None = None,
) -> _NaiveCycleState:
    """One leapfrog iteration as a sequence of blocking ``for_each`` loops.

    With *state* (graph capture), the final constraint reduction is left to
    the caller — it runs as plain Python outside the loop graph, so a
    replayed cycle must re-run it itself.  Without, the reduction is
    applied here (standalone behaviour).  Returns the cycle state holding
    the accumulated constraint minima.
    """
    c = costs
    ne, nn = shape.num_elem, shape.num_node
    d = domain
    standalone = state is None
    if state is None:
        state = _NaiveCycleState(shape.num_regions)

    def loop(n, name, tag=None, rate=None, body=None, r=-1):
        """One blocking loop over ``[0, n)`` running catalogue kernel *name*.

        *tag* defaults to the kernel name and *rate* to its cost-table
        rate; *body* replaces the kernel's own chunk body.
        """
        k = KERNELS[name]
        if rate is None:
            rate = k.rate(c)
        if d is None:
            body = _skip
        elif body is None:
            body = lambda lo, hi: k.body(d, lo, hi, r, 0)
        # Loop-at-a-time structure: the reuse working set is the full loop
        # footprint (same streaming behaviour as the OpenMP reference).
        rate = rate * rt.cost_model.stream_penalty(n, rate, rt.n_workers)
        for_loop(rt, 0, n, body, work_ns_per_item=rate, tag=tag or name,
                 idempotent=k.idempotent, desc=(name,))

    # LagrangeNodal; the force sum is split over two half-cost loops, and
    # only the second runs it
    half_sum = KERNELS["sum_forces"].rate(c) * 0.5
    loop(nn, "zero_forces")
    loop(ne, "init_stress")
    loop(ne, "integrate_stress")
    loop(nn, "sum_forces", "collect_stress", half_sum, _skip)
    loop(ne, "hg_control")
    loop(ne, "fb_hourglass")
    loop(nn, "sum_forces", "collect_hg", half_sum)
    loop(nn, "acceleration")

    def bc_body(lo: int, hi: int) -> None:
        if not state.bc_done:
            KERNELS["accel_bc"].body(d, lo, hi, -1, 0)
            state.bc_done = True

    for _ in range(3):
        loop(shape.num_symm_nodes, "accel_bc", body=bc_body)
    loop(nn, "velocity")
    loop(nn, "position")

    # LagrangeElements
    loop(ne, "kinematics")
    loop(ne, "strain_rates")
    loop(ne, "monoq_gradients", "q_gradients")
    for r in range(shape.num_regions):
        loop(shape.region_sizes[r], "monoq_region", f"monoq[{r}]", r=r)
    loop(ne, "qstop_check")
    loop(ne, "material_prologue", "prologue")
    eos = KERNELS["eos"]
    for r in range(shape.num_regions):
        rep = shape.region_reps[r]
        size = shape.region_sizes[r]

        def eos_body(lo: int, hi: int, r=r, rep=rep, size=size) -> None:
            if not state.eos_done[r]:
                eos.body(d, 0, size, r, rep)
                state.eos_done[r] = True

        per_loop_rate = eos.rate(c) / EOS_LOOPS_PER_REP
        for _ in range(rep * EOS_LOOPS_PER_REP):
            loop(size, "eos", f"eos[{r}]", per_loop_rate, eos_body)
    loop(ne, "update_volumes")

    # Constraints
    courant, hydro = KERNELS["courant"], KERNELS["hydro"]
    for r in range(shape.num_regions):
        size = shape.region_sizes[r]

        def courant_body(lo: int, hi: int, r=r) -> None:
            state.courant = min(state.courant, courant.body(d, lo, hi, r, 0))

        def hydro_body(lo: int, hi: int, r=r) -> None:
            state.hydro = min(state.hydro, hydro.body(d, lo, hi, r, 0))

        loop(size, "courant", f"courant[{r}]", body=courant_body)
        loop(size, "hydro", f"hydro[{r}]", body=hydro_body)
    if standalone and d is not None:
        reduce_time_constraints(d, state.courant, state.hydro)
    return state


def _skip(lo: int, hi: int) -> None:
    return None


class NaiveHpxProgram:
    """Multi-iteration naive (prior-work [16]) HPX LULESH run."""

    def __init__(
        self,
        rt: AmtRuntime,
        shape: ProblemShape,
        costs: KernelCosts,
        domain: Domain | None = None,
        replay_graph: bool = True,
    ) -> None:
        self.rt = rt
        self.shape = shape
        self.costs = costs
        self.domain = domain
        self.replay_graph = replay_graph
        self.graph_stats = GraphStats()
        self._timing_cycle = 0  # cycle counter for timing-only runs
        self._state = _NaiveCycleState(shape.num_regions)
        self._template: GraphTemplate | None = None
        self._last_cycle: int | None = None

    def _invalidate_template(self) -> None:
        if self._template is not None:
            self._template = None
            self.graph_stats.invalidations += 1
            if self.rt.flight_recorder is not None:
                self.rt.flight_recorder.record(
                    "graph_invalidate", time_ns=self.rt.stats.total_ns
                )

    def begin_job(self) -> None:
        """Rewind per-run bookkeeping for a fresh run on a warm program.

        Same contract as :meth:`HpxLuleshProgram.begin_job`: a new campaign
        job restarts at cycle 1 without tripping the rollback detector, and
        the captured loop graph survives for cross-job replay.
        """
        self._last_cycle = None
        self._timing_cycle = 0
        self.graph_stats.reset()

    def _advance(self, cycle: int, injector) -> None:
        """Replay the captured loop graph, or build-and-capture it.

        Same invalidation rules as the task-graph program: a rolled-back
        (non-monotone) cycle or a fault-injection cycle rebuilds from
        scratch, and fault cycles are never captured.
        """
        stats = self.graph_stats
        d = self.domain
        faulty = injector is not None and injector.plans_faults(cycle)
        if self._template is not None:
            rollback = self._last_cycle is not None and cycle <= self._last_cycle
            if rollback or faulty:
                self._invalidate_template()
        self._last_cycle = cycle
        if self._template is not None:
            self._state.reset()
            try:
                stats.replay_ns += self.rt.replay_graph(self._template)
            except Exception:
                self._invalidate_template()
                raise
            stats.replays += 1
            stats.memo_hits += self.rt.replayed_from_memo
            if self.rt.flight_recorder is not None:
                self.rt.flight_recorder.record(
                    "graph_replay", time_ns=self.rt.stats.total_ns, cycle=cycle
                )
            if d is not None:
                reduce_time_constraints(d, self._state.courant, self._state.hydro)
            return
        capture = self.replay_graph and not faulty
        if capture:
            self.rt.begin_capture()
        self._state.reset()
        t0 = time.perf_counter_ns()
        exec0 = self.rt.real_exec_ns
        try:
            naive_iteration(self.rt, self.shape, self.costs, d,
                            state=self._state)
        except Exception:
            if capture:
                self.rt.abort_capture()
            raise
        # Every loop is a blocking barrier, so pool-execution time is
        # interleaved with construction; subtract it out.
        stats.build_ns += (
            time.perf_counter_ns() - t0 - (self.rt.real_exec_ns - exec0)
        )
        if capture:
            self._template = self.rt.end_capture()
            stats.captures += 1
            if self.rt.flight_recorder is not None:
                self.rt.flight_recorder.record(
                    "graph_capture",
                    time_ns=self.rt.stats.total_ns,
                    cycle=cycle,
                    n_segments=len(self._template.segments),
                )
        if d is not None:
            reduce_time_constraints(d, self._state.courant, self._state.hydro)

    def step(self) -> None:
        """Advance exactly one leapfrog cycle.

        Failures surface at the blocking barrier of the loop that failed
        (``wait_all`` re-raises a single failure with its original type).
        """
        d = self.domain
        if d is not None:
            time_increment(d)
            phase = d.workspace.phase()
            cycle = d.cycle
        else:
            self._timing_cycle += 1
            phase = nullcontext()
            cycle = self._timing_cycle
        injector = self.rt.fault_injector
        if injector is not None:
            injector.begin_cycle(cycle)
            if d is not None:
                injector.corrupt_fields(d)
        with phase:
            self._advance(cycle, injector)

    def run(self, iterations: int) -> None:
        """Advance *iterations* cycles (or fewer if stoptime hits)."""
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        for _ in range(iterations):
            if self.domain is not None:
                if self.domain.time >= self.domain.opts.stoptime:
                    break
            self.step()
