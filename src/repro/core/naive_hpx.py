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

Like :class:`~repro.core.hpx_lulesh.HpxLuleshProgram`, the program is a
:class:`~repro.core.program.GraphProgram`: it captures the first cycle's
loop graph and replays it on subsequent cycles (``replay_graph``).
Per-cycle state the loop bodies need lives in one recyclable
:class:`_NaiveCycleState` that is reset in place before each cycle, and the
timestep is read from the domain at execution time.
"""

from __future__ import annotations

from repro.amt.algorithms import for_loop
from repro.amt.runtime import AmtRuntime
from repro.core.kernel_graph import EOS_LOOPS_PER_REP, ProblemShape
from repro.core.program import GraphProgram
from repro.lulesh.catalogue import KERNELS
from repro.lulesh.costs import KernelCosts
from repro.lulesh.domain import Domain
from repro.lulesh.kernels.constraints import reduce_time_constraints

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
    domain: Domain | None,
    state: _NaiveCycleState,
) -> _NaiveCycleState:
    """One leapfrog iteration as a sequence of blocking ``for_each`` loops.

    The loop bodies accumulate the constraint minima in *state*, which is
    returned.  The final reduction is left to the caller: it runs as plain
    Python outside the loop graph, so a replayed cycle re-runs it too.
    """
    c = costs
    ne, nn = shape.num_elem, shape.num_node
    d = domain

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
    return state


def _skip(lo: int, hi: int) -> None:
    return None


class NaiveHpxProgram(GraphProgram):
    """Multi-iteration naive (prior-work [16]) HPX LULESH run.

    Failures surface at the blocking barrier of the loop that failed
    (``wait_all`` re-raises a single failure with its original type).
    """

    def __init__(
        self,
        rt: AmtRuntime,
        shape: ProblemShape,
        costs: KernelCosts,
        domain: Domain | None = None,
        replay_graph: bool = True,
    ) -> None:
        super().__init__(rt, shape, costs, domain, replay_graph)
        self._state = _NaiveCycleState(shape.num_regions)

    def _iterate(self, cycle: int, injector) -> None:
        # Re-arm the loop bodies, whether this cycle builds or replays.
        self._state.reset()
        super()._iterate(cycle, injector)

    def _build(self) -> _NaiveCycleState:
        return naive_iteration(
            self.rt, self.shape, self.costs, self.domain, self._state
        )

    def _finish(self, state: _NaiveCycleState) -> None:
        if self.domain is not None:
            reduce_time_constraints(self.domain, state.courant, state.hydro)
