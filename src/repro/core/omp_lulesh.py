"""OpenMP-structured LULESH — the reference baseline's execution shape.

One leapfrog iteration issues the reference's sequence of parallel regions
and loops (§II-B: "~30 parallel regions"; §IV Fig. 4: "a sequence of
parallel for-loops", each ending in an implicit barrier):

* one region per kernel group in ``LagrangeNodal``/``LagrangeElements``;
* one region *per material region* for the monotonic-Q limiter, for the EOS
  (whose repetition loop issues ``EOS_LOOPS_PER_REP`` small loops per
  repetition — the many-tiny-loops structure that degrades with more
  regions, Fig. 10), and for the time constraints.

In execute mode the loop bodies run the real NumPy kernels chunk-by-chunk;
in timing-only mode only costs are charged.  Either way the productive work
charged is identical to the task-based orchestration's — the comparison
differs only in synchronization structure, matching the paper's fairness
argument.
"""

from __future__ import annotations

from repro.core.kernel_graph import EOS_LOOPS_PER_REP, ProblemShape
from repro.core.program import CycleProgram
from repro.lulesh.catalogue import KERNELS
from repro.lulesh.costs import KernelCosts
from repro.lulesh.domain import Domain
from repro.lulesh.kernels.constraints import reduce_time_constraints
from repro.openmp.runtime import OmpRuntime, OmpStats

__all__ = ["omp_iteration", "OmpLuleshProgram"]

# Serial (master-thread) bookkeeping per iteration: TimeIncrement and the
# final constraint reduction.  Negligible, as §II-B notes.
_SERIAL_NS_PER_ITER = 2_000


def omp_iteration(
    omp: OmpRuntime,
    shape: ProblemShape,
    costs: KernelCosts,
    domain: Domain | None = None,
) -> None:
    """Issue one leapfrog iteration on the OpenMP-like runtime.

    With *domain* set, the real kernels execute and ``TimeIncrement`` /
    timestep constraints update the physics state; otherwise this charges
    simulated time only.
    """
    c = costs
    ne, nn = shape.num_elem, shape.num_node
    d = domain

    def body(name: str, r: int = -1):
        """Chunk body running catalogue kernel *name*; None in timing mode."""
        if d is None:
            return None
        run = KERNELS[name].body
        return lambda lo, hi: run(d, lo, hi, r, 0)

    def loop(n: int, name: str, r: int = -1) -> None:
        """One ``omp for`` over ``[0, n)`` running catalogue kernel *name*."""
        omp.loop(n, body(name, r), work_ns_per_item=KERNELS[name].rate(c))

    # Each region names the kernels it runs, as a constant tuple.
    # ----- LagrangeNodal --------------------------------------------------
    half_sum = KERNELS["sum_forces"].rate(c) * 0.5
    with omp.parallel_region("CalcForceForNodes", ("zero_forces",)):
        loop(nn, "zero_forces")
    with omp.parallel_region("InitStressTerms", ("init_stress",)):
        loop(ne, "init_stress")
    with omp.parallel_region("IntegrateStress", ("integrate_stress", "sum_forces")):
        loop(ne, "integrate_stress")
        # collection of stress contributions into nodes
        omp.loop(nn, None, work_ns_per_item=half_sum)
    with omp.parallel_region("CalcHourglassControl", ("hg_control",)):
        loop(ne, "hg_control")
    with omp.parallel_region("CalcFBHourglassForce", ("fb_hourglass", "sum_forces")):
        loop(ne, "fb_hourglass")
        # collection of both force buffers into nodes (real body here so the
        # stress collection above stays a pure cost)
        omp.loop(nn, body("sum_forces"), work_ns_per_item=half_sum)
    with omp.parallel_region("CalcAccelerationForNodes", ("acceleration",)):
        loop(nn, "acceleration")
    with omp.parallel_region("ApplyAccelerationBC", ("accel_bc",)):
        # three symmetry-plane loops; the body applies all three once
        bc = KERNELS["accel_bc"]
        bc_done = [False]

        def bc_body(lo: int, hi: int) -> None:
            if not bc_done[0]:
                bc.body(d, lo, hi, -1, 0)
                bc_done[0] = True

        omp.loop(shape.num_symm_nodes, bc_body if d is not None else None,
                 work_ns_per_item=bc.rate(c))
        omp.loop(shape.num_symm_nodes, None, work_ns_per_item=bc.rate(c))
        omp.loop(shape.num_symm_nodes, None, work_ns_per_item=bc.rate(c))
    with omp.parallel_region("CalcVelocityForNodes", ("velocity",)):
        loop(nn, "velocity")
    with omp.parallel_region("CalcPositionForNodes", ("position",)):
        loop(nn, "position")

    # ----- LagrangeElements ------------------------------------------------
    with omp.parallel_region("CalcKinematics", ("kinematics",)):
        loop(ne, "kinematics")
    with omp.parallel_region("CalcLagrangeElements", ("strain_rates",)):
        loop(ne, "strain_rates")
    with omp.parallel_region("CalcMonotonicQGradients", ("monoq_gradients",)):
        loop(ne, "monoq_gradients")
    for r in range(shape.num_regions):
        with omp.parallel_region(f"MonotonicQRegion[{r}]", ("monoq_region",)):
            loop(shape.region_sizes[r], "monoq_region", r)
    with omp.parallel_region("QStopCheck", ("qstop_check",)):
        loop(ne, "qstop_check")
    with omp.parallel_region("ApplyMaterialProperties", ("material_prologue",)):
        loop(ne, "material_prologue")
    eos = KERNELS["eos"]
    for r in range(shape.num_regions):
        rep = shape.region_reps[r]
        size = shape.region_sizes[r]
        with omp.parallel_region(f"EvalEOS[{r}]", ("eos",)):
            eos_done = [False]

            def eos_body(lo: int, hi: int, r=r, rep=rep, size=size,
                         flag=eos_done) -> None:
                if not flag[0]:
                    eos.body(d, 0, size, r, rep)
                    flag[0] = True

            # rep * EOS_LOOPS_PER_REP tiny loops, each with its own barrier —
            # the structure that shrinks per-loop work as regions grow.
            per_loop_rate = eos.rate(c) / EOS_LOOPS_PER_REP
            first = True
            for _ in range(rep):
                for _ in range(EOS_LOOPS_PER_REP):
                    omp.loop(
                        size,
                        eos_body if (d is not None and first) else None,
                        work_ns_per_item=per_loop_rate,
                    )
                    first = False
    with omp.parallel_region("UpdateVolumes", ("update_volumes",)):
        loop(ne, "update_volumes")

    # ----- CalcTimeConstraints ---------------------------------------------
    acc = {"courant": 1.0e20, "hydro": 1.0e20}
    for r in range(shape.num_regions):
        size = shape.region_sizes[r]
        with omp.parallel_region(f"TimeConstraints[{r}]", ("courant", "hydro")):
            for name in ("courant", "hydro"):
                run = KERNELS[name].body

                def min_body(lo: int, hi: int, r=r, name=name, run=run) -> None:
                    acc[name] = min(acc[name], run(d, lo, hi, r, 0))

                omp.loop(size, min_body if d is not None else None,
                         work_ns_per_item=KERNELS[name].rate(c))
    if d is not None:
        reduce_time_constraints(d, acc["courant"], acc["hydro"])
    omp.single(_SERIAL_NS_PER_ITER)


class OmpLuleshProgram(CycleProgram):
    """Multi-iteration OpenMP-structured LULESH run.

    Injected faults fire at parallel-region entry (OpenMP's closest
    analogue to a task boundary); physics aborts propagate directly from
    the inlined kernel bodies as they always have.

    A timing-only cycle without a fault injector issues the same loops
    every time, so it is simulated once per program: the first such
    cycle's :class:`~repro.openmp.runtime.OmpStats` delta is kept and
    later ones add it in one step.  That sum equals issuing the loops only
    while every time in the delta is an ``int`` (the default
    :class:`~repro.simcore.costmodel.CostModel`); otherwise every cycle
    issues its loops.  Execute-mode and injected cycles always do.
    """

    def __init__(
        self,
        omp: OmpRuntime,
        shape: ProblemShape,
        costs: KernelCosts,
        domain: Domain | None = None,
        task_local_temporaries: bool = True,
    ) -> None:
        super().__init__(omp, shape, costs, domain)
        if domain is not None:
            domain.configure_workspace(task_local_temporaries)
        self._cycle_delta: OmpStats | None = None

    def _iterate(self, cycle: int, injector) -> None:
        # The iteration boundary is marked (and counters sampled) even when
        # the cycle fails, so a failed run still exports its last state.
        try:
            if self.domain is not None or injector is not None:
                omp_iteration(self.rt, self.shape, self.costs, self.domain)
            elif self._cycle_delta is not None:
                self.rt.stats.add(self._cycle_delta)
            else:
                stats = self.rt.stats
                before = stats.copy()
                omp_iteration(self.rt, self.shape, self.costs)
                delta = stats.since(before)
                if delta.integral():
                    self._cycle_delta = delta
        finally:
            self.rt.end_iteration()
