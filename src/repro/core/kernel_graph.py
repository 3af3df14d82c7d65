"""Problem shape for the simulated runs, and the EOS loop structure.

:class:`ProblemShape` holds the sizes the *simulated* runs need (element
and node counts, region sizes and repetition factors) without allocating
the full physics state, so timing-only experiments scale to s=150.  What
each kernel is — its body, cost key, temporaries and idempotency — lives
in the kernel catalogue, :mod:`repro.lulesh.catalogue`, which every
orchestration reads; "execute" and "simulate" runs traverse identical
structures because the catalogue bodies are simply not called in
timing-only mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.lulesh.costs import DEFAULT_COSTS, KernelCosts, iteration_work_ns
from repro.lulesh.domain import Domain
from repro.lulesh.options import LuleshOptions
from repro.lulesh.regions import RegionSet

__all__ = ["ProblemShape", "EOS_LOOPS_PER_REP"]

# The reference's EvalEOSForElems + CalcEnergyForElems issue ~16 separate
# parallel loops per repetition (gathers, compression, three pressure
# evaluations, two q updates, ...).  The OpenMP-structured orchestration
# models each as its own loop+barrier; their summed work equals the
# ``eos_eval`` rate.
EOS_LOOPS_PER_REP = 16


@dataclass(frozen=True)
class ProblemShape:
    """Sizes of a LULESH problem, sufficient for timing-only simulation."""

    nx: int
    num_elem: int
    num_node: int
    num_symm_nodes: int
    region_sizes: tuple[int, ...]
    region_reps: tuple[int, ...]

    @classmethod
    def from_options(cls, opts: LuleshOptions) -> "ProblemShape":
        """Build the shape without allocating field arrays.

        Region assignment runs for real, since it determines the
        load-imbalance structure; mesh fields are not allocated.  The
        assignment is LULESH's rand()-driven run-length draw and is not
        cheap (0.73 s at s=150), so shapes are memoized per ``(nx,
        numReg, region_balance, region_cost)``, the only options read.
        Equal tuples share one frozen instance.
        """
        return _shape_from_options(
            opts.nx, opts.numReg, opts.region_balance, opts.region_cost
        )

    @classmethod
    def from_domain(cls, domain: Domain) -> "ProblemShape":
        """Shape of an existing domain (execute mode)."""
        regions = domain.regions
        return cls(
            nx=domain.opts.nx,
            num_elem=domain.numElem,
            num_node=domain.numNode,
            num_symm_nodes=len(domain.mesh.symmX),
            region_sizes=tuple(int(s) for s in regions.reg_elem_sizes),
            region_reps=tuple(regions.rep(r) for r in range(regions.num_reg)),
        )

    @property
    def num_regions(self) -> int:
        return len(self.region_sizes)

    def iteration_work_ns(self, costs: KernelCosts = DEFAULT_COSTS) -> float:
        """Productive work of one leapfrog iteration (single-thread bound)."""
        return iteration_work_ns(
            costs, self.num_elem, self.num_node, self.region_sizes, self.region_reps
        )


@lru_cache(maxsize=None)
def _shape_from_options(
    nx: int, num_reg: int, balance: int, cost: int
) -> ProblemShape:
    """:meth:`ProblemShape.from_options` of one option tuple (memoized)."""
    num_elem = nx**3
    regions = RegionSet(
        num_elem=num_elem, num_reg=num_reg, balance=balance, cost=cost
    )
    return ProblemShape(
        nx=nx,
        num_elem=num_elem,
        num_node=(nx + 1) ** 3,
        num_symm_nodes=(nx + 1) ** 2,
        region_sizes=tuple(int(s) for s in regions.reg_elem_sizes),
        region_reps=tuple(regions.rep(r) for r in range(regions.num_reg)),
    )
