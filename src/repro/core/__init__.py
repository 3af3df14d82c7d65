"""The paper's contribution: many-task LULESH orchestration.

Three orchestrations of the *same* LULESH kernels:

* :mod:`~repro.core.omp_lulesh` — the OpenMP reference structure: a parallel
  region per kernel group, a ``parallel for`` + implicit barrier per loop,
  EOS evaluated region-by-region in many small loops;
* :mod:`~repro.core.hpx_lulesh` — the paper's HPX-native task graph: manual
  partitioning into tasks, per-partition continuation chains, consecutive
  loops combined into tasks, independent chains (stress ∥ hourglass,
  region ∥ region) executed concurrently, seven ``when_all`` barriers per
  leapfrog iteration, the whole graph pre-created up front;
* :mod:`~repro.core.naive_hpx` — the prior-work port [16]: every loop
  replaced 1:1 by a blocking ``hpx::for_each``, shown slower than OpenMP.

:mod:`~repro.core.hpx_lulesh` exposes the optimization ladder of the paper's
Figs. 5-8 as :class:`~repro.core.hpx_lulesh.HpxVariant` flags, so the
ablation bench can quantify each trick separately.

The three programs share :mod:`~repro.core.program`: its
:class:`~repro.core.program.CycleProgram` runs one cycle's prologue and the
multi-cycle loop for all three, and its
:class:`~repro.core.program.GraphProgram` holds the one capture/replay rule
of the two AMT programs.

:mod:`~repro.core.driver` runs any orchestration in two modes: *execute*
(real NumPy physics, used to verify bit-identical results against the
sequential reference) and *simulate* (timing-only on the simulated machine,
used for the paper's scaling experiments at full problem sizes).
"""

from repro.core.driver import RunResult, run_hpx, run_naive_hpx, run_omp
from repro.core.hpx_lulesh import HpxVariant
from repro.core.kernel_graph import ProblemShape
from repro.core.partitioning import partition_ranges, table1_partition_sizes

__all__ = [
    "RunResult",
    "run_hpx",
    "run_naive_hpx",
    "run_omp",
    "HpxVariant",
    "ProblemShape",
    "partition_ranges",
    "table1_partition_sizes",
]
