"""Partition-size policy and range iteration (paper Table I).

The paper manually partitions each kernel loop into tasks of ``P`` items
and tunes ``P`` per problem size and per leapfrog phase.  Table I:

    size   LagrangeNodal()   LagrangeElements()
     45        2048                2048
     60        4096                2048
     75        8192                4096
     90        8192                4096
    120        8192                2048
    150        8192                2048

The LagrangeNodal size grows with the problem ("increasing the partition
size beyond 8192 does not yield benefits") while the LagrangeElements size
is non-monotone — it *drops back* to 2048 for the two largest problems
("Surprisingly, we even experience benefits from decreasing the
partitioning size...").  :func:`table1_partition_sizes` encodes the table
with those two rules extended to arbitrary sizes; the partition-sweep bench
(E4) searches for the optimum independently to reproduce the table.
:func:`resolve_partition_sizes` is the one precedence chain every run
path uses: explicit sizes, then a tuning database, then Table I.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from repro.simcore.machine import MachineConfig

__all__ = [
    "table1_partition_sizes",
    "resolve_partition_sizes",
    "partition_layout",
    "partition_ranges",
    "n_partitions",
]

# The exact published tuning (problem size -> (nodal P, elements P)).
TABLE1 = {
    45: (2048, 2048),
    60: (4096, 2048),
    75: (8192, 4096),
    90: (8192, 4096),
    120: (8192, 2048),
    150: (8192, 2048),
}


@lru_cache(maxsize=None)
def table1_partition_sizes(nx: int) -> tuple[int, int]:
    """Partition sizes ``(lagrange_nodal_P, lagrange_elements_P)`` for *nx*.

    Exact Table I values for the paper's six sizes; for other sizes, the
    paper's two observed rules: nodal P doubles from 2048 with the problem
    size and saturates at 8192; elements P is 2048 except in the 75-90
    band where 4096 was better.
    """
    if nx < 1:
        raise ValueError(f"nx must be >= 1, got {nx}")
    if nx in TABLE1:
        return TABLE1[nx]
    if nx <= 45:
        nodal = 2048
    elif nx <= 60:
        nodal = 4096
    else:
        nodal = 8192
    elements = 4096 if 61 <= nx <= 105 else 2048
    return nodal, elements


def resolve_partition_sizes(
    nx: int,
    regions: int,
    threads: int,
    nodal: int | None = None,
    elements: int | None = None,
    tuning=None,
    machine: MachineConfig | None = None,
) -> tuple[int, int, str]:
    """``(nodal_P, elements_P, source)`` for one HPX run.

    Explicit sizes win; a missing one comes from *tuning* (a
    :class:`~repro.tuning.database.TuningDatabase`, consulted for
    *machine* — default :class:`~repro.simcore.machine.MachineConfig` —
    and this shape), else from :func:`table1_partition_sizes`.  *source*
    names where the sizes came from: ``explicit`` when either was given,
    else ``tuned`` or ``table1``.
    """
    pn, pe = table1_partition_sizes(nx)
    source = "table1"
    if tuning is not None and (nodal is None or elements is None):
        tuned = tuning.tuned_partition_sizes(
            machine or MachineConfig(), "hpx", nx, regions, threads
        )
        if tuned is not None:
            (pn, pe), source = tuned, "tuned"
    if nodal:
        pn, source = nodal, "explicit"
    if elements:
        pe, source = elements, "explicit"
    return pn, pe, source


@lru_cache(maxsize=None)
def partition_layout(
    n_items: int, partition_size: int, balanced: bool = False
) -> tuple[tuple[int, int], ...]:
    """The contiguous ``[lo, hi)`` ranges of at most *partition_size* items.

    The manual task decomposition of paper Fig. 5: each task iterates over
    ``P`` items only.  Covers ``[0, n_items)`` exactly once; empty for an
    empty range.

    With ``balanced=True`` the *number* of partitions is unchanged
    (``ceil(n/P)``) but the remainder is spread across all of them instead
    of landing in one short trailing range: 10 000 items at ``P=4096``
    yield 3334/3333/3333 rather than 4096/4096/1808.  Earlier ranges are
    never smaller than later ones, every range size differs by at most one,
    and no range exceeds *partition_size*.  This is the ``balanced_split``
    tuning knob (:mod:`repro.tuning`): a short trailing task is a load-
    imbalance hazard exactly when the partition count is close to the
    worker count.

    Layouts are memoized per ``(n_items, partition_size, balanced)`` —
    every kernel region recomputes the same handful of splits each cycle,
    so graph (re)builds hit the cache after the first iteration.
    """
    if partition_size < 1:
        raise ValueError(f"partition_size must be >= 1, got {partition_size}")
    if n_items < 0:
        raise ValueError(f"n_items must be non-negative, got {n_items}")
    if balanced:
        parts = n_partitions(n_items, partition_size)
        if parts == 0:
            return ()
        base, rem = divmod(n_items, parts)
        ranges = []
        lo = 0
        for i in range(parts):
            hi = lo + base + (1 if i < rem else 0)
            ranges.append((lo, hi))
            lo = hi
        return tuple(ranges)
    return tuple(
        (lo, min(lo + partition_size, n_items))
        for lo in range(0, n_items, partition_size)
    )


def partition_ranges(
    n_items: int, partition_size: int, balanced: bool = False
) -> Iterator[tuple[int, int]]:
    """Iterate :func:`partition_layout` (memoized ranges)."""
    return iter(partition_layout(n_items, partition_size, balanced))


def n_partitions(n_items: int, partition_size: int) -> int:
    """Number of ranges :func:`partition_ranges` yields (either mode)."""
    if partition_size < 1:
        raise ValueError(f"partition_size must be >= 1, got {partition_size}")
    return -(-n_items // partition_size) if n_items > 0 else 0
