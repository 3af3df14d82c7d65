"""HPX-style parallel algorithms.

These are the loop constructs of §II-A (``hpx::for_each``,
``hpx::for_loop``, ``hpx::reduce``) that the *prior* HPX port of LULESH [16]
used 1:1 in place of OpenMP pragmas — the approach the paper shows to be
*slower* than the OpenMP reference, motivating its manual task decomposition.
They are provided both for completeness of the runtime surface and to build
the naive baseline (:mod:`repro.core.naive_hpx`).

Each algorithm partitions the index range into chunks, creates one task per
chunk, and ends with a *blocking* barrier — reproducing the synchronization
behaviour of HPX's parallel algorithms under the default (synchronous)
execution policy.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.amt.future import Future
from repro.amt.runtime import AmtRuntime

__all__ = ["default_chunk_size", "for_loop", "for_each", "parallel_reduce"]


def default_chunk_size(n_items: int, n_workers: int, min_chunk: int = 512) -> int:
    """HPX-like auto-chunking: ~4 chunks per worker, amortization floor.

    HPX's ``auto_chunk_size`` measures a few iterations and sizes chunks so
    each task amortizes its scheduling overhead; the net effect is roughly
    four chunks per worker, but never chunks so small that task overhead
    dominates — modeled by the ``min_chunk`` floor.
    """
    if n_items <= 0:
        return 1
    if n_workers <= 0:
        raise ValueError(f"n_workers must be positive, got {n_workers}")
    if min_chunk < 1:
        raise ValueError(f"min_chunk must be >= 1, got {min_chunk}")
    return max(min(min_chunk, n_items), -(-n_items // (4 * n_workers)))


def for_loop(
    rt: AmtRuntime,
    start: int,
    stop: int,
    body: Callable[[int, int], Any],
    work_ns_per_item: float = 0.0,
    chunk_size: int | None = None,
    tag: str = "for_loop",
    blocking: bool = True,
    idempotent: bool = False,
    desc: Any = None,
) -> list[Future]:
    """Parallel loop over ``[start, stop)`` calling ``body(lo, hi)`` per chunk.

    With ``blocking=True`` (the default execution policy) the call returns
    only after all chunks completed — i.e. it embeds a synchronization
    barrier, which is precisely the behaviour the paper's manual task
    decomposition removes.  ``idempotent`` marks every chunk task safe for
    bounded replay under a runtime replay policy; every chunk task carries
    ``desc``.
    """
    if stop < start:
        raise ValueError(f"invalid range [{start}, {stop})")
    n = stop - start
    if n == 0:
        return []
    if chunk_size is None:
        chunk_size = default_chunk_size(n, rt.n_workers)
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    futures = []
    for lo in range(start, stop, chunk_size):
        hi = min(lo + chunk_size, stop)
        futures.append(
            rt.async_(
                body,
                lo,
                hi,
                cost_ns=int(round(work_ns_per_item * (hi - lo))),
                tag=f"{tag}[{lo}:{hi}]",
                idempotent=idempotent,
                desc=desc,
            )
        )
    if blocking:
        rt.wait_all(futures)
    return futures


def for_each(
    rt: AmtRuntime,
    items: Sequence[Any],
    fn: Callable[[Any], Any],
    work_ns_per_item: int = 0,
    chunk_size: int | None = None,
    tag: str = "for_each",
    blocking: bool = True,
) -> list[Future]:
    """``hpx::for_each``: apply *fn* to every item, chunked into tasks."""

    def body(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            fn(items[i])

    return for_loop(
        rt,
        0,
        len(items),
        body,
        work_ns_per_item=work_ns_per_item,
        chunk_size=chunk_size,
        tag=tag,
        blocking=blocking,
    )


def parallel_reduce(
    rt: AmtRuntime,
    start: int,
    stop: int,
    chunk_fn: Callable[[int, int], Any],
    combine: Callable[[Any, Any], Any],
    initial: Any,
    work_ns_per_item: int = 0,
    chunk_size: int | None = None,
    tag: str = "reduce",
) -> Any:
    """``hpx::reduce``: chunked partial reductions combined at a barrier.

    ``chunk_fn(lo, hi)`` returns the partial result for one chunk; *combine*
    folds partials left-to-right starting from *initial*.  Blocking, like the
    default execution policy.
    """
    futures = for_loop(
        rt,
        start,
        stop,
        chunk_fn,
        work_ns_per_item=work_ns_per_item,
        chunk_size=chunk_size,
        tag=tag,
        blocking=True,
    )
    acc = initial
    for fut in futures:
        acc = combine(acc, fut.result_nowait())
    return acc
