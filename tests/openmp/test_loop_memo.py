"""Memoized OpenMP loop costs against the direct per-thread formula.

``DirectLoopRuntime`` is the reference: its ``loop`` is a verbatim copy of
``OmpRuntime.loop`` as it was before loop costs were memoized, deriving
every thread's busy time again on every call.  Both runtimes must account
identical statistics for any sequence of loops, call the loop body on the
same chunks, and leave the same partial sums when a body raises.
"""

import pytest

from repro.openmp.parallel import static_chunks
from repro.openmp.runtime import OmpRuntime
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig


class DirectLoopRuntime(OmpRuntime):
    """The reference: per-thread busy time re-derived on every loop."""

    def loop(self, n_items, body=None, work_ns_per_item=0.0, tag="for",
             nowait=False, schedule=None):
        if not self._in_region:
            raise RuntimeError("omp for outside of a parallel region")
        if n_items < 0:
            raise ValueError(f"n_items must be non-negative, got {n_items}")
        if schedule is None:
            schedule = self.default_schedule
        if schedule not in ("static", "dynamic"):
            raise ValueError(f"schedule must be static/dynamic, got {schedule}")
        self._stats.n_loops += 1
        chunks = static_chunks(n_items, self.n_threads)
        # Loop-at-a-time execution re-streams the whole loop footprint: the
        # reuse working set is the full index range (cache-reuse model).
        penalty = self.cost_model.stream_penalty(
            n_items, work_ns_per_item, self.n_threads
        )
        if schedule == "dynamic":
            # Interleaved chunks defeat the hardware prefetcher's
            # contiguous-sweep advantage.
            penalty *= 1.02
        rate = work_ns_per_item * penalty
        slowest = 0
        for t, (lo, hi) in enumerate(chunks):
            if hi > lo:
                if self.execute_bodies and body is not None:
                    body(lo, hi)
                busy = int(round(rate * (hi - lo) / self._speeds[t]))
                self._stats.busy_ns[t] += busy
                slowest = max(slowest, busy)
        if schedule == "static":
            # Static chunks cannot rebalance around stragglers; the barrier
            # waits for the slowest thread plus the noise factor.
            elapsed = int(round(
                slowest * self.cost_model.omp_imbalance_factor(self.n_threads)
            ))
        else:
            # Dynamic self-balances (no straggler factor) but pays a shared
            # dequeue per chunk; libgomp default dynamic chunk is 1 item —
            # modeled at a saner auto-chunk of ~n/(8T) with a floor.
            if self.n_threads > 1 and n_items > 0:
                if self.dynamic_chunk is not None:
                    chunk_items = self.dynamic_chunk
                else:
                    chunk_items = max(64, n_items // (8 * self.n_threads))
                n_chunks = -(-n_items // chunk_items)
                dequeue = n_chunks * self.cost_model.omp_loop_setup_ns
                elapsed = slowest + dequeue // self.n_threads
            else:
                elapsed = slowest
        if self.n_threads > 1:
            elapsed += self.cost_model.omp_loop_setup_ns
            if not nowait:
                elapsed += self.cost_model.omp_barrier_ns(self.n_threads)
        self._region_elapsed += elapsed


def pair(n_threads, execute=False, **kwargs):
    return [
        cls(MachineConfig(), CostModel(), n_threads, execute_bodies=execute,
            **kwargs)
        for cls in (OmpRuntime, DirectLoopRuntime)
    ]


def snapshot(omp):
    st = omp.stats
    return (st.total_ns, st.parallel_ns, st.serial_ns, list(st.busy_ns),
            st.n_regions, st.n_loops, st.utilization())


def loop_shapes(n_threads):
    """Empty, fewer items than threads, and large loops, both barriers."""
    return [
        (n_items, work, nowait)
        for n_items in (0, max(n_threads - 1, 1), 5, 91_125)
        for work in (3, 41.5)
        for nowait in (False, True)
    ]


# (default_schedule, dynamic_chunk): static, auto-chunked dynamic, and
# schedule(dynamic, chunk).
SCHEDULES = [("static", None), ("dynamic", None), ("dynamic", 100)]


@pytest.mark.parametrize("n_threads", [1, 3, 24, 48])
@pytest.mark.parametrize("schedule,chunk", SCHEDULES)
def test_repeated_loops_match_direct_formula(n_threads, schedule, chunk):
    runtimes = pair(n_threads, default_schedule=schedule, dynamic_chunk=chunk)
    shapes = loop_shapes(n_threads)
    for rep in range(3):
        for omp in runtimes:
            with omp.parallel_region("r"):
                for n_items, work, nowait in shapes[rep:] + shapes[:rep]:
                    omp.loop(n_items, work_ns_per_item=work, nowait=nowait)
                # An explicit per-loop schedule overrides the default.
                omp.loop(4096, work_ns_per_item=7, schedule="dynamic")
                omp.loop(4096, work_ns_per_item=7, schedule="static")
            omp.single(1000)
        assert snapshot(runtimes[0]) == snapshot(runtimes[1])


@pytest.mark.parametrize("n_threads", [1, 3, 24])
def test_bodies_called_on_the_same_chunks(n_threads):
    calls = {}
    for omp in pair(n_threads, execute=True):
        seen = calls[type(omp)] = []
        for _ in range(2):
            with omp.parallel_region():
                for n_items in (0, 2, 1000):
                    omp.loop(n_items, lambda lo, hi: seen.append((lo, hi)),
                             work_ns_per_item=9)
    assert calls[OmpRuntime] == calls[DirectLoopRuntime]


class ThirdChunkFails(RuntimeError):
    pass


def busy_of(n_threads, n_items, work):
    """Per-thread busy ns of one loop, by the direct formula."""
    ref = DirectLoopRuntime(MachineConfig(), CostModel(), n_threads)
    with ref.parallel_region():
        ref.loop(n_items, work_ns_per_item=work)
    return ref.stats.busy_ns


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "memoized"])
@pytest.mark.parametrize("n_threads", [4, 48])
def test_raising_body_leaves_partial_busy_time(n_threads, warm):
    snaps = []
    for omp in pair(n_threads, execute=True):
        if warm:  # the failing loop's cost is already memoized
            with omp.parallel_region():
                omp.loop(10_000, lambda lo, hi: None, work_ns_per_item=12)
        calls = []

        def body(lo, hi):
            calls.append((lo, hi))
            if len(calls) == 3:
                raise ThirdChunkFails

        with pytest.raises(ThirdChunkFails):
            with omp.parallel_region():
                omp.loop(64, work_ns_per_item=5)
                omp.loop(10_000, body, work_ns_per_item=12)
        snaps.append(snapshot(omp))
    assert snaps[0] == snaps[1]
    # Exactly the first two chunks of the failing loop were charged.
    small = busy_of(n_threads, 64, 5)
    big = busy_of(n_threads, 10_000, 12)
    expected = [
        s + big[t] * warm + (big[t] if t < 2 else 0)
        for t, s in enumerate(small)
    ]
    assert snaps[0][3] == expected
