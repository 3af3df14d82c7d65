"""Host diagnostics recorded beside every run, and the host-speed reference.

On a shared host a slow run can mean a slow program or a busy machine.
These probes tell the two apart: a fixed pure-Python loop and a NumPy
stream triad timed before and after the workload, the ``/proc/stat`` steal
share and the load average over the run, and the CPU count.  They are not
metrics.  One reading does enter the metrics: :func:`reference_ns`, timed
between ops, scales the gated op times to a reference host speed.

The stream arrays are 16 MiB each.  That is far below four times a large
shared last-level cache, so the probe tracks host contention, not the
machine's sustainable memory bandwidth; the cache size is recorded next to
it.
"""

from __future__ import annotations

import os
import statistics
import time

__all__ = [
    "REFERENCE_NS",
    "HostProbe",
    "reference_ns",
    "tree_peak_rss_mb",
]

_LOOP_N = 200_000
_STREAM_DOUBLES = 2 * 1024 * 1024  # 16 MiB per array


def python_loop_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop, in ms."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        acc = 0
        for i in range(_LOOP_N):
            acc += i * i
        times.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(times)


#: Iterations of the reference loop, and the time it takes on the reference
#: host: the host speed that normalized times are expressed at.
REFERENCE_LOOP_N = 10_000
REFERENCE_NS = 500_000


def reference_ns() -> int:
    """Fastest of three runs of the reference loop, in ns.

    Taking the fastest discards runs an interrupt landed in; what is left
    tracks how fast this CPU executes interpreter code right now.
    """
    best = None
    for _ in range(3):
        t0 = time.perf_counter_ns()
        acc = 0
        for i in range(REFERENCE_LOOP_N):
            acc += i * i
        dt = time.perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best


def numpy_stream_gbps(repeats: int = 5) -> float:
    """Median bandwidth of the triad ``a = b + 3 c``, bytes computed."""
    import numpy as np

    b = np.ones(_STREAM_DOUBLES)
    c = np.ones(_STREAM_DOUBLES)
    a = np.empty(_STREAM_DOUBLES)
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        dt = time.perf_counter_ns() - t0
        rates.append(5 * 8 * _STREAM_DOUBLES / dt)  # 3 reads + 2 writes
    return statistics.median(rates)


def _cpu_times() -> tuple[int, int]:
    """(total ticks, steal ticks) from the first line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except OSError:
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return sum(fields[:8]), steal


def _loadavg() -> float | None:
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


def _llc_bytes() -> int | None:
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    try:
        entries = os.listdir(base)
    except OSError:
        return None
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "size"), encoding="ascii") as fh:
                text = fh.read().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024 * 1024}.get(text[-1:], 1)
        value = int(text.rstrip("KM")) * scale
        best = value if best is None else max(best, value)
    return best


class HostProbe:
    """Probe the host before and after a workload; :meth:`report` sums up."""

    def __init__(self) -> None:
        self.before: dict = {}
        self.after: dict = {}
        self._cpu0 = (0, 0)

    def start(self) -> None:
        self.before = {
            "python_loop_ms": python_loop_ms(),
            "numpy_stream_gbps": numpy_stream_gbps(),
            "loadavg_1m": _loadavg(),
        }
        self._cpu0 = _cpu_times()

    def stop(self) -> None:
        total1, steal1 = _cpu_times()
        total0, steal0 = self._cpu0
        self.after = {
            "python_loop_ms": python_loop_ms(),
            "numpy_stream_gbps": numpy_stream_gbps(),
            "loadavg_1m": _loadavg(),
            "steal_share": (
                (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0
            ),
        }

    def report(self) -> dict:
        try:
            affinity = len(os.sched_getaffinity(0))
        except AttributeError:
            affinity = None
        return {
            "host_cpus": os.cpu_count(),
            "usable_cpus": affinity,
            "llc_bytes": _llc_bytes(),
            "stream_array_bytes": 8 * _STREAM_DOUBLES,
            "before": self.before,
            "after": self.after,
        }


def _descendants(root: int) -> list[int]:
    """*root* and every live descendant, found through /proc."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="latin-1") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(parents.get(pid, ()))
    return out


def tree_peak_rss_mb(root: int | None = None) -> float:
    """Sum of the peak resident set (VmHWM) over a process and its tree."""
    total_kb = 0
    for pid in _descendants(root or os.getpid()):
        try:
            with open(f"/proc/{pid}/status", encoding="latin-1") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0
