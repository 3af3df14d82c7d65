"""HPX-style hierarchical performance-counter registry.

HPX exposes runtime introspection through a hierarchical counter namespace
(`Heller et al.`, PAPERS.md) — ``/threads{locality#0/worker-thread#3}/
idle-rate`` — readable at runtime and printable per interval with
``--hpx:print-counter``.  The paper's whole Fig.-11 methodology is built on
reading ``/threads/idle-rate``; this module reproduces that interface on top
of the simulated runtimes.

Three pieces:

* :class:`Counter` and its two concrete kinds — :class:`GaugeCounter`
  (cumulative values: task counts, steals, spawn time) and
  :class:`RatioCounter` (per-interval delta ratios: idle-rate, reported in
  HPX's ``[0.01%]`` unit) — plus :class:`RatioGroup`, N ratios over one
  shared denominator read in one pass (the per-worker idle rates);
* :class:`CounterRegistry` — registration, ``*``-wildcard path discovery,
  and per-interval sampling.  Each interval is stored as one row: its
  time and every counter's value, in registration order.  The
  :class:`CounterSample` views (one per counter per interval) are built
  only when read, so a run that samples at every flush pays for the
  counter reads alone;
* the ``hpx:print-counter`` output surface —
  :meth:`CounterRegistry.format_print_counter` emits the artifact-style
  ``counter,sequence,timestamp,[s],value[,unit]`` CSV lines and
  :meth:`CounterRegistry.to_json_dict` the structured export behind the
  CLI's ``--counters out.json``.

Sampling boundaries are provided by the runtimes: ``AmtRuntime`` fires its
flush hooks once per executed segment (one leapfrog iteration for the
pre-created-graph variants) and ``OmpRuntime`` its iteration hooks; see
:mod:`repro.obs.sources` for the wiring.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "Counter",
    "GaugeCounter",
    "RatioCounter",
    "RatioGroup",
    "CounterSample",
    "CounterRegistry",
]


#: HPX's idle-rate unit is 0.01%: a ratio of 1 reads 10,000.
IDLE_RATE_SCALE = 10_000.0
IDLE_RATE_UNIT = "[0.01%]"


@dataclass(frozen=True)
class CounterSample:
    """One counter value observed at one sampling interval."""

    path: str
    interval: int  # 1-based sequence number, as HPX prints it
    time_ns: int  # simulated time at the sampling boundary
    value: float


class Counter:
    """Base counter: a hierarchical path, a unit, and a sampling rule."""

    def __init__(self, path: str, unit: str = "", description: str = "") -> None:
        if not path.startswith("/"):
            raise ValueError(f"counter path must start with '/', got {path!r}")
        self.path = path
        self.unit = unit
        self.description = description

    def sample_value(self) -> float:
        """The value to record for the interval ending now."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.path!r})"


class GaugeCounter(Counter):
    """Cumulative counter: each sample reads the running total.

    Matches HPX's default counter semantics (``/threads/count/cumulative``
    grows monotonically; the per-interval increment is the difference of
    consecutive samples).
    """

    def __init__(
        self,
        path: str,
        read: Callable[[], float],
        unit: str = "",
        description: str = "",
    ) -> None:
        super().__init__(path, unit, description)
        self._read = read

    def sample_value(self) -> float:
        return float(self._read())


class RatioCounter(Counter):
    """Per-interval ratio of two cumulative quantities.

    Each sample computes ``scale * Δnum / Δden`` over the interval since the
    previous sample (HPX's reset-on-read idle-rate semantics: the printed
    value describes *this* interval, not the whole run).  ``Δnum`` is
    clamped into ``[0, Δden]`` so rates stay in ``[0, scale]``; an empty
    interval (``Δden == 0``) samples 0.
    """

    def __init__(
        self,
        path: str,
        num: Callable[[], float],
        den: Callable[[], float],
        scale: float = IDLE_RATE_SCALE,
        unit: str = IDLE_RATE_UNIT,
        description: str = "",
    ) -> None:
        super().__init__(path, unit, description)
        self._num = num
        self._den = den
        self._scale = scale
        self._last_num = 0.0
        self._last_den = 0.0

    def sample_value(self) -> float:
        num, den = float(self._num()), float(self._den())
        d_num, d_den = num - self._last_num, den - self._last_den
        self._last_num, self._last_den = num, den
        if d_den <= 0:
            return 0.0
        d_num = min(max(d_num, 0.0), d_den)
        return self._scale * d_num / d_den


class _GroupMember(Counter):
    """One :class:`RatioGroup` ratio: its path, unit and description."""

    def sample_value(self) -> float:
        raise NotImplementedError(
            f"{self.path!r} is read with the other members of its "
            "RatioGroup; read its values from the registry's rows "
            "(last_values, series)"
        )


class RatioGroup:
    """N per-interval idle-rate ratios over one shared denominator.

    Member *k* samples what a :class:`RatioCounter` over ``nums()[k]`` and
    ``den()`` would — the same scale, unit and clamp, the same 0 for an
    empty interval — but one call of *nums* reads every numerator and
    *den* is read once, so a runtime's N per-worker idle rates cost one
    walk of its workers per sample.  Only :meth:`sample_values` reads the
    ``members``; a member's own ``sample_value`` raises.
    """

    def __init__(
        self,
        paths: list[str],
        nums: Callable[[], list[float]],
        den: Callable[[], float],
        descriptions: list[str],
    ) -> None:
        self.members = [
            _GroupMember(path, IDLE_RATE_UNIT, description)
            for path, description in zip(paths, descriptions, strict=True)
        ]
        self._nums = nums
        self._den = den
        self._last_nums = [0.0] * len(paths)
        self._last_den = 0.0

    def sample_values(self) -> list[float]:
        """Every member's value for the interval ending now, in order."""
        nums = [float(num) for num in self._nums()]
        den = float(self._den())
        last, d_den = self._last_nums, den - self._last_den
        self._last_nums, self._last_den = nums, den
        if d_den <= 0:
            return [0.0] * len(nums)
        return [
            IDLE_RATE_SCALE * min(max(num - prev, 0.0), d_den) / d_den
            for num, prev in zip(nums, last)
        ]


class CounterRegistry:
    """Registers counters and snapshots them at sampling boundaries."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._reads: list[Callable[[], float]] = []
        # (row index of a group's first member, its one read), in
        # registration order.
        self._group_reads: list[tuple[int, Callable[[], list[float]]]] = []
        # One row per interval: its time and, in registration order, the
        # values of the counters registered by then (a later counter has
        # no value in earlier rows).
        self._rows: list[tuple[int, list[float]]] = []

    # --- registration ------------------------------------------------------

    def register(self, counter: Counter) -> Counter:
        """Add *counter*; duplicate paths are an error."""
        self._check_new([counter.path])
        self._counters[counter.path] = counter
        self._reads.append(counter.sample_value)
        return counter

    def _check_new(self, paths: list[str]) -> None:
        for k, path in enumerate(paths):
            if path in self._counters or path in paths[:k]:
                raise ValueError(f"counter {path!r} already registered")

    def register_gauge(
        self,
        path: str,
        read: Callable[[], float],
        unit: str = "",
        description: str = "",
    ) -> Counter:
        """Shorthand for registering a :class:`GaugeCounter`."""
        return self.register(GaugeCounter(path, read, unit, description))

    def register_ratio(
        self,
        path: str,
        num: Callable[[], float],
        den: Callable[[], float],
        scale: float = IDLE_RATE_SCALE,
        unit: str = IDLE_RATE_UNIT,
        description: str = "",
    ) -> Counter:
        """Shorthand for registering a :class:`RatioCounter`."""
        return self.register(
            RatioCounter(path, num, den, scale, unit, description)
        )

    def register_ratio_group(
        self,
        paths: list[str],
        nums: Callable[[], list[float]],
        den: Callable[[], float],
        descriptions: list[str],
    ) -> RatioGroup:
        """Register a :class:`RatioGroup`, its members in *paths* order."""
        group = RatioGroup(paths, nums, den, descriptions)
        self._check_new(paths)
        self._group_reads.append((len(self._counters), group.sample_values))
        for member in group.members:
            self._counters[member.path] = member
        return group

    # --- discovery ---------------------------------------------------------

    def paths(self) -> list[str]:
        """All registered counter paths, sorted."""
        return sorted(self._counters)

    def expand(self, pattern: str) -> list[str]:
        """Expand a path or ``*`` wildcard into matching registered paths.

        ``/threads{worker-thread#*}/idle-rate`` matches every per-worker
        instance, as HPX's counter discovery does; an exact path matches
        itself.  Returns sorted matches (possibly empty).
        """
        if pattern in self._counters:
            return [pattern]
        return sorted(fnmatch.filter(self._counters, pattern))

    def counter(self, path: str) -> Counter:
        """Look up one counter by exact path."""
        try:
            return self._counters[path]
        except KeyError:
            raise KeyError(
                f"unknown counter {path!r}; registered: {self.paths()}"
            ) from None

    # --- sampling ----------------------------------------------------------

    def record(self, time_ns: int) -> None:
        """Read every counter for the interval ending at *time_ns*.

        Stores one row; the runtimes' sampling hooks call this.
        """
        row = [read() for read in self._reads]
        for at, read in self._group_reads:
            row[at:at] = read()
        self._rows.append((time_ns, row))

    def sample(self, time_ns: int) -> list[CounterSample]:
        """:meth:`record` one interval and return its samples."""
        self.record(time_ns)
        interval = len(self._rows)
        return [
            CounterSample(path, interval, time_ns, value)
            for path, value in zip(self._counters, self._rows[-1][1])
        ]

    @property
    def n_intervals(self) -> int:
        """Sampling intervals recorded so far."""
        return len(self._rows)

    @property
    def samples(self) -> list[CounterSample]:
        """All recorded samples, in sampling order."""
        return [
            CounterSample(path, interval, time_ns, value)
            for interval, (time_ns, values) in enumerate(self._rows, 1)
            for path, value in zip(self._counters, values)
        ]

    def last_values(self) -> dict[str, float]:
        """Each counter's sample in the last interval, without a new read.

        Reading a :class:`RatioCounter` again would measure the empty
        interval since its last sample, so a finished run's final values
        are its last recorded samples.
        """
        if not self._rows:
            return {}
        return dict(zip(self._counters, self._rows[-1][1]))

    def _column(self, path: str):
        """``(interval, time_ns, value)`` of each row holding *path*."""
        self.counter(path)  # raise on unknown path
        k = list(self._counters).index(path)
        return [
            (interval, time_ns, values[k])
            for interval, (time_ns, values) in enumerate(self._rows, 1)
            if k < len(values)
        ]

    def series(self, path: str) -> list[CounterSample]:
        """The recorded samples of one counter, in interval order."""
        return [CounterSample(path, *cell) for cell in self._column(path)]

    # --- output surfaces ---------------------------------------------------

    def format_print_counter(self, pattern: str) -> list[str]:
        """``hpx:print-counter``-style CSV lines for *pattern*'s samples.

        One line per counter instance per interval::

            /threads/idle-rate,1,0.001034,[s],423,[0.01%]

        i.e. ``counter,sequence-number,timestamp,[s],value[,unit]`` with the
        timestamp in (simulated) seconds.  Raises ``KeyError`` when the
        pattern matches no registered counter.
        """
        paths = self.expand(pattern)
        if not paths:
            raise KeyError(
                f"no counter matches {pattern!r}; registered: {self.paths()}"
            )
        lines = []
        for path in paths:
            unit = self._counters[path].unit
            for interval, time_ns, value in self._column(path):
                text = format(value, ".6g") if value % 1 else str(int(value))
                line = f"{path},{interval},{time_ns / 1e9:.6f},[s],{text}"
                if unit:
                    line += f",{unit}"
                lines.append(line)
        return lines

    def to_json_dict(self) -> dict:
        """Structured export (the CLI's ``--counters out.json`` payload)."""
        counters: dict[str, dict] = {}
        for path in self.paths():
            c = self._counters[path]
            counters[path] = {
                "unit": c.unit,
                "description": c.description,
                "samples": [
                    {"interval": interval, "time_ns": time_ns, "value": value}
                    for interval, time_ns, value in self._column(path)
                ],
            }
        return {
            "schema": "lulesh-hpx-counters/1",
            "n_intervals": len(self._rows),
            "counters": counters,
        }
