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
  HPX's ``[0.01%]`` unit);
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
:mod:`repro.perf.sources` for the wiring.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "Counter",
    "GaugeCounter",
    "RatioCounter",
    "CounterSample",
    "CounterRegistry",
]


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
        scale: float = 10_000.0,  # HPX idle-rate unit: 0.01%
        unit: str = "[0.01%]",
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


class CounterRegistry:
    """Registers counters and snapshots them at sampling boundaries."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._reads: list[Callable[[], float]] = []
        # One row per interval: its time and, in registration order, the
        # values of the counters registered by then (a later counter has
        # no value in earlier rows).
        self._rows: list[tuple[int, list[float]]] = []

    # --- registration ------------------------------------------------------

    def register(self, counter: Counter) -> Counter:
        """Add *counter*; duplicate paths are an error."""
        if counter.path in self._counters:
            raise ValueError(f"counter {counter.path!r} already registered")
        self._counters[counter.path] = counter
        self._reads.append(counter.sample_value)
        return counter

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
        scale: float = 10_000.0,
        unit: str = "[0.01%]",
        description: str = "",
    ) -> Counter:
        """Shorthand for registering a :class:`RatioCounter`."""
        return self.register(
            RatioCounter(path, num, den, scale, unit, description)
        )

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
        self._rows.append((time_ns, [read() for read in self._reads]))

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
