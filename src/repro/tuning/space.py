"""Typed search space over the reproduction's tunable knobs.

The paper tunes three kinds of knob by hand: the per-phase partition sizes
(Table I, found by sweeping), the optimization ladder
(:class:`~repro.core.hpx_lulesh.HpxVariant` — which rungs to enable), and
the scheduler discipline (§V: HPX's priority local scheduling policy,
priorities unused).  Khatami et al. (PAPERS.md) argue such granularity
choices belong to the runtime, not a static table; this module makes the
whole decision surface explicit so the strategies in
:mod:`repro.tuning.strategies` can search it mechanically.

Every knob is an *ordered finite ladder* (:class:`Knob`): partition sizes
are powers of two, booleans are ``(False, True)``, the scheduler policy is
a named ladder.  Ordering matters — coordinate descent moves to *adjacent*
ladder values, which for partition sizes is exactly the paper's
double/halve experimentation.

A :class:`TuningConfig` is an immutable, hashable assignment of every knob;
its :meth:`~TuningConfig.key` is the canonical JSON the memo cache and the
tuning database address contents by.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.tuning.errors import TuningError
from repro.util.rng import Lcg

__all__ = [
    "Knob",
    "TuningConfig",
    "SearchSpace",
    "PARTITION_LADDER",
    "POLICY_LADDER",
]

#: The partition-size ladder every partition knob draws from — the paper's
#: Table I sweep range (powers of two around the published 2048-8192 band).
PARTITION_LADDER = (128, 256, 512, 1024, 2048, 4096, 8192, 16384)

#: Named scheduler disciplines (resolved by ``repro.tuning.evaluate``).
POLICY_LADDER = (
    "hpx-default", "fifo-local", "lifo-steal", "steal-half", "priorities",
)


@dataclass(frozen=True)
class Knob:
    """One tunable dimension: an ordered ladder of admissible values.

    Attributes:
        name: knob identifier (stable — it keys configs and the database).
        values: admissible values in ladder order (coordinate moves step to
            adjacent entries).
        default: the untuned value (the paper's choice); must be on the
            ladder.
    """

    name: str
    values: tuple
    default: object

    def __post_init__(self) -> None:
        if not self.values:
            raise TuningError(f"knob {self.name!r} has an empty ladder")
        if len(set(self.values)) != len(self.values):
            raise TuningError(f"knob {self.name!r} has duplicate values")
        if self.default not in self.values:
            raise TuningError(
                f"knob {self.name!r}: default {self.default!r} not on the "
                f"ladder {self.values!r}"
            )

    def index_of(self, value: object) -> int:
        """Ladder position of *value* (raises for off-ladder values)."""
        try:
            return self.values.index(value)
        except ValueError:
            raise TuningError(
                f"knob {self.name!r}: value {value!r} not on the ladder"
            ) from None


@dataclass(frozen=True)
class TuningConfig:
    """An immutable assignment of every knob in a space.

    Stored as a sorted tuple of ``(name, value)`` pairs so equal
    assignments hash equally regardless of construction order.
    """

    items: tuple[tuple[str, object], ...]

    @classmethod
    def from_mapping(cls, values: Mapping[str, object]) -> "TuningConfig":
        return cls(tuple(sorted(values.items())))

    def __getitem__(self, name: str) -> object:
        for k, v in self.items:
            if k == name:
                return v
        raise KeyError(name)

    def get(self, name: str, default: object = None) -> object:
        """The value assigned to *name*, or *default* if unassigned."""
        try:
            return self[name]
        except KeyError:
            return default

    def replace(self, name: str, value: object) -> "TuningConfig":
        """A new config with *name* set to *value* (name must exist)."""
        self[name]  # raise KeyError for unknown knobs
        return TuningConfig(
            tuple((k, value if k == name else v) for k, v in self.items)
        )

    def as_dict(self) -> dict[str, object]:
        """Plain ``{knob: value}`` mapping (JSON-able for persistence)."""
        return dict(self.items)

    def key(self) -> str:
        """Canonical JSON — the content-address of this assignment."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def label(self) -> str:
        """Compact human-readable form for trial logs and report tables."""
        return ",".join(f"{k}={v}" for k, v in self.items)


@dataclass(frozen=True)
class SearchSpace:
    """An ordered collection of knobs defining the full decision surface."""

    knobs: tuple[Knob, ...]

    _by_name: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        by_name = {k.name: k for k in self.knobs}
        if len(by_name) != len(self.knobs):
            raise TuningError("duplicate knob names in search space")
        object.__setattr__(self, "_by_name", by_name)

    def knob(self, name: str) -> Knob:
        """The knob named *name* (raises :class:`TuningError` if unknown)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise TuningError(f"unknown knob {name!r}") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(k.name for k in self.knobs)

    @property
    def size(self) -> int:
        """Number of points in the full grid."""
        n = 1
        for k in self.knobs:
            n *= len(k.values)
        return n

    def default_config(self) -> TuningConfig:
        """The untuned starting point (every knob at its default)."""
        return TuningConfig.from_mapping(
            {k.name: k.default for k in self.knobs}
        )

    def validate(self, config: TuningConfig) -> None:
        """Reject configs with missing, extra, or off-ladder assignments."""
        assigned = config.as_dict()
        if set(assigned) != set(self.names):
            raise TuningError(
                f"config knobs {sorted(assigned)} do not match space knobs "
                f"{sorted(self.names)}"
            )
        for k in self.knobs:
            k.index_of(assigned[k.name])

    def grid(self) -> Iterator[TuningConfig]:
        """Every config, in deterministic odometer order (last knob fastest)."""

        def rec(i: int, acc: dict) -> Iterator[TuningConfig]:
            if i == len(self.knobs):
                yield TuningConfig.from_mapping(acc)
                return
            k = self.knobs[i]
            for v in k.values:
                acc[k.name] = v
                yield from rec(i + 1, acc)
            del acc[k.name]

        yield from rec(0, {})

    def neighbors(self, config: TuningConfig) -> list[TuningConfig]:
        """Single-knob ladder steps from *config*, in knob order (down, up).

        The deterministic move set of coordinate descent — for a partition
        knob these are exactly the halve/double probes of the paper's
        Table I experimentation.
        """
        out = []
        for k in self.knobs:
            i = k.index_of(config[k.name])
            if i > 0:
                out.append(config.replace(k.name, k.values[i - 1]))
            if i + 1 < len(k.values):
                out.append(config.replace(k.name, k.values[i + 1]))
        return out

    def random_config(self, rng: Lcg) -> TuningConfig:
        """A uniform random grid point from the deterministic *rng* stream."""
        return TuningConfig.from_mapping(
            {
                k.name: k.values[rng.next_in_range(len(k.values))]
                for k in self.knobs
            }
        )

    # --- canonical spaces -----------------------------------------------------

    @classmethod
    def hpx_partitions(
        cls,
        nx: int,
        ladder: tuple[int, ...] = PARTITION_LADDER,
    ) -> "SearchSpace":
        """The Table I surface only: the two per-phase partition sizes.

        Defaults sit at the published Table I values for *nx* so every
        strategy starts from (and must beat) the paper's calibration.
        """
        from repro.core.partitioning import table1_partition_sizes

        nodal, elems = table1_partition_sizes(nx)
        return cls((
            Knob("nodal_partition", ladder,
                 nodal if nodal in ladder else ladder[-1]),
            Knob("elements_partition", ladder,
                 elems if elems in ladder else ladder[-1]),
        ))

    @classmethod
    def hpx_full(
        cls,
        nx: int,
        ladder: tuple[int, ...] = PARTITION_LADDER,
    ) -> "SearchSpace":
        """Partitions + variant bits + policy + balance + execution backend.

        ``backend``/``workers`` select the process execution backend
        (:mod:`repro.parallel`); evaluators score process configs by the
        simulated run (identical task graph, identical makespan) and skip
        them when the host can't support real worker processes.
        """
        base = cls.hpx_partitions(nx, ladder)
        return cls(base.knobs + (
            Knob("combine_loops", (False, True), True),
            Knob("parallel_chains", (False, True), True),
            Knob("prioritize_expensive_regions", (False, True), False),
            Knob("balanced_split", (False, True), False),
            Knob("replay_graph", (False, True), True),
            Knob("policy", POLICY_LADDER, "hpx-default"),
            Knob("backend", ("sim", "process"), "sim"),
            Knob("workers", (1, 2, 4), 2),
        ))

    @classmethod
    def omp_baseline(cls) -> "SearchSpace":
        """The OpenMP reference's schedule/chunking surface."""
        return cls((
            Knob("omp_schedule", ("static", "dynamic"), "static"),
            Knob("omp_dynamic_chunk", (64, 256, 1024, 4096), 256),
        ))
