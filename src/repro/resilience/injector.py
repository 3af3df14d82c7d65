"""Deterministic fault injection.

A fault is described by a compact spec string (the ``--inject-fault`` CLI
grammar)::

    target:pattern[:kind][@cycle]

* ``target`` — what to attack: ``task`` (a task body), ``comm`` (a
  :class:`~repro.dist.comm.PlaneExchanger` message), ``field`` (an
  evolving domain array), or ``worker`` (a real worker *process* of the
  process backend);
* ``pattern`` — what to match: a glob for ``task``, a message-tag glob
  for ``comm``, a field name (``e``, ``p``, ``xd``, …) for ``field``, a
  pool index or ``*`` for ``worker``.  A task pattern matches a task (or
  an OpenMP parallel region) when it globs its tag, or any LULESH 2.0
  function name on the call path of a kernel the task runs
  (:mod:`repro.lulesh.catalogue`): ``CalcQ*`` strikes every task running
  Q code, ``EvalEOS*`` every task running the EOS, on all three ports;
* ``kind`` — how to fail: ``raise`` (task throws :class:`InjectedFault`),
  ``stall`` (inflate the task's simulated cost — a hung worker),
  ``nan``/``inf`` (corrupt one element of a field), ``drop``/``dup``
  (suppress / double-send a message), ``kill``/``hang``/``garble`` (the
  worker process exits without replying / sleeps past the watchdog
  deadline / sends undecodable bytes — after executing its wave, so the
  supervisor's shadow-restore path is exercised).  Defaults per target:
  ``task`` → ``raise``, ``comm`` → ``drop``, ``field`` → ``nan``,
  ``worker`` → ``kill``;
* ``@cycle`` — the 1-based cycle to fire in; omitted, the injector draws
  one deterministically from its seeded :class:`~repro.util.rng.Lcg`.

Each spec carries one charge by default: after firing it is spent, so a
replayed task or a rolled-back cycle re-executes cleanly — modelling a
*transient* fault.  ``persistent=True`` (programmatic only) keeps firing.

Everything is deterministic under a fixed seed: armed cycles are drawn in
spec order at construction, and charge consumption happens in execution
order of the (deterministic) simulated schedule.
"""

from __future__ import annotations

import fnmatch
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.lulesh.catalogue import kernels_of
from repro.resilience.errors import FaultSpecError, InjectedFault
from repro.resilience.stats import ResilienceStats
from repro.util.rng import Lcg

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lulesh.domain import Domain
    from repro.simcore.pool import SimTask

__all__ = ["FaultSpec", "FaultInjector", "parse_fault_spec", "build_injector"]

_TARGETS = ("task", "comm", "field", "worker")
_KINDS_BY_TARGET = {
    "task": ("raise", "stall"),
    "comm": ("drop", "dup"),
    "field": ("nan", "inf"),
    "worker": ("kill", "hang", "garble"),
}
_DEFAULT_KIND = {
    "task": "raise",
    "comm": "drop",
    "field": "nan",
    "worker": "kill",
}

@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault: what to attack, how, and when."""

    target: str
    pattern: str
    kind: str
    cycle: int | None = None
    count: int = 1
    persistent: bool = False

    def __post_init__(self) -> None:
        if self.target not in _TARGETS:
            raise FaultSpecError(
                f"unknown fault target {self.target!r} "
                f"(expected one of {', '.join(_TARGETS)})"
            )
        if self.kind not in _KINDS_BY_TARGET[self.target]:
            raise FaultSpecError(
                f"kind {self.kind!r} is not valid for target "
                f"{self.target!r} (expected one of "
                f"{', '.join(_KINDS_BY_TARGET[self.target])})"
            )
        if self.cycle is not None and self.cycle < 1:
            raise FaultSpecError(f"cycle must be >= 1, got {self.cycle}")
        if self.count < 1:
            raise FaultSpecError(f"count must be >= 1, got {self.count}")
        if self.target == "worker" and self.pattern != "*":
            if not self.pattern.isdigit():
                raise FaultSpecError(
                    f"worker fault pattern must be a pool index or '*', "
                    f"got {self.pattern!r}"
                )


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse one ``target:pattern[:kind][@cycle]`` spec string."""
    body, at, cycle_part = text.partition("@")
    cycle: int | None = None
    if at:
        try:
            cycle = int(cycle_part)
        except ValueError:
            raise FaultSpecError(
                f"bad cycle {cycle_part!r} in fault spec {text!r}"
            ) from None
    parts = body.split(":")
    if len(parts) == 2:
        target, pattern = parts
        kind = _DEFAULT_KIND.get(target, "")
    elif len(parts) == 3:
        target, pattern, kind = parts
    else:
        raise FaultSpecError(
            f"bad fault spec {text!r}: expected target:pattern[:kind][@cycle]"
        )
    if not pattern:
        raise FaultSpecError(f"empty pattern in fault spec {text!r}")
    return FaultSpec(target=target, pattern=pattern, kind=kind, cycle=cycle)


def _task_matches(pattern: str, task) -> bool:
    """True if *pattern* globs *task*'s tag or a reference function name
    of a kernel it runs (its ``desc``)."""
    if fnmatch.fnmatchcase(task.tag, pattern):
        return True
    return any(
        fnmatch.fnmatchcase(name, pattern)
        for k in kernels_of(task.desc)
        for name in k.ref
    )


class _Armed:
    """A spec armed with its trigger cycle and remaining charges."""

    __slots__ = ("spec", "cycle", "remaining")

    def __init__(self, spec: FaultSpec, cycle: int) -> None:
        self.spec = spec
        self.cycle = cycle
        self.remaining = spec.count

    def live(self, current_cycle: int) -> bool:
        if not self.spec.persistent:
            if self.remaining <= 0 or self.cycle != current_cycle:
                return False
        return True

    def consume(self) -> None:
        if not self.spec.persistent:
            self.remaining -= 1


class FaultInjector:
    """Seeded, deterministic fault source shared by runtime/comm/driver.

    The runtime consults :meth:`draw_task` at task creation, the
    :class:`~repro.dist.comm.PlaneExchanger` consults :meth:`draw_comm` at
    every post, and the driver calls :meth:`begin_cycle` before building
    each iteration's graph and :meth:`corrupt_fields` right after (field
    faults strike state, not tasks).

    Args:
        specs: parsed specs or raw spec strings.
        seed: seed for the armed-cycle draws (``repro.util.rng.Lcg``).
        stats: shared accounting (a fresh one is made if omitted).
        stall_ns: simulated-time penalty of one ``stall`` fault.
    """

    #: Default window (cycles 1..N) for specs without an explicit ``@cycle``.
    DEFAULT_CYCLE_WINDOW = 3

    def __init__(
        self,
        specs: Iterable[FaultSpec | str],
        seed: int = 0,
        stats: ResilienceStats | None = None,
        stall_ns: int = 2_000_000,
    ) -> None:
        self.stats = stats if stats is not None else ResilienceStats()
        self.stall_ns = stall_ns
        self._rng = Lcg(seed)
        self._armed: list[_Armed] = []
        for spec in specs:
            if isinstance(spec, str):
                spec = parse_fault_spec(spec)
            cycle = spec.cycle
            if cycle is None:
                # Drawn in spec order at construction: deterministic.
                cycle = 1 + self._rng.next_in_range(self.DEFAULT_CYCLE_WINDOW)
            self._armed.append(_Armed(spec, cycle))
        self._cycle = 0

    @property
    def armed_cycles(self) -> tuple[int, ...]:
        """The trigger cycle of every spec, in spec order (for tests)."""
        return tuple(a.cycle for a in self._armed)

    def begin_cycle(self, cycle: int) -> None:
        """Tell the injector which 1-based cycle is about to execute."""
        self._cycle = cycle

    def plans_faults(self, cycle: int) -> bool:
        """True if any armed spec could still strike in *cycle*.

        Consulted by the graph capture/replay machinery: fault draws happen
        at task *creation* (``draw_task``), which a replayed graph never
        performs, so a cycle the injector plans to strike must rebuild its
        graph — and the rebuilt graph must not be captured (it embeds fire
        closures and stall-inflated costs).  Persistent specs plan faults
        for every cycle; one-shot specs only for their armed cycle while
        charges remain.  ``worker`` faults are excluded: they strike the
        process backend's real dispatch path (``draw_worker``), not graph
        construction — forcing a serial fallback for them would mean they
        never strike at all.
        """
        for armed in self._armed:
            if armed.spec.target == "worker":
                continue
            if armed.spec.persistent:
                return True
            if armed.remaining > 0 and armed.cycle == cycle:
                return True
        return False

    # --- task faults --------------------------------------------------------

    def draw_task(self, task: "SimTask") -> Callable[[], None] | None:
        """Consulted by the runtime when *task* is created.

        ``stall`` faults are applied immediately (the task's simulated cost
        is inflated; its charge is spent at creation).  ``raise`` faults
        return a ``fire()`` callable the runtime invokes at the start of
        every execution attempt; the charge is spent at the first actual
        raise, so a retry or a rolled-back re-run executes cleanly.
        """
        fire: Callable[[], None] | None = None
        for armed in self._armed:
            if armed.spec.target != "task" or not armed.live(self._cycle):
                continue
            if not _task_matches(armed.spec.pattern, task):
                continue
            if armed.spec.kind == "stall":
                armed.consume()
                task.cost_ns += self.stall_ns
                self.stats.injected_faults += 1
                self.stats.record(
                    "stall", tag=task.tag, cycle=self._cycle,
                    stall_ns=self.stall_ns,
                )
            elif fire is None:
                fire = self._make_fire(armed, task.tag)
        return fire

    def _make_fire(self, armed: _Armed, tag: str) -> Callable[[], None]:
        cycle = self._cycle

        def fire() -> None:
            # Charges are spent at the first actual raise, so a retry (or a
            # rolled-back re-run) of the same task executes cleanly.
            if armed.remaining <= 0 and not armed.spec.persistent:
                return
            armed.consume()
            self.stats.injected_faults += 1
            self.stats.record("raise", tag=tag, cycle=cycle)
            raise InjectedFault(
                f"injected fault in task {tag!r} at cycle {cycle}"
            )

        return fire

    # --- worker-process faults ----------------------------------------------

    def draw_worker(self, worker: int) -> str | None:
        """Consulted by the process backend once per worker per cycle.

        Returns the fault kind (``kill``/``hang``/``garble``) the worker
        must act out this cycle, or ``None``.  The charge is spent at the
        draw, so the supervisor's retry dispatch of the same wave reaches
        the respawned worker clean — transient-fault semantics, same as
        every other target.
        """
        for armed in self._armed:
            if armed.spec.target != "worker" or not armed.live(self._cycle):
                continue
            pat = armed.spec.pattern
            if pat != "*" and int(pat) != worker:
                continue
            armed.consume()
            self.stats.injected_faults += 1
            self.stats.record(
                armed.spec.kind, worker=worker, cycle=self._cycle
            )
            return armed.spec.kind
        return None

    # --- comm faults --------------------------------------------------------

    def draw_comm(self, src: int, dst: int, tag: str) -> str | None:
        """Consulted by ``PlaneExchanger.post``; returns ``drop``/``dup``/None."""
        for armed in self._armed:
            if armed.spec.target != "comm" or not armed.live(self._cycle):
                continue
            if not fnmatch.fnmatchcase(tag, armed.spec.pattern):
                continue
            armed.consume()
            if armed.spec.kind == "drop":
                self.stats.comm_dropped += 1
            else:
                self.stats.comm_duplicated += 1
            self.stats.injected_faults += 1
            self.stats.record(
                armed.spec.kind, src=src, dst=dst, tag=tag, cycle=self._cycle
            )
            return armed.spec.kind
        return None

    # --- field corruption ---------------------------------------------------

    def corrupt_fields(self, domain: "Domain") -> None:
        """Strike armed field faults for the current cycle against *domain*.

        Each strike writes one NaN/Inf into a deterministically chosen
        element of the named field — silent corruption that only the
        recovery manager's state scan will notice.
        """
        for armed in self._armed:
            if armed.spec.target != "field" or not armed.live(self._cycle):
                continue
            arr = getattr(domain, armed.spec.pattern, None)
            if arr is None:
                raise FaultSpecError(
                    f"field fault names unknown domain field "
                    f"{armed.spec.pattern!r}"
                )
            armed.consume()
            idx = self._rng.next_in_range(arr.size)
            arr.flat[idx] = math.nan if armed.spec.kind == "nan" else math.inf
            self.stats.injected_faults += 1
            self.stats.record(
                armed.spec.kind, field=armed.spec.pattern, index=idx,
                cycle=self._cycle,
            )


def build_injector(
    specs: Sequence[str],
    seed: int = 0,
    stats: ResilienceStats | None = None,
) -> FaultInjector | None:
    """Parse CLI spec strings into an injector; ``None`` if no specs."""
    if not specs:
        return None
    return FaultInjector([parse_fault_spec(s) for s in specs], seed=seed,
                         stats=stats)
