"""One leapfrog cycle for every LULESH program, and the one replay rule.

:class:`CycleProgram` runs what a cycle of every orchestration shares:
``TimeIncrement`` (execute mode) or the cycle counter of a timing-only
run, the fault injector's per-cycle hooks, and one gather-cache window
around the program's own iteration.  Its :meth:`~CycleProgram.run` is
the one multi-cycle loop, for the session and the process backend too.

:class:`GraphProgram` is the base of the two AMT programs.  It holds the
capture/replay rule :mod:`repro.amt.graph` states: capture the first
cycle's graph, replay it on later cycles, and drop it when the program's
structure key changes, when a checkpoint rollback rewinds the cycle
counter, or when the fault injector plans to strike the cycle.  A
template replays on the simulated pool, or on an attached replay engine
(the process backend) once the engine has lowered it.  A program
supplies :meth:`~GraphProgram._build` (build and run one cycle's graph)
and :meth:`~GraphProgram._finish` (use the cycle's final object, built
or replayed).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any

from repro.amt.graph import GraphStats, GraphTemplate
from repro.lulesh.kernels.constraints import time_increment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.kernel_graph import ProblemShape
    from repro.lulesh.costs import KernelCosts
    from repro.lulesh.domain import Domain

__all__ = ["CycleProgram", "GraphProgram"]


class CycleProgram:
    """A LULESH orchestration on runtime *rt*, cycle by cycle.

    *rt* is an :class:`~repro.amt.runtime.AmtRuntime` or an
    :class:`~repro.openmp.runtime.OmpRuntime`; both carry the
    ``fault_injector`` the cycle prologue talks to.  Without a *domain*
    the program runs timing-only and counts its own cycles.
    """

    def __init__(
        self,
        rt,
        shape: ProblemShape,
        costs: KernelCosts,
        domain: Domain | None,
    ) -> None:
        self.rt = rt
        self.shape = shape
        self.costs = costs
        self.domain = domain
        self._timing_cycle = 0  # cycle counter for timing-only runs

    def begin_job(self) -> None:
        """Restart the cycle counter for a fresh run on a warm program."""
        self._timing_cycle = 0

    def step(self) -> None:
        """Advance exactly one leapfrog cycle.

        The runtime's fault injector (if any) is told the upcoming cycle
        number and given its chance to corrupt state before the iteration
        runs.
        """
        d = self.domain
        if d is not None:
            time_increment(d)
            phase = d.workspace.phase()
            cycle = d.cycle
        else:
            self._timing_cycle += 1
            phase = nullcontext()
            cycle = self._timing_cycle
        injector = self.rt.fault_injector
        if injector is not None:
            injector.begin_cycle(cycle)
            if d is not None:
                injector.corrupt_fields(d)
        with phase:
            self._iterate(cycle, injector)

    def run(self, iterations: int, check=None, step=None) -> None:
        """Advance *iterations* cycles (or fewer if stoptime hits).

        *check*, if given, runs before each cycle and may raise to stop
        the run; *step* advances one cycle (default :meth:`step`).
        """
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        d = self.domain
        step = step or self.step
        for _ in range(iterations):
            if d is not None and d.time >= d.opts.stoptime:
                break
            if check is not None:
                check()
            step()

    def _iterate(self, cycle: int, injector) -> None:
        """Run cycle *cycle*'s iteration; *injector* may be ``None``."""
        raise NotImplementedError


class GraphProgram(CycleProgram):
    """A program whose cycle is one AMT graph, captured once and replayed.

    With ``replay_graph`` the first cycle's build is captured as a
    :class:`~repro.amt.graph.GraphTemplate` and later cycles re-fire it
    in place.  ``graph_stats`` counts captures, replays, memo hits,
    invalidations and the build-vs-re-arm time split of the simulated
    pool's cycles.

    ``engine`` is the replay engine an open
    :class:`~repro.parallel.backend.ParallelHpxBackend` attaches, or
    ``None``.  A cycle whose valid template the engine has ``lowered``
    runs as its ``replay(cycle, injector)``; any other cycle is announced
    as ``fall_back(cycle, reason)`` and runs on the simulated pool.  After
    every cycle the engine may ``lower`` the current template.
    """

    def __init__(
        self,
        rt,
        shape: ProblemShape,
        costs: KernelCosts,
        domain: Domain | None,
        replay_graph: bool,
    ) -> None:
        super().__init__(rt, shape, costs, domain)
        self.replay_graph = replay_graph
        self.graph_stats = GraphStats()
        self._template: GraphTemplate | None = None
        self._template_final: Any = None
        self._template_key: tuple | None = None
        self._last_cycle: int | None = None
        self.engine = None

    # --- what a program supplies ----------------------------------------------

    def _build(self) -> Any:
        """Build and run one cycle's graph; returns the cycle's final object."""
        raise NotImplementedError

    def _finish(self, final: Any) -> None:
        """Use the cycle's final object, whether built or replayed."""
        raise NotImplementedError

    def _graph_key(self) -> tuple:
        """Everything the graph's structure depends on (invalidation key).

        The default suits a program whose graph depends only on its
        constructor's arguments.
        """
        return ()

    # --- the capture/replay rule ----------------------------------------------

    def begin_job(self) -> None:
        """Rewind per-run bookkeeping for a fresh run on a warm program.

        Campaign executors (:mod:`repro.serve`) reuse one program across
        many jobs.  A new job restarts at cycle 1, which the rollback
        detector would misread as a checkpoint rewind and drop the captured
        template — the template reuse this method exists to preserve.  The
        kernel closures bind the domain *object*, so with the domain's
        fields restored in place the capture stays valid across jobs.
        ``graph_stats`` is zeroed in place (counter closures hold it); the
        template itself is deliberately kept.
        """
        super().begin_job()
        self._last_cycle = None
        self.graph_stats.reset()

    def _iterate(self, cycle: int, injector) -> None:
        self._finish(self._advance(cycle, injector))
        # The rollback detector counts a cycle once it has returned: a
        # cycle that raised is a first attempt again after a rollback.
        self._last_cycle = cycle
        if self.engine is not None:
            self.engine.lower(self._template)

    def _record(self, kind: str, **detail) -> None:
        flight = self.rt.flight_recorder
        if flight is not None:
            flight.record(kind, time_ns=self.rt.stats.total_ns, **detail)

    def _invalidate_template(self) -> None:
        """Drop the captured graph; the next cycle rebuilds (and recaptures)."""
        if self._template is not None:
            self._template = None
            self._template_final = None
            self.graph_stats.invalidations += 1
            self._record("graph_invalidate")

    def _advance(self, cycle: int, injector) -> Any:
        """Produce this cycle's final object: replay, or build (and capture).

        This is where every cycle's path is decided.  A captured template
        is invalidated when the graph structure key changes, when the
        cycle counter is non-monotone (a checkpoint rollback rewound the
        run — the captured graph would replay against the wrong per-cycle
        bindings), or when the fault injector plans to strike this cycle
        (fault draws happen at task *creation*, which a replay never
        performs, so the cycle must be rebuilt).  Fault cycles are also
        not captured: their graphs embed spent fire closures and
        stall-inflated costs.  A valid template replays on the engine if
        the engine has lowered it, else on the simulated pool.
        """
        rt = self.rt
        stats = self.graph_stats
        faulty = injector is not None and injector.plans_faults(cycle)
        rollback = self._last_cycle is not None and cycle <= self._last_cycle
        valid = self._template is not None and not (
            rollback or faulty or self._graph_key() != self._template_key
        )
        engine = self.engine
        if engine is not None:
            if valid and engine.lowered(self._template):
                engine.replay(cycle, injector)
                return self._template_final
            engine.fall_back(
                cycle,
                "rollback" if rollback else "fault-cycle" if faulty else "no-schedule",
            )
        if valid:
            try:
                stats.replay_ns += rt.replay_graph(self._template)
            except Exception:
                # A failure mid-replay leaves later segments un-rearmed;
                # the template is not safely reusable.
                self._invalidate_template()
                raise
            stats.replays += 1
            stats.memo_hits += rt.replayed_from_memo
            self._record("graph_replay", cycle=cycle)
            return self._template_final
        self._invalidate_template()  # a stale capture, if there is one
        capture = self.replay_graph and not faulty
        if capture:
            rt.begin_capture()
        t0 = time.perf_counter_ns()
        exec0 = rt.real_exec_ns
        try:
            final = self._build()
        except Exception:
            if capture:
                rt.abort_capture()
            raise
        # Construction cost only: blocking barriers inside a build (the
        # Fig. 5 rung, every naive loop) execute the pool, so subtract
        # pool-execution time.
        stats.build_ns += time.perf_counter_ns() - t0 - (rt.real_exec_ns - exec0)
        if capture:
            # Without a Domain every body is bookkeeping only: memo hits
            # may skip the bodies of settled segments.
            self._template = rt.end_capture(timing_only=self.domain is None)
            self._template_final = final
            self._template_key = self._graph_key()
            stats.captures += 1
            self._record(
                "graph_capture", cycle=cycle,
                n_segments=len(self._template.segments),
            )
        return final
