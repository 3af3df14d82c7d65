"""Task-based LULESH on the HPX-like runtime — the paper's contribution.

One leapfrog iteration is pre-created as a single task graph (§IV: "we
pre-create *all* tasks for one iteration of the leapfrog algorithm at
once"), built from four ingredients, each switchable for the ablation bench
via :class:`HpxVariant`:

1. **Manual partitioning** (Fig. 5): every kernel loop is split into tasks
   of ``P`` elements/nodes, ``P`` from Table I
   (:mod:`repro.core.partitioning`).
2. **Continuation chains** (Fig. 6): consecutive kernels with only
   per-item dependencies are chained per partition with ``future.then``;
   global ``when_all`` barriers remain only at the seven points where
   dependencies cross partitions (element→node transitions, symmetry-plane
   BCs, face-neighbour reads in monotonic Q, region↔partition mismatches,
   and the final constraint reduction).
3. **Loop combining** (Fig. 7): consecutive kernels in a chain are merged
   into one task — the loops stay separate *inside* the task, preserving
   LULESH's computational structure.
4. **Independent chains** (Fig. 8): the stress-force and hourglass-force
   chains run concurrently, as do the per-region EOS chains (which are
   further partitioned — "the number of tasks in our implementation remains
   similar, as we use a fixed partitioning size", §V-A).

Temporaries are task-local by default (the jemalloc/data-locality trick);
the allocator model charges the alternative global-scratch strategy with
extra allocation latency and memory-traffic penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.amt.future import Future
from repro.amt.runtime import AmtRuntime
from repro.core.kernel_graph import ProblemShape
from repro.core.partitioning import partition_ranges
from repro.core.program import GraphProgram
from repro.lulesh.catalogue import Kernel, TaskSpec, lookup
from repro.lulesh.costs import KernelCosts
from repro.lulesh.domain import Domain
from repro.lulesh.kernels.constraints import reduce_time_constraints
from repro.simcore.allocator import AllocatorModel

__all__ = ["HpxVariant", "HpxLuleshProgram"]

_SYNC = TaskSpec("sync")
_BC = TaskSpec("bc")
_REDUCE = TaskSpec("reduce")


@dataclass(frozen=True)
class HpxVariant:
    """Which of the paper's optimizations are enabled (ablation knobs)."""

    chain_kernels: bool = True  # Fig. 6 (False => Fig. 5 barriers everywhere)
    combine_loops: bool = True  # Fig. 7
    parallel_chains: bool = True  # Fig. 8
    task_local_temporaries: bool = True  # jemalloc / data-locality trick
    # Beyond the paper: give the expensive EOS regions (rep >= 10) high
    # scheduler priority.  The paper leaves priorities unused (§V); the
    # scheduler-policy ablation tests whether they would have helped.
    prioritize_expensive_regions: bool = False

    @classmethod
    def full(cls) -> "HpxVariant":
        """The paper's final implementation."""
        return cls()

    @classmethod
    def fig5(cls) -> "HpxVariant":
        """Manual partitioning only, barrier after every kernel."""
        return cls(chain_kernels=False, combine_loops=False, parallel_chains=False)

    @classmethod
    def fig6(cls) -> "HpxVariant":
        """+ continuation chains."""
        return cls(chain_kernels=True, combine_loops=False, parallel_chains=False)

    @classmethod
    def fig7(cls) -> "HpxVariant":
        """+ combined loops."""
        return cls(chain_kernels=True, combine_loops=True, parallel_chains=False)

    @classmethod
    def named(cls, name: str) -> "HpxVariant":
        """The ladder rung called *name*: ``full``, ``fig5``, ``fig6`` or ``fig7``."""
        if name not in ("full", "fig5", "fig6", "fig7"):
            raise ValueError(f"unknown HPX variant {name!r}")
        return getattr(cls, name)()

    def label(self) -> str:
        """Human-readable rung name for ablation tables."""
        if not self.chain_kernels:
            return "partition+barriers (Fig.5)"
        if not self.combine_loops:
            return "+chains (Fig.6)"
        if not self.parallel_chains:
            return "+combined (Fig.7)"
        return "full (Fig.8)"


class HpxLuleshProgram(GraphProgram):
    """Builds and runs the per-iteration task graph.

    A task failure surfaces from :meth:`step` with its original type
    wrapped in the barrier's :class:`~repro.amt.errors.TaskGroupError`
    naming the failed partitions.
    """

    #: Kernels of each chained phase, in chain order; a phase's name is the
    #: label its tasks' tags start with.  ``region`` is the per-region chain.
    PHASES = {
        "stress": ("init_stress", "integrate_stress"),
        "hg": ("hg_control", "fb_hourglass"),
        "node": ("zero_forces", "sum_forces", "acceleration"),
        "velpos": ("velocity", "position"),
        "kin": ("kinematics", "strain_rates", "monoq_gradients"),
        "prologue": ("material_prologue", "qstop_check", "update_volumes"),
        "region": ("monoq_region", "eos"),
    }

    def __init__(
        self,
        rt: AmtRuntime,
        shape: ProblemShape,
        costs: KernelCosts,
        nodal_partition: int,
        elements_partition: int,
        domain: Domain | None = None,
        variant: HpxVariant = HpxVariant.full(),
        balanced_partitions: bool = False,
        replay_graph: bool = True,
    ) -> None:
        super().__init__(rt, shape, costs, domain, replay_graph)
        self.nodal_partition = nodal_partition
        self.elements_partition = elements_partition
        self.variant = variant
        self.allocator = AllocatorModel(
            rt.cost_model, task_local=variant.task_local_temporaries
        )
        self.balanced_partitions = balanced_partitions
        self.barriers_per_iteration = 0
        if domain is not None:
            domain.configure_workspace(variant.task_local_temporaries)
        # Catalogue kernels, looked up once (an unknown name raises here).
        # Their bodies read per-cycle state (``domain.deltatime``) at
        # execution time, which is what makes a captured graph replayable
        # across cycles.
        self._k = {phase: lookup(names) for phase, names in self.PHASES.items()}

    def _ranges(self, n_items: int, partition_size: int):
        """Partition layout for one phase (honours the balanced-split knob)."""
        return partition_ranges(
            n_items, partition_size, balanced=self.balanced_partitions
        )

    # --- task costs and bodies -------------------------------------------------

    def _task_cost(
        self,
        kernels: Sequence[Kernel],
        desc: TaskSpec,
        reuse_items: int | None = None,
    ) -> int:
        """Simulated cost of running *kernels* over ``desc``'s range in one task.

        ``reuse_items`` is the cache-reuse working set: the partition size
        for chained tasks (data stays resident between consecutive kernels),
        or the whole phase domain when every kernel is followed by a global
        barrier (Fig. 5 semantics — same streaming behaviour as OpenMP).
        EOS work scales with ``desc.rep``; its working set does not (the
        repetitions re-read the same data).
        """
        n = desc.hi - desc.lo
        if reuse_items is None:
            reuse_items = n
        work = 0
        for k in kernels:
            rate = ws_rate = k.rate(self.costs)
            if k.name == "eos":
                rate = ws_rate * desc.rep
            penalty = self.rt.cost_model.stream_penalty(
                reuse_items, ws_rate, self.rt.n_workers
            )
            work += int(round(rate * n * penalty))
        work = self.allocator.scaled_work_ns(work)
        alloc = 0
        for k in kernels:
            if k.temps:
                alloc += self.allocator.charge_temporary(k.temps * n * 8)
        return work + alloc

    def _task_body(
        self, kernels: Sequence[Kernel], desc: TaskSpec
    ) -> Callable[[], None] | None:
        """Run *kernels* over ``desc``'s range; ``None`` in timing-only mode."""
        d = self.domain
        if d is None:
            return None
        bodies = [k.body for k in kernels]
        lo, hi, r, rep = desc.lo, desc.hi, desc.region, desc.rep

        def run_kernels() -> None:
            for b in bodies:
                b(d, lo, hi, r, rep)

        return run_kernels

    # --- chain construction ---------------------------------------------------

    def _chain(
        self,
        kernels: Sequence[Kernel],
        lo: int,
        hi: int,
        depends: Sequence[Future],
        label: str,
        reuse_items: int | None = None,
        priority: int = 0,
        region: int = -1,
        rep: int = 0,
    ) -> Future:
        """Build one partition's task chain over *kernels*.

        With ``combine_loops`` all kernels become one task; otherwise one
        task per kernel, linked by continuations.  A ``region >= 0`` chain
        runs over that region's element list.
        """
        kind = "kernels" if region < 0 else "region"
        if self.variant.combine_loops:
            groups = [kernels]
        else:
            groups = [(k,) for k in kernels]
        fut: Future | None = None
        for group in groups:
            names = tuple(k.name for k in group)
            desc = TaskSpec(
                kind, names, lo, hi, region, rep if "eos" in names else 0
            )
            cost = self._task_cost(group, desc, reuse_items=reuse_items)
            body = self._task_body(group, desc)
            # A combined task may be replayed only if every member loop is.
            idem = all(k.idempotent for k in group)
            if fut is None:
                fut = self.rt.async_(
                    body or _noop, cost_ns=cost, tag=desc.tag(label),
                    depends=depends, priority=priority, idempotent=idem,
                    desc=desc,
                )
            else:
                fut = self.rt.continuation(
                    fut, _run_after(body), cost_ns=cost, tag=desc.tag(label),
                    priority=priority, idempotent=idem, desc=desc,
                )
        assert fut is not None
        return fut

    def _sync(self, futures: Sequence[Future], tag: str) -> tuple[Future, ...]:
        """One counted barrier over *futures*; returns the next dependency.

        The chained rungs add a ``when_all`` node and hand it on.  The
        Fig. 5 rung blocks in ``wait_all`` while the graph is being built,
        so what follows depends on nothing.
        """
        self.barriers_per_iteration += 1
        if self.variant.chain_kernels:
            return (self.rt.when_all(futures, tag=tag, desc=_SYNC),)
        self.rt.wait_all(futures)
        return ()

    def _phase(
        self,
        kernels: Sequence[Kernel],
        n: int,
        p: int,
        depends: Sequence[Future],
        label: str,
        tag: str,
    ) -> tuple[Future, ...]:
        """One chain over *kernels* per partition of ``[0, n)``, then a barrier.

        On the Fig. 5 rung a barrier follows every phase, so the cache-reuse
        working set is the whole phase (the same streaming as OpenMP).
        """
        reuse = None if self.variant.chain_kernels else n
        finals = [
            self._chain(kernels, lo, hi, depends, label, reuse_items=reuse)
            for lo, hi in self._ranges(n, p)
        ]
        return self._sync(finals, tag)

    def _kernel_phases(
        self, name: str, n: int, p: int, depends: Sequence[Future], tag: str
    ) -> tuple[Future, ...]:
        """Phase *name*; on the Fig. 5 rung each kernel is a phase of its own."""
        if self.variant.chain_kernels:
            return self._phase(self._k[name], n, p, depends, name, tag)
        for kern in self._k[name]:
            depends = self._phase((kern,), n, p, depends, "k", kern.name)
        return depends

    # --- one iteration -----------------------------------------------------------

    def build_iteration(self) -> Future:
        """Pre-create the full task graph for one leapfrog iteration.

        Returns the iteration-final future (the constraint reduction).  With
        ``chain_kernels=False`` this *executes* blocking barriers along the
        way (Fig. 5 semantics) and the returned future is already complete
        after the final flush.
        """
        self.barriers_per_iteration = 0
        shape = self.shape
        ne, nn = shape.num_elem, shape.num_node
        pn = self.nodal_partition
        pe = self.elements_partition
        chain = self.variant.chain_kernels
        parallel = self.variant.parallel_chains
        k = self._k

        # ---- Phase 1: element force chains -> B1 ---------------------------------
        if chain:
            force_finals: list[Future] = []
            for lo, hi in self._ranges(ne, pn):
                f_stress = self._chain(k["stress"], lo, hi, (), "stress")
                hg_dep = () if parallel else (f_stress,)
                f_hg = self._chain(k["hg"], lo, hi, hg_dep, "hg")
                force_finals += [f_stress, f_hg]
            dep = self._sync(force_finals, "B1:forces")
        else:
            # Fig. 5 creates the force tasks kernel by kernel.
            for kern in k["stress"] + k["hg"]:
                dep = self._phase((kern,), ne, pn, (), "k", kern.name)

        # ---- Phase 2: node sum/accel -> B2 -> BC -> vel/pos -> B4 -----------------
        dep = self._kernel_phases("node", nn, pn, dep, "B2:accel")
        (bc_kernel,) = _BC.kernels
        bc_cost = int(round(3 * bc_kernel.rate(self.costs)
                            * shape.num_symm_nodes))
        bc_body = self._task_body((bc_kernel,), _BC)
        if chain:
            (b2,) = dep
            bc = self.rt.continuation(
                b2, _run_after(bc_body), cost_ns=bc_cost, tag=_BC.tag(),
                desc=_BC,
            )
            dep = (bc,)
        else:
            bc = self.rt.async_(
                bc_body or _noop, cost_ns=bc_cost, tag=_BC.tag(), desc=_BC,
            )
            dep = self._sync([bc], "bc")
        dep = self._kernel_phases("velpos", nn, pn, dep, "B4:positions")

        # ---- Phase 3: kinematics/gradients chains -> B5 ------------------------------
        dep = self._kernel_phases("kin", ne, pe, dep, "B5:gradients")

        # ---- Phase 4: prologue/update_volumes + per-region chains -> B6 --------------
        # Region EOS gathers cross partition boundaries (region element lists
        # are scattered), so the region chains wait on all prologue
        # partitions via one barrier.
        dep = self._phase(k["prologue"], ne, pe, dep, "prologue", "B6:prologue")
        # Without the Fig.-8 insight, regions run one after another (the
        # reference's call order): each region's chains wait for the previous
        # *region* to finish, but partitions within a region still run in
        # parallel.
        constraint_futs: list[Future] = []
        region_gate: tuple[Future, ...] = ()
        for r in range(shape.num_regions):
            rep = shape.region_reps[r]
            futs = [
                self._region_chain(r, rep, lo, hi, dep + region_gate)
                for lo, hi in self._ranges(shape.region_sizes[r], pe)
            ]
            constraint_futs += futs
            if not chain:
                self._sync(futs, f"region[{r}]")
            elif not parallel:
                region_gate = (self.rt.when_all(
                    futs, tag=f"region_gate[{r}]", desc=_SYNC
                ),)

        # ---- Final reduction (B7) ------------------------------------------------
        # hpx::dataflow, spelled out so the gate carries a descriptor too; it
        # is a graph node on every rung.
        self.barriers_per_iteration += 1
        gate = self.rt.when_all(constraint_futs, tag="dataflow-gate", desc=_SYNC)
        return self.rt.continuation(
            gate,
            _reduce_body(self.domain, constraint_futs),
            cost_ns=2_000,
            tag=_REDUCE.tag(),
            desc=_REDUCE,
        )

    def _region_chain(
        self, r: int, rep: int, lo: int, hi: int, depends: Sequence[Future]
    ) -> Future:
        """monoq -> EOS(xrep) -> constraints for one region partition."""
        d = self.domain
        priority = (
            1
            if self.variant.prioritize_expensive_regions and rep >= 10
            else 0
        )
        fut = self._chain(self._k["region"], lo, hi, depends, "",
                          priority=priority, region=r, rep=rep)
        # Constraint task returns its partial minima (consumed by reduce).
        desc = TaskSpec("constraints", (), lo, hi, r)
        kernels = desc.kernels
        if d is None:
            body = lambda _f: (1.0e20, 1.0e20)
        else:

            def body(_f):
                return tuple([k.body(d, lo, hi, r, 0) for k in kernels])

        return self.rt.continuation(
            fut, body, cost_ns=self._task_cost(kernels, desc),
            tag=desc.tag(), priority=priority,
            idempotent=all(k.idempotent for k in kernels), desc=desc,
        )

    # --- one cycle ------------------------------------------------------------------

    def _graph_key(self) -> tuple:
        """Everything the graph's structure depends on (invalidation key)."""
        return (
            self.variant,
            self.nodal_partition,
            self.elements_partition,
            self.balanced_partitions,
            self.shape,
        )

    def _build(self) -> Future:
        final = self.build_iteration()
        self.rt.flush()
        return final

    def _finish(self, final: Future) -> None:
        """Re-raise the iteration's failure, if any task failed."""
        if not final.is_ready():
            raise RuntimeError("iteration graph did not complete")
        exc = final.exception_nowait()
        if exc is not None:
            raise exc


def _noop() -> None:
    return None


def _run_after(body: Callable[[], None] | None) -> Callable[[Future], None]:
    def fn(_parent: Future) -> None:
        if body is not None:
            body()

    return fn


def _reduce_body(domain, constraint_futs: Sequence[Future]):
    def fn(_gated) -> tuple[float, float]:
        courant = 1.0e20
        hydro = 1.0e20
        for f in constraint_futs:
            cmin, hmin = f.result_nowait()
            courant = min(courant, cmin)
            hydro = min(hydro, hmin)
        if domain is not None:
            reduce_time_constraints(domain, courant, hydro)
        return courant, hydro

    return fn
