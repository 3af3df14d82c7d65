"""Trial evaluation: timing-only simulated runs behind a memo cache.

One trial = one deterministic, timing-only run through
:mod:`repro.core.driver` (``execute=False`` — the same mode the paper-scale
experiments use, so no field arrays are allocated).  Because the simulation
is deterministic, a config's outcome is a pure function of

* the machine fingerprint (:class:`~repro.simcore.machine.MachineConfig`),
* the problem shape (``nx``, ``numReg``, worker count, iterations),
* the runtime being tuned (``hpx`` / ``omp``), and
* the knob assignment itself,

so results are *content-addressed*: :meth:`Evaluator.trial_key` hashes the
canonical JSON of all four and the :class:`MemoCache` replays any config it
has seen — within one search (strategies revisit points), across strategies,
across the fig9/table1 experiment grids, and across processes once the cache
is persisted in the tuning database.

:class:`TuningStats` is the single accounting object behind the
``/tuning/*`` performance counters, shared by the evaluator and the tuner
(the same pattern as :class:`~repro.resilience.stats.ResilienceStats`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.hpx_lulesh import HpxVariant
from repro.lulesh.costs import DEFAULT_COSTS, KernelCosts
from repro.lulesh.options import LuleshOptions
from repro.serve.fingerprint import canonical_json
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig
from repro.simcore.policy import SchedulerPolicy
from repro.tuning.errors import TuningError
from repro.tuning.space import TuningConfig

__all__ = [
    "TuningStats",
    "TrialOutcome",
    "MemoCache",
    "Evaluator",
    "policy_from_name",
]

#: Named scheduler disciplines a ``policy`` knob value resolves to.
_POLICIES = {
    "hpx-default": lambda: SchedulerPolicy.hpx_default(),
    "fifo-local": lambda: SchedulerPolicy(local_order="fifo"),
    "lifo-steal": lambda: SchedulerPolicy(steal_order="lifo"),
    "steal-half": lambda: SchedulerPolicy(steal_half=True),
    "priorities": lambda: SchedulerPolicy(use_priorities=True),
}


def policy_from_name(name: str) -> SchedulerPolicy:
    """Resolve a ``policy`` knob value to a :class:`SchedulerPolicy`."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise TuningError(
            f"unknown scheduler policy {name!r}; known: {sorted(_POLICIES)}"
        ) from None


@dataclass
class TuningStats:
    """Counters for one tuning run — backs the ``/tuning/*`` family.

    Attributes:
        trials: evaluations requested (cache hits included).
        cache_hits: trials served from the memo cache (no simulation).
        cache_misses: trials that actually ran the simulation.
        simulated_ns: total simulated wall-clock spent on misses — the
            budget's simulated-time spend.
        best_runtime_ns: best (lowest) trial runtime observed so far.
    """

    trials: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    simulated_ns: int = 0
    best_runtime_ns: int = 0

    def observe_best(self, runtime_ns: int) -> None:
        """Fold one trial runtime into the best-so-far gauge."""
        if self.best_runtime_ns == 0 or runtime_ns < self.best_runtime_ns:
            self.best_runtime_ns = runtime_ns


@dataclass(frozen=True)
class TrialOutcome:
    """One evaluated config.

    Attributes:
        trial: 1-based sequence number within this tuning run.
        config: the knob assignment evaluated.
        runtime_ns: simulated wall-clock of the run.
        utilization: productive-time ratio of the run.
        n_tasks: tasks executed (0 for the OpenMP runtime).
        cached: True when the outcome came from the memo cache.
    """

    trial: int
    config: TuningConfig
    runtime_ns: int
    utilization: float
    n_tasks: int
    cached: bool


@dataclass
class MemoCache:
    """Content-addressed trial memo: ``trial_key -> outcome record``.

    Records are plain JSON-able dicts so the tuning database can persist
    the cache verbatim; *hits*/*misses* here count cache traffic over the
    cache's whole lifetime (possibly several tuning runs).
    """

    data: dict[str, dict] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def get(self, key: str) -> dict | None:
        """The record under *key*, counting the hit or miss."""
        rec = self.data.get(key)
        if rec is None:
            self.misses += 1
        else:
            self.hits += 1
        return rec

    def put(self, key: str, record: dict) -> None:
        """Store *record* under *key* (overwrites)."""
        self.data[key] = record

    def __len__(self) -> int:
        return len(self.data)


class Evaluator:
    """Runs timing-only trials for one (problem, machine, runtime) context."""

    def __init__(
        self,
        opts: LuleshOptions,
        n_workers: int,
        runtime: str = "hpx",
        iterations: int = 1,
        machine: MachineConfig | None = None,
        cost_model: CostModel | None = None,
        costs: KernelCosts = DEFAULT_COSTS,
        cache: MemoCache | None = None,
        stats: TuningStats | None = None,
    ) -> None:
        if runtime not in ("hpx", "omp"):
            raise TuningError(f"runtime must be hpx/omp, got {runtime!r}")
        if iterations < 1:
            raise TuningError(f"iterations must be >= 1, got {iterations}")
        self.opts = opts
        self.n_workers = n_workers
        self.runtime = runtime
        self.iterations = iterations
        self.machine = machine or MachineConfig()
        self.cost_model = cost_model or CostModel()
        self.costs = costs
        self.cache = cache if cache is not None else MemoCache()
        self.stats = stats if stats is not None else TuningStats()
        self._n_trials = 0

    # --- identity -------------------------------------------------------------

    def fingerprint(self) -> dict:
        """Machine + runtime identity (the database's top-level key)."""
        m = self.machine
        return {
            "n_cores": m.n_cores,
            "smt_per_core": m.smt_per_core,
            "smt_efficiency": m.smt_efficiency,
            "runtime": self.runtime,
        }

    def shape(self) -> dict:
        """Problem-shape identity (the database's second-level key).

        Deliberately excludes ``iterations``: the simulation is
        deterministic and iteration-linear, so per-iteration optima do not
        depend on the trial length — a driver run with any iteration count
        may reuse a shape's tuned entry.  The memo cache's
        :meth:`trial_key` *does* include it, since cached runtimes are
        totals, not per-iteration quantities.
        """
        return {
            "nx": self.opts.nx,
            "numReg": self.opts.numReg,
            "threads": self.n_workers,
        }

    def trial_key(self, config: TuningConfig) -> str:
        """Content address of one trial: sha256 over the canonical JSON."""
        payload = canonical_json({
            "fingerprint": self.fingerprint(),
            "shape": self.shape(),
            "iterations": self.iterations,
            "config": config.as_dict(),
        })
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # --- evaluation -----------------------------------------------------------

    def evaluate(self, config: TuningConfig) -> TrialOutcome:
        """Evaluate *config*, through the memo cache."""
        key = self.trial_key(config)
        self._n_trials += 1
        self.stats.trials += 1
        record = self.cache.get(key)
        cached = record is not None
        if record is None:
            record = self._simulate(config)
            self.cache.put(key, record)
            self.stats.cache_misses += 1
            self.stats.simulated_ns += int(record["runtime_ns"])
        else:
            self.stats.cache_hits += 1
        self.stats.observe_best(int(record["runtime_ns"]))
        return TrialOutcome(
            trial=self._n_trials,
            config=config,
            runtime_ns=int(record["runtime_ns"]),
            utilization=float(record["utilization"]),
            n_tasks=int(record["n_tasks"]),
            cached=cached,
        )

    def _simulate(self, config: TuningConfig) -> dict:
        """One real timing-only run through :mod:`repro.core.driver`."""
        from repro.core.driver import run_hpx, run_omp

        cfg = config.as_dict()
        if cfg.get("backend") == "process":
            # The process backend reuses the sim backend's task graph
            # wholesale, so its simulated makespan is the right score —
            # but only score it at all where real worker processes could
            # run (POSIX, shared_memory present, picklable options).
            from repro.parallel import process_backend_supported

            if not process_backend_supported(self.opts):
                return {
                    "runtime_ns": 2**62,  # poisoned: never selected as best
                    "utilization": 0.0,
                    "n_tasks": 0,
                    "skipped": "process-backend-unsupported",
                }
        if self.runtime == "hpx":
            variant = HpxVariant(
                combine_loops=bool(cfg.get("combine_loops", True)),
                parallel_chains=bool(cfg.get("parallel_chains", True)),
                prioritize_expensive_regions=bool(
                    cfg.get("prioritize_expensive_regions", False)
                ),
            )
            result = run_hpx(
                self.opts,
                self.n_workers,
                self.iterations,
                self.machine,
                self.cost_model,
                self.costs,
                variant=variant,
                nodal_partition=cfg.get("nodal_partition"),
                elements_partition=cfg.get("elements_partition"),
                policy=policy_from_name(
                    str(cfg.get("policy", "hpx-default"))
                ),
                balanced_partitions=bool(cfg.get("balanced_split", False)),
                replay_graph=bool(cfg.get("replay_graph", True)),
            )
        else:
            schedule = str(cfg.get("omp_schedule", "static"))
            result = run_omp(
                self.opts,
                self.n_workers,
                self.iterations,
                self.machine,
                self.cost_model,
                self.costs,
                omp_schedule=schedule,
                dynamic_chunk=(
                    int(cfg["omp_dynamic_chunk"])
                    if schedule == "dynamic" and "omp_dynamic_chunk" in cfg
                    else None
                ),
            )
        return {
            "runtime_ns": result.runtime_ns,
            "utilization": result.utilization,
            "n_tasks": result.n_tasks,
        }
