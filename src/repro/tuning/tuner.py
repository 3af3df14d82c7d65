"""The tuner: space x strategy x evaluator x database, with a trial log.

:meth:`Tuner.tune` always evaluates the space's *default* config first (the
paper's own calibration — Table I partitions, full variant, HPX-default
policy), then hands control to the strategy.  The winner is the best trial
over everything evaluated, so by construction a tuned config is **never
slower in simulated time than the untuned default** — the acceptance bar
the whole subsystem is held to.

Determinism: the trial log is a pure function of (space, strategy, seed,
budget, evaluation context).  Repeating a tune with the same arguments
reproduces the identical trial sequence and winner; with a persistent
database attached, the repeat is serviced entirely from the memo cache
(watch ``/tuning/cache-hits`` climb while ``/tuning/simulated-time`` stays
flat).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tuning.database import TuningDatabase
from repro.tuning.evaluate import Evaluator, TrialOutcome, TuningStats
from repro.tuning.space import SearchSpace, TuningConfig
from repro.tuning.strategies import SearchStrategy, TuningBudget

__all__ = ["Tuner", "TuningResult"]


@dataclass(frozen=True)
class TuningResult:
    """Outcome of one tuning run.

    Attributes:
        winner: the best trial (lowest simulated runtime; ties broken by
            config key, so equal-runtime reruns pick the same winner).
        baseline: trial 1 — the untuned default config's outcome.
        trials: every trial in evaluation order (the reproducible log).
        stats: the run's ``/tuning/*`` accounting.
    """

    winner: TrialOutcome
    baseline: TrialOutcome
    trials: tuple[TrialOutcome, ...]
    stats: TuningStats

    @property
    def speedup_vs_default(self) -> float:
        """Simulated speed-up of the winner over the untuned default."""
        if self.winner.runtime_ns <= 0:
            return 1.0
        return self.baseline.runtime_ns / self.winner.runtime_ns

    def tuned_partition_sizes(self) -> tuple[int, int] | None:
        """The winner's ``(nodal_P, elements_P)``, if the space tunes them."""
        nodal = self.winner.config.get("nodal_partition")
        elems = self.winner.config.get("elements_partition")
        if nodal is None or elems is None:
            return None
        return int(nodal), int(elems)


class Tuner:
    """Drives one tuning run and (optionally) persists what it learns."""

    def __init__(
        self,
        space: SearchSpace,
        evaluator: Evaluator,
        strategy: SearchStrategy,
        budget: TuningBudget | None = None,
        db: TuningDatabase | None = None,
        registry=None,
        flight_recorder=None,
    ) -> None:
        self.space = space
        self.evaluator = evaluator
        self.strategy = strategy
        self.budget = budget or TuningBudget()
        self.db = db
        self.registry = registry
        self.flight_recorder = flight_recorder
        if db is not None:
            # Route trials through the database's persistent memo so this
            # run reuses (and extends) everything previously simulated.
            evaluator.cache = db.memo

    def tune(self) -> TuningResult:
        """Run the search; returns the winner and the full trial log."""
        trials: list[TrialOutcome] = []
        stats = self.evaluator.stats

        def evaluate(config: TuningConfig) -> TrialOutcome:
            self.space.validate(config)
            outcome = self.evaluator.evaluate(config)
            trials.append(outcome)
            if self.registry is not None:
                self.registry.record(stats.simulated_ns)
            if self.flight_recorder is not None:
                self.flight_recorder.record(
                    "tuner_trial",
                    time_ns=stats.simulated_ns,
                    trial=len(trials),
                    config=config.as_dict(),
                    runtime_ns=outcome.runtime_ns,
                    cached=outcome.cached,
                )
            return outcome

        baseline = evaluate(self.space.default_config())
        self.strategy.search(
            self.space, evaluate, lambda: self.budget.allows(stats)
        )
        winner = min(trials, key=lambda t: (t.runtime_ns, t.config.key()))
        if self.db is not None:
            self.db.record(
                self.evaluator.fingerprint(),
                self.evaluator.shape(),
                winner.config.as_dict(),
                winner.runtime_ns,
                strategy=self.strategy.name,
                seed=self.strategy.seed,
                n_trials=len(trials),
            )
            if self.db.path is not None:
                self.db.save()
        return TuningResult(
            winner=winner,
            baseline=baseline,
            trials=tuple(trials),
            stats=stats,
        )
