"""End-to-end tests for the tuner: determinism, caching, persistence."""

from repro.lulesh.options import LuleshOptions
from repro.tuning import (
    CoordinateDescent,
    Evaluator,
    ExhaustiveSearch,
    RandomRestarts,
    SearchSpace,
    Tuner,
    TuningBudget,
    TuningDatabase,
)

LADDER = (16, 32, 64, 128)


def make_tuner(strategy=None, db=None, budget=None, registry=None, nx=6):
    space = SearchSpace.hpx_partitions(nx, ladder=LADDER)
    evaluator = Evaluator(LuleshOptions(nx=nx, numReg=2), 4)
    return Tuner(
        space,
        evaluator,
        strategy or ExhaustiveSearch(),
        budget or TuningBudget(max_trials=space.size + 2),
        db=db,
        registry=registry,
    )


def trial_log(result):
    return [(t.config.key(), t.runtime_ns, t.cached) for t in result.trials]


class TestTuner:
    def test_baseline_is_first_trial_and_default(self):
        tuner = make_tuner()
        result = tuner.tune()
        assert result.trials[0] is result.baseline
        assert result.baseline.config == tuner.space.default_config()

    def test_winner_never_slower_than_default(self):
        for strategy in (ExhaustiveSearch(), CoordinateDescent(),
                         RandomRestarts(seed=3, restarts=2)):
            result = make_tuner(strategy).tune()
            assert result.winner.runtime_ns <= result.baseline.runtime_ns
            assert result.speedup_vs_default >= 1.0

    def test_exhaustive_finds_grid_minimum(self):
        result = make_tuner().tune()
        assert result.winner.runtime_ns == min(
            t.runtime_ns for t in result.trials
        )
        assert len(result.trials) >= len(LADDER) ** 2

    def test_same_seed_reproduces_trial_log_and_winner(self):
        a = make_tuner(RandomRestarts(seed=11, restarts=3)).tune()
        b = make_tuner(RandomRestarts(seed=11, restarts=3)).tune()
        assert trial_log(a) == trial_log(b)
        assert a.winner.config == b.winner.config

    def test_budget_bounds_trials(self):
        result = make_tuner(budget=TuningBudget(max_trials=5)).tune()
        assert len(result.trials) == 5

    def test_simulated_budget_stops_search(self):
        # one trial at nx=6 costs well over a simulated microsecond, so the
        # budget admits the baseline and then stops
        result = make_tuner(
            budget=TuningBudget(max_trials=100, max_simulated_s=1e-6)
        ).tune()
        assert len(result.trials) == 1

    def test_tuned_partition_sizes_from_winner(self):
        result = make_tuner().tune()
        tuned = result.tuned_partition_sizes()
        assert tuned is not None
        assert tuned[0] in LADDER and tuned[1] in LADDER

    def test_registry_sampled_once_per_trial(self):
        from repro.obs.registry import CounterRegistry
        from repro.obs.sources import install_tuning_counters

        registry = CounterRegistry()
        tuner = make_tuner(registry=registry)
        install_tuning_counters(registry, tuner.evaluator.stats)
        result = tuner.tune()
        assert registry.n_intervals == len(result.trials)
        assert registry.series("/tuning/trials")[-1].value == \
            len(result.trials)


class TestTunerWithDatabase:
    def test_records_winner_and_saves(self, tmp_path):
        path = str(tmp_path / "db.json")
        db = TuningDatabase.load(path)
        result = make_tuner(db=db).tune()
        again = TuningDatabase.load(path)
        assert again.n_entries == 1
        entry = again.nearest(
            make_tuner().evaluator.fingerprint(),
            make_tuner().evaluator.shape(),
        )
        assert entry["config"] == result.winner.config.as_dict()
        assert entry["strategy"] == "exhaustive"

    def test_repeat_is_fully_cache_served(self, tmp_path):
        path = str(tmp_path / "db.json")
        first = make_tuner(db=TuningDatabase.load(path)).tune()
        assert first.stats.cache_misses > 0
        second = make_tuner(db=TuningDatabase.load(path)).tune()
        assert second.stats.cache_hits == len(second.trials)
        assert second.stats.cache_misses == 0
        assert second.stats.simulated_ns == 0
        assert all(t.cached for t in second.trials)
        assert second.winner.config == first.winner.config
        assert [t.runtime_ns for t in second.trials] == \
            [t.runtime_ns for t in first.trials]

    def test_cache_shared_across_strategies(self, tmp_path):
        path = str(tmp_path / "db.json")
        make_tuner(db=TuningDatabase.load(path)).tune()
        # coordinate descent only probes grid points exhaustive already ran
        result = make_tuner(
            CoordinateDescent(), db=TuningDatabase.load(path)
        ).tune()
        assert result.stats.cache_misses == 0
