"""Unit tests for the idle-rate rule: ``RunStats`` and ``/threads*/idle-rate``."""

import pytest

from repro.amt.runtime import AmtRuntime, RunStats
from repro.obs.registry import IDLE_RATE_SCALE, CounterRegistry
from repro.obs.sources import install_amt_counters, worker_thread_path
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig


@pytest.fixture()
def rt():
    return AmtRuntime(MachineConfig(), CostModel(), n_workers=4)


@pytest.fixture()
def registry(rt):
    reg = CounterRegistry()
    install_amt_counters(reg, rt)
    return reg


def idle_rate(registry) -> float:
    """``/threads/idle-rate`` of the last interval, as a 0..1 share."""
    return registry.last_values()["/threads/idle-rate"] / IDLE_RATE_SCALE


class TestIdleRateCounter:
    def test_idle_plus_utilization_is_one(self, rt, registry):
        for _ in range(8):
            rt.async_(lambda: None, cost_ns=50_000)
        rt.flush()
        assert idle_rate(registry) + rt.stats.utilization() == (
            pytest.approx(1.0)
        )

    def test_serial_chain_has_high_idle_rate(self, rt, registry):
        f = rt.async_(lambda: None, cost_ns=100_000)
        for _ in range(7):
            f = f.then(lambda fp: None, cost_ns=100_000)
        rt.flush()
        # One chain on 4 workers: ~3 workers idle throughout.
        assert idle_rate(registry) > 0.5

    def test_wide_graph_has_low_idle_rate(self, rt, registry):
        for _ in range(64):
            rt.async_(lambda: None, cost_ns=100_000)
        rt.flush()
        assert idle_rate(registry) < 0.3

    def test_per_worker_reports(self, rt, registry):
        for _ in range(16):
            rt.async_(lambda: None, cost_ns=10_000)
        rt.flush()
        values = registry.last_values()
        per_worker = [values[worker_thread_path(w)] for w in range(4)]
        assert registry.expand("/threads{*}/idle-rate") == sorted(
            worker_thread_path(w) for w in range(4)
        )
        assert all(0.0 <= v <= IDLE_RATE_SCALE for v in per_worker)

    def test_empty_stats_zero_idle(self):
        assert RunStats(n_workers=4).utilization() == 1.0


class TestPerWorkerAccounting:
    def test_per_worker_sums_consistent_with_aggregate(self, rt, registry):
        for _ in range(32):
            rt.async_(lambda: None, cost_ns=25_000)
        rt.flush()
        workers = rt.stats.trace.workers
        total = rt.stats.total_ns
        assert all(w.productive_ns() + w.overhead_ns <= total for w in workers)
        # with no clamping in play, the per-worker idle rates (one shared
        # denominator) average to the aggregate idle-rate
        values = registry.last_values()
        per_worker = [values[worker_thread_path(w)] for w in range(4)]
        assert sum(per_worker) / 4 == pytest.approx(
            values["/threads/idle-rate"]
        )
        mean_util = sum(w.productive_ns() for w in workers) / (4 * total)
        assert rt.stats.utilization() == pytest.approx(mean_util)

    def test_reports_carry_task_and_steal_counts(self, rt, registry):
        for _ in range(8):
            rt.async_(lambda: None, cost_ns=10_000)
        rt.flush()
        values = registry.last_values()
        assert values["/threads/count/cumulative"] == 8
        assert values["/scheduler/steals"] >= 0
        assert sum(w.tasks_run for w in rt.stats.trace.workers) == 8
