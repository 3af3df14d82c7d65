"""Unit tests for the HPX-style performance-counter registry."""

import json

import pytest

from repro.amt.runtime import AmtRuntime
from repro.core.driver import run_hpx, run_naive_hpx, run_omp
from repro.lulesh.options import LuleshOptions
from repro.obs.registry import CounterRegistry, GaugeCounter, RatioCounter
from repro.obs.sources import (
    install_amt_counters,
    install_omp_counters,
    worker_thread_path,
)
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig


class TestRegistryBasics:
    def test_register_and_read_paths(self):
        reg = CounterRegistry()
        reg.register_gauge("/a/b", lambda: 3)
        reg.register_gauge("/a/c", lambda: 4)
        assert reg.paths() == ["/a/b", "/a/c"]

    def test_duplicate_path_rejected(self):
        reg = CounterRegistry()
        reg.register_gauge("/a", lambda: 0)
        with pytest.raises(ValueError):
            reg.register_gauge("/a", lambda: 1)

    def test_path_must_be_rooted(self):
        with pytest.raises(ValueError):
            GaugeCounter("no-slash", lambda: 0)

    def test_unknown_counter_raises(self):
        reg = CounterRegistry()
        with pytest.raises(KeyError):
            reg.counter("/missing")
        with pytest.raises(KeyError):
            reg.series("/missing")

    def test_wildcard_expansion(self):
        reg = CounterRegistry()
        for w in range(3):
            reg.register_gauge(worker_thread_path(w), lambda: 0)
        reg.register_gauge("/threads/idle-rate", lambda: 0)
        hits = reg.expand("/threads{worker-thread#*}/idle-rate")
        assert len(hits) == 3
        assert reg.expand("/threads/idle-rate") == ["/threads/idle-rate"]
        assert reg.expand("/nope/*") == []


class TestSampling:
    def test_gauge_samples_cumulative_value(self):
        state = {"v": 0}
        reg = CounterRegistry()
        reg.register_gauge("/v", lambda: state["v"])
        state["v"] = 5
        reg.sample(100)
        state["v"] = 9
        reg.sample(200)
        values = [s.value for s in reg.series("/v")]
        assert values == [5.0, 9.0]
        assert [s.interval for s in reg.series("/v")] == [1, 2]

    def test_counter_registered_later_has_no_earlier_samples(self):
        reg = CounterRegistry()
        reg.register_gauge("/a", lambda: 1)
        reg.sample(10)
        reg.register_gauge("/b", lambda: 2)
        reg.sample(20)
        assert [(s.path, s.interval) for s in reg.samples] == [
            ("/a", 1), ("/a", 2), ("/b", 2),
        ]
        assert [s.time_ns for s in reg.series("/b")] == [20]
        assert reg.last_values() == {"/a": 1.0, "/b": 2.0}
        assert reg.to_json_dict()["counters"]["/b"]["samples"] == [
            {"interval": 2, "time_ns": 20, "value": 2.0}
        ]
        assert reg.format_print_counter("/b") == ["/b,2,0.000000,[s],2"]

    def test_ratio_samples_interval_delta(self):
        state = {"num": 0, "den": 0}
        reg = CounterRegistry()
        reg.register_ratio("/r", lambda: state["num"], lambda: state["den"],
                           scale=100.0, unit="[%]")
        state.update(num=25, den=100)  # 25% in the first interval
        (s1,) = reg.sample(1)
        state.update(num=100, den=200)  # 75/100 in the second
        (s2,) = reg.sample(2)
        assert s1.value == pytest.approx(25.0)
        assert s2.value == pytest.approx(75.0)

    def test_ratio_clamps_into_unit_range(self):
        state = {"num": 0, "den": 0}
        reg = CounterRegistry()
        reg.register_ratio("/r", lambda: state["num"], lambda: state["den"],
                           scale=1.0)
        state.update(num=50, den=10)  # numerator overshoots denominator
        (s,) = reg.sample(1)
        assert s.value == 1.0
        (s,) = reg.sample(2)  # empty interval
        assert s.value == 0.0

    def test_ratio_counter_is_per_interval_not_cumulative(self):
        c = RatioCounter("/r", lambda: 10, lambda: 20, scale=1.0)
        assert c.sample_value() == pytest.approx(0.5)
        # no progress since the last sample -> empty interval -> 0
        assert c.sample_value() == 0.0


class TestOutputSurfaces:
    def _sampled_registry(self):
        reg = CounterRegistry()
        reg.register_gauge("/count", lambda: 7)
        reg.register_ratio("/rate", lambda: 50, lambda: 100, scale=10_000.0)
        reg.sample(1_000_000)
        return reg

    def test_print_counter_line_format(self):
        reg = self._sampled_registry()
        (line,) = reg.format_print_counter("/count")
        assert line == "/count,1,0.001000,[s],7"
        (line,) = reg.format_print_counter("/rate")
        assert line == "/rate,1,0.001000,[s],5000,[0.01%]"

    def test_print_counter_unknown_pattern(self):
        with pytest.raises(KeyError):
            self._sampled_registry().format_print_counter("/nope")

    def test_json_roundtrip(self):
        reg = self._sampled_registry()
        payload = json.loads(json.dumps(reg.to_json_dict()))
        assert payload["schema"] == "lulesh-hpx-counters/1"
        assert payload["n_intervals"] == 1
        assert payload["counters"]["/count"]["samples"][0]["value"] == 7.0
        assert payload["counters"]["/rate"]["unit"] == "[0.01%]"


class TestAmtSource:
    def make_rt(self, n=4):
        return AmtRuntime(MachineConfig(), CostModel(), n_workers=n)

    def test_namespace_installed(self):
        rt = self.make_rt()
        reg = CounterRegistry()
        install_amt_counters(reg, rt)
        paths = reg.paths()
        for expected in (
            "/threads/idle-rate",
            "/threads/count/cumulative",
            "/scheduler/steals",
            "/scheduler/steal-attempts",
            "/runtime/spawn-time",
            "/amt/flushes",
        ):
            assert expected in paths
        assert sum("worker-thread#" in p for p in paths) == 4

    def test_sampled_once_per_flush(self):
        rt = self.make_rt()
        reg = CounterRegistry()
        install_amt_counters(reg, rt)
        for _ in range(3):
            for _ in range(8):
                rt.async_(lambda: None, cost_ns=10_000)
            rt.flush()
        assert reg.n_intervals == 3
        flushes = [s.value for s in reg.series("/amt/flushes")]
        assert flushes == [1.0, 2.0, 3.0]
        tasks = [s.value for s in reg.series("/threads/count/cumulative")]
        assert tasks == [8.0, 16.0, 24.0]

    def test_idle_rate_matches_idle_rate_counter(self):
        rt = self.make_rt()
        reg = CounterRegistry()
        install_amt_counters(reg, rt)
        for _ in range(16):
            rt.async_(lambda: None, cost_ns=50_000)
        rt.flush()
        (sample,) = reg.series("/threads/idle-rate")
        expected = (1 - rt.stats.utilization()) * 10_000
        assert sample.value == pytest.approx(expected, rel=1e-9)

    def test_sample_time_is_accumulated_runtime(self):
        rt = self.make_rt()
        reg = CounterRegistry()
        install_amt_counters(reg, rt)
        rt.async_(lambda: None, cost_ns=1000)
        rt.flush()
        (s,) = [x for x in reg.samples if x.path == "/amt/flushes"]
        assert s.time_ns == rt.stats.total_ns


class TestDriverWiring:
    def test_run_hpx_samples_per_iteration(self):
        reg = CounterRegistry()
        run_hpx(LuleshOptions(nx=8, numReg=2), 4, 3, registry=reg)
        # full variant: one flush per leapfrog iteration
        assert reg.n_intervals == 3
        idle = reg.series("/threads/idle-rate")
        assert all(0.0 <= s.value <= 10_000.0 for s in idle)

    def test_run_naive_samples_many_segments(self):
        reg = CounterRegistry()
        run_naive_hpx(LuleshOptions(nx=8, numReg=2), 4, 1, registry=reg)
        # the naive port blocks after every parallel loop -> many segments
        assert reg.n_intervals > 3

    def test_run_omp_samples_per_iteration(self):
        reg = CounterRegistry()
        run_omp(LuleshOptions(nx=8, numReg=2), 4, 2, registry=reg)
        assert reg.n_intervals == 2
        assert "/openmp/count/regions" in reg.paths()
        idle = reg.series("/threads/idle-rate")
        assert all(0.0 <= s.value <= 10_000.0 for s in idle)

    def test_omp_idle_rate_tracks_utilization(self):
        reg = CounterRegistry()
        res = run_omp(LuleshOptions(nx=8, numReg=2), 4, 1, registry=reg)
        (s,) = reg.series("/threads/idle-rate")
        assert s.value / 10_000.0 == pytest.approx(1.0 - res.utilization,
                                                   abs=1e-9)


class TestOmpSourceHooks:
    def test_iteration_hook_fires_on_end_iteration(self):
        from repro.openmp.runtime import OmpRuntime

        omp = OmpRuntime(MachineConfig(), CostModel(), 2)
        reg = CounterRegistry()
        install_omp_counters(reg, omp)
        with omp.parallel_region("r"):
            omp.loop(100, None, work_ns_per_item=10)
        omp.end_iteration()
        assert reg.n_intervals == 1

    def test_end_iteration_rejected_inside_region(self):
        from repro.openmp.runtime import OmpRuntime

        omp = OmpRuntime(MachineConfig(), CostModel(), 2)
        with pytest.raises(RuntimeError):
            with omp.parallel_region("r"):
                omp.end_iteration()
