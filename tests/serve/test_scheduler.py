"""CampaignScheduler end-to-end: dedup, bit-identity, retries, isolation."""

import dataclasses

import pytest

from repro.obs.recorder import FlightRecorder
from repro.serve import CampaignScheduler, JobSpec, ResultCache

# Small-but-real execute-mode job; every scheduler test stays sub-second.
BASE = JobSpec(s=6, r=5, i=2, threads=4, execute=True)


def run_one(spec, **kw):
    with CampaignScheduler(**kw) as sched:
        (record,) = sched.run_campaign([spec])
    return record


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


class TestDedup:
    def test_second_identical_job_is_a_hit(self, cache):
        with CampaignScheduler(cache=cache) as sched:
            r1, r2 = sched.run_campaign([BASE, BASE])
        assert r1.status == r2.status == "completed"
        assert not r1.cached and r2.cached
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert r2.attempts == 0  # a hit never touches an executor

    def test_hit_result_bit_identical_to_recompute(self, cache):
        cached = run_one(BASE, cache=cache)  # miss: computes + stores
        hit = run_one(BASE, cache=ResultCache(cache.root))
        fresh = run_one(BASE, cache=None)  # independent recomputation
        assert hit.cached and not fresh.cached
        assert hit.result == cached.result == fresh.result

    @pytest.mark.parametrize("change", [
        {"s": 8}, {"i": 3}, {"variant": "fig7"}, {"threads": 2},
        {"impl": "naive"}, {"balanced": True}, {"nodal_partition": 32},
    ])
    def test_changed_axis_misses(self, cache, change):
        with CampaignScheduler(cache=cache) as sched:
            _, r2 = sched.run_campaign(
                [BASE, dataclasses.replace(BASE, **change)]
            )
        assert r2.status == "completed" and not r2.cached
        assert cache.stats.hits == 0 and cache.stats.misses == 2

    def test_faulty_jobs_never_touch_the_cache(self, cache):
        # Silent field corruption completes the run with poisoned physics
        # — exactly the result that must never be served to a clean job.
        faulty = dataclasses.replace(BASE, inject=("field:e:nan@1",))
        with CampaignScheduler(cache=cache) as sched:
            sched.run_campaign([faulty])
        assert len(cache) == 0
        assert cache.stats.misses == 0 and cache.stats.stores == 0
        # A later clean request must compute, not inherit the faulty run.
        clean = run_one(BASE, cache=ResultCache(cache.root))
        assert clean.status == "completed" and not clean.cached


class TestWarmReuse:
    def test_executor_and_template_reused(self):
        with CampaignScheduler(cache=None) as sched:
            r1, r2 = sched.run_campaign([BASE, BASE])
        assert not r1.executor_reused and r2.executor_reused
        assert not r1.template_reused and r2.template_reused
        assert sched.pool.created == 1 and sched.pool.reused == 1
        assert sched.stats.template_reuses == 1

    def test_warm_rerun_is_bit_identical(self):
        with CampaignScheduler(cache=None) as sched:
            r1, r2 = sched.run_campaign([BASE, BASE])
        assert r1.result == r2.result

    def test_iteration_count_shares_the_executor(self):
        longer = dataclasses.replace(BASE, i=4)
        with CampaignScheduler(cache=None) as sched:
            _, r2 = sched.run_campaign([BASE, longer])
        assert r2.executor_reused
        assert r2.result["iterations"] == 4

    def test_pool_evicts_lru_when_full(self):
        sizes = [dataclasses.replace(BASE, s=s) for s in (6, 7, 8)]
        with CampaignScheduler(cache=None, max_executors=2) as sched:
            sched.run_campaign(sizes)
            assert len(sched.pool) == 2
        assert sched.pool.created == 3
        assert sched.pool.evicted == 1


class TestJobIsolation:
    """Satellite regression: job N+1 must never report job N's numbers."""

    def test_back_to_back_jobs_have_independent_counters(self):
        longer = dataclasses.replace(BASE, i=4)
        with CampaignScheduler(cache=None) as sched:
            _, after_long = sched.run_campaign([longer, BASE])
        alone = run_one(BASE, cache=None)
        # Identical payload whether BASE ran on a fresh stack or directly
        # after a longer job on the same warm executor: counters, energy,
        # simulated runtime — nothing accumulates across jobs.
        assert after_long.result == alone.result

    def test_isolation_across_impls(self):
        omp = dataclasses.replace(BASE, impl="omp")
        with CampaignScheduler(cache=None) as sched:
            _, r2 = sched.run_campaign([omp, omp])
        assert r2.result == run_one(omp, cache=None).result


class TestFailureHandling:
    def test_physics_abort_fails_without_retry(self, monkeypatch):
        from repro.lulesh.errors import VolumeError
        from repro.serve.executor import WarmExecutor

        def abort(self, *a, **kw):
            raise VolumeError("element 0 went inside-out")

        monkeypatch.setattr(WarmExecutor, "run_job", abort)
        doomed = dataclasses.replace(BASE, max_retries=3)
        with CampaignScheduler(cache=None) as sched:
            (record,) = sched.run_campaign([doomed])
        assert record.status == "failed"
        assert record.attempts == 1  # deterministic abort: no retries
        assert "VolumeError" in record.error
        assert sched.stats.retried == 0
        assert sched.stats.failed == 1

    def test_transient_fault_retries_then_fails(self):
        # A deterministic injected crash re-fires every attempt, so the
        # retry budget is consumed and the job still fails — which is
        # exactly the accounting we want to observe.
        faulty = JobSpec(
            s=6, r=5, i=2, threads=4, inject=("task:CalcQ*@1",), max_retries=2
        )
        with CampaignScheduler(cache=None) as sched:
            (record,) = sched.run_campaign([faulty])
        assert record.status == "failed"
        assert record.attempts == 3
        assert sched.stats.retried == 2

    @pytest.mark.parametrize("impl", ["hpx", "naive", "omp"])
    def test_timeout_marks_job_after_retries(self, impl):
        doomed = dataclasses.replace(
            BASE, impl=impl, timeout_s=0.0, max_retries=1
        )
        with CampaignScheduler(cache=None) as sched:
            (record,) = sched.run_campaign([doomed])
        assert record.status == "timeout"
        assert record.attempts == 2
        assert sched.stats.timeouts == 1 and sched.stats.failed == 1

    @pytest.mark.parametrize("impl", ["hpx", "naive", "omp"])
    def test_executor_survives_a_timeout(self, impl):
        # Cooperative deadline: the warm stack stays consistent, so the
        # same executor serves the follow-up job and stays bit-exact.
        base = dataclasses.replace(BASE, impl=impl)
        doomed = dataclasses.replace(base, timeout_s=0.0)
        with CampaignScheduler(cache=None) as sched:
            _, ok = sched.run_campaign([doomed, base])
        assert ok.status == "completed"
        assert ok.executor_reused
        assert ok.result == run_one(base, cache=None).result

    def test_failed_job_carries_its_error(self):
        crashing = JobSpec(s=6, r=5, i=2, threads=4, inject=("task:CalcQ*@1",))
        with CampaignScheduler(cache=None) as sched:
            (record,) = sched.run_campaign([crashing])
        assert record.status == "failed"
        assert record.error
        assert record.result is None


class TestCancellation:
    def test_cancel_pending_job(self):
        with CampaignScheduler(cache=None) as sched:
            # Occupy the single lane, then cancel a queued job before the
            # lane reaches it.
            blocker = dataclasses.replace(BASE, s=10, i=4)
            records = sched.submit_all([blocker, BASE, BASE])
            assert sched.cancel(records[1].job_id)
            sched.drain()
        assert records[1].status == "cancelled"
        assert records[2].status == "completed"
        assert sched.stats.cancelled == 1

    def test_cancel_finished_job_is_a_noop(self):
        with CampaignScheduler(cache=None) as sched:
            (record,) = sched.run_campaign([BASE])
            assert not sched.cancel(record.job_id)
        assert record.status == "completed"

    def test_cancel_unknown_job(self):
        with CampaignScheduler(cache=None) as sched:
            assert not sched.cancel("job-99999")


class TestForgetsFinishedJobs:
    def test_campaign_leaves_no_job_state_behind(self, cache):
        # Timing-only jobs over four shapes: computed, then cache hits.
        specs = [JobSpec(s=4 + k % 4, i=1, threads=2) for k in range(100)]
        with CampaignScheduler(cache=cache) as sched:
            records = sched.run_campaign(specs)
            assert all(r.status == "completed" for r in records)
            assert sched._records == {}
            assert sched._cancel_events == {}
            assert not sched.cancel(records[0].job_id)
            assert not sched.cancel(records[-1].job_id)
        assert cache.stats.hits == 96


class TestObservability:
    def test_flight_events_cover_the_lifecycle(self, cache):
        flight = FlightRecorder()
        with CampaignScheduler(cache=cache, flight_recorder=flight) as sched:
            sched.run_campaign([BASE, BASE])
        counts = flight.counts()
        assert counts["job_submitted"] == 2
        assert counts["job_start"] == 1  # the hit never starts an executor
        assert counts["job_cache_hit"] == 1
        assert counts["job_done"] == 2

    def test_failed_job_records_job_failed(self):
        flight = FlightRecorder()
        crashing = JobSpec(s=6, r=5, i=2, threads=4, inject=("task:CalcQ*@1",))
        with CampaignScheduler(cache=None, flight_recorder=flight) as sched:
            sched.run_campaign([crashing])
        assert flight.counts()["job_failed"] == 1

    def test_priority_orders_the_queue(self):
        flight = FlightRecorder()
        with CampaignScheduler(cache=None, flight_recorder=flight) as sched:
            blocker = dataclasses.replace(BASE, s=10, i=4)
            low = dataclasses.replace(BASE, priority=0)
            high = dataclasses.replace(BASE, s=7, priority=5)
            records = sched.submit_all([blocker, low, high])
            sched.drain()
        starts = [e.detail["job_id"] for e in flight.events_of("job_start")]
        # The high-priority job jumps the FIFO while the lane is busy.
        assert starts.index(records[2].job_id) < starts.index(records[1].job_id)


class TestLifecycle:
    def test_submit_after_close_rejected(self):
        sched = CampaignScheduler(cache=None)
        sched.close()
        with pytest.raises(RuntimeError, match="shut down"):
            sched.submit(BASE)

    def test_close_is_idempotent(self):
        sched = CampaignScheduler(cache=None)
        sched.close()
        sched.close()

    def test_lanes_validation(self):
        with pytest.raises(ValueError, match="lanes"):
            CampaignScheduler(lanes=0)

    def test_multi_lane_campaign_completes(self, cache):
        specs = [dataclasses.replace(BASE, s=s) for s in (6, 7)] * 2
        with CampaignScheduler(cache=cache, lanes=2) as sched:
            records = sched.run_campaign(specs)
        assert all(r.status == "completed" for r in records)
        assert cache.stats.hits + cache.stats.stores == len(specs)

