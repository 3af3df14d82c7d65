"""Unit tests for the critical-path analyzer (and its trace flow events)."""

import pytest

from repro.amt.runtime import AmtRuntime
from repro.core.driver import run_hpx
from repro.core.hpx_lulesh import HpxVariant
from repro.lulesh.options import LuleshOptions
from repro.obs.critical_path import analyze_critical_path
from repro.obs.traceview import to_chrome_trace
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig
from repro.simcore.trace import TaskSpan


def span(task_id, start, end, parents=(), worker=0, tag="t"):
    return TaskSpan(worker=worker, task_id=task_id, tag=tag,
                    start_ns=start, end_ns=end, parents=tuple(parents))


class TestSyntheticGraphs:
    def test_empty(self):
        res = analyze_critical_path([], 100)
        assert res.critical_path_ns == 0
        assert res.speedup_bound == 1.0
        assert res.path == ()

    def test_serial_chain_is_whole_chain(self):
        spans = [
            span(0, 0, 10),
            span(1, 10, 30, parents=(0,)),
            span(2, 30, 60, parents=(1,)),
        ]
        res = analyze_critical_path(spans, 60)
        assert res.critical_path_ns == 60
        assert [s.task_id for s in res.path] == [0, 1, 2]
        assert res.chain_fraction == pytest.approx(1.0)
        assert res.speedup_bound == pytest.approx(1.0)

    def test_wide_graph_is_longest_single_task(self):
        spans = [span(i, 0, 10 + i, worker=i) for i in range(4)]
        res = analyze_critical_path(spans, 13)
        assert res.critical_path_ns == 13
        assert res.parallelism == pytest.approx((10 + 11 + 12 + 13) / 13)

    def test_diamond_takes_heavier_branch(self):
        spans = [
            span(0, 0, 10),
            span(1, 10, 15, parents=(0,)),  # light branch
            span(2, 10, 40, parents=(0,), worker=1),  # heavy branch
            span(3, 40, 50, parents=(1, 2)),
        ]
        res = analyze_critical_path(spans, 50)
        assert res.critical_path_ns == 10 + 30 + 10
        assert [s.task_id for s in res.path] == [0, 2, 3]

    def test_edges_to_unrecorded_parents_ignored(self):
        spans = [span(5, 0, 10, parents=(99,))]
        res = analyze_critical_path(spans, 10)
        assert res.critical_path_ns == 10

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            analyze_critical_path([span(0, 0, 1), span(0, 1, 2)], 2)

    def test_deep_chain_no_recursion_limit(self):
        n = 5000
        spans = [span(0, 0, 1)] + [
            span(i, i, i + 1, parents=(i - 1,)) for i in range(1, n)
        ]
        res = analyze_critical_path(spans, n)
        assert res.critical_path_ns == n

    def test_summary_mentions_bound(self):
        res = analyze_critical_path([span(0, 0, 10)], 20)
        text = res.summary()
        assert "critical path" in text
        assert "speed-up bound" in text


class TestRealRuns:
    def run_recorded(self, n_workers=4):
        return run_hpx(
            LuleshOptions(nx=8, numReg=2), n_workers, 1, record_spans=True
        )

    def test_bound_holds_on_real_iteration(self):
        res = self.run_recorded()
        cp = analyze_critical_path(res.trace.spans, res.runtime_ns)
        assert 0 < cp.critical_path_ns <= res.runtime_ns
        assert cp.speedup_bound >= 1.0
        assert cp.n_spans == len(res.trace.spans)

    def test_bound_holds_across_sizes_and_workers(self):
        for nx, workers in ((6, 2), (10, 8)):
            res = run_hpx(LuleshOptions(nx=nx, numReg=2), workers, 1,
                          record_spans=True)
            cp = analyze_critical_path(res.trace.spans, res.runtime_ns)
            assert cp.critical_path_ns <= res.runtime_ns

    def test_single_worker_is_fully_chain_limited_or_less(self):
        # with one worker the makespan is at least the total work, so the
        # chain bound is way below it and the speed-up headroom large
        res = self.run_recorded(n_workers=1)
        cp = analyze_critical_path(res.trace.spans, res.runtime_ns)
        assert cp.critical_path_ns <= res.runtime_ns
        assert cp.parallelism > 1.0

    def test_flow_events_present_in_exported_trace(self):
        res = self.run_recorded()
        events = to_chrome_trace(res.trace.spans)
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) > 0
        assert len(starts) == len(finishes)
        # every flow id is paired
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}

    def test_parents_recorded_only_with_spans(self):
        rt = AmtRuntime(MachineConfig(), CostModel(), 2, record_spans=True)
        a = rt.async_(lambda: None, cost_ns=100, tag="a")
        rt.async_(lambda: None, cost_ns=100, tag="b", depends=(a,))
        rt.flush()
        spans = {s.tag: s for s in rt.stats.trace.spans}
        assert spans["b"].parents == (spans["a"].task_id,)
        assert spans["a"].parents == ()

    def test_task_ids_unique_across_flushes(self):
        rt = AmtRuntime(MachineConfig(), CostModel(), 2, record_spans=True)
        for _ in range(2):
            for _ in range(4):
                rt.async_(lambda: None, cost_ns=100)
            rt.flush()
        ids = [s.task_id for s in rt.stats.trace.spans]
        assert len(ids) == len(set(ids)) == 8
        # merged multi-flush spans stay analyzable
        cp = analyze_critical_path(rt.stats.trace.spans, rt.stats.total_ns)
        assert cp.critical_path_ns <= rt.stats.total_ns


class TestReplayedGraphRuns:
    """Critical-path analysis over merged spans of a graph-replayed run."""

    def run_recorded(self, replay, iterations=3):
        return run_hpx(LuleshOptions(nx=6, numReg=2), 4, iterations,
                       record_spans=True, replay_graph=replay)

    def test_bound_holds_over_replayed_cycles(self):
        res = self.run_recorded(replay=True)
        cp = analyze_critical_path(res.trace.spans, res.runtime_ns)
        assert 0 < cp.critical_path_ns <= res.runtime_ns
        assert cp.n_spans == len(res.trace.spans)
        # spans from all three cycles are analyzable in one merged stream
        assert {s.cycle for s in res.trace.spans} == {1, 2, 3}

    def test_replay_and_rebuild_agree(self):
        replayed = self.run_recorded(replay=True)
        rebuilt = self.run_recorded(replay=False)
        cp_r = analyze_critical_path(replayed.trace.spans,
                                     replayed.runtime_ns)
        cp_b = analyze_critical_path(rebuilt.trace.spans,
                                     rebuilt.runtime_ns)
        assert cp_r.critical_path_ns == cp_b.critical_path_ns
        assert cp_r.n_spans == cp_b.n_spans
        assert [s.tag for s in cp_r.path] == [s.tag for s in cp_b.path]

    def test_bound_does_not_grow_with_the_cycle_count(self):
        """Identical cycles: the run's chain is every cycle's chain, so
        the ratios of a 4-cycle run are those of a 1-cycle run."""
        cps = [
            analyze_critical_path(res.trace.spans, res.runtime_ns)
            for res in (self.run_recorded(True, 1), self.run_recorded(True, 4))
        ]
        one, four = cps
        assert four.critical_path_ns == 4 * one.critical_path_ns
        assert four.speedup_bound == one.speedup_bound
        assert four.parallelism == one.parallelism
        assert four.chain_fraction == one.chain_fraction
        assert len(four.path) == 4 * len(one.path)

    def test_fig5_chain_sums_its_segments(self):
        """Blocking barriers split a Fig. 5 cycle into segments run back
        to back: the chain is the sum of their chains, in order."""
        res = run_hpx(LuleshOptions(nx=6, numReg=2), 4, 1,
                      variant=HpxVariant.fig5(), record_spans=True)
        segments = {}
        for s in res.trace.spans:
            segments.setdefault(s.cycle, []).append(s)
        assert len(segments) > 10
        cp = analyze_critical_path(res.trace.spans, res.runtime_ns)
        assert cp.critical_path_ns == sum(
            analyze_critical_path(group, res.runtime_ns).critical_path_ns
            for group in segments.values()
        )
        assert cp.critical_path_ns <= res.runtime_ns
        assert [s.cycle for s in cp.path] == sorted(s.cycle for s in cp.path)
        assert {s.cycle for s in cp.path} == set(segments)

    def test_merged_spans_are_rebased_per_cycle(self):
        res = self.run_recorded(replay=True)
        # each cycle's spans live after the previous cycle's on the merged
        # timeline (the per-segment DES clocks were rebased at merge time)
        by_cycle = {}
        for s in res.trace.spans:
            lo, hi = by_cycle.get(s.cycle, (s.start_ns, s.end_ns))
            by_cycle[s.cycle] = (min(lo, s.start_ns), max(hi, s.end_ns))
        ordered = [by_cycle[c] for c in sorted(by_cycle)]
        for (_, prev_hi), (cur_lo, _) in zip(ordered, ordered[1:]):
            assert cur_lo >= prev_hi
