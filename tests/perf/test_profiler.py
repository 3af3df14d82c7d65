"""Unit tests for the per-kernel phase profiler."""

import pytest

from repro.core.driver import run_hpx
from repro.lulesh.options import LuleshOptions
from repro.obs.profiler import PhaseProfile, normalize_tag, percentile
from repro.simcore.trace import TaskSpan


def span(tag, start, end, worker=0, task_id=0):
    return TaskSpan(worker=worker, task_id=task_id, tag=tag,
                    start_ns=start, end_ns=end)


class TestNormalizeTag:
    def test_strips_partition_suffix(self):
        assert normalize_tag("stress:init+integrate[0:1536]") == "stress:init+integrate"
        assert normalize_tag("kin:kinematics[512:1024]") == "kin:kinematics"

    def test_leaves_other_brackets_alone(self):
        assert normalize_tag("eos[x10]") == "eos[x10]"
        assert normalize_tag("constraints[3][0:64]") == "constraints[3]"
        assert normalize_tag("B1:forces") == "B1:forces"


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 0.50) == 50
        assert percentile(values, 0.99) == 99
        assert percentile(values, 1.0) == 100
        assert percentile(values, 0.0) == 1

    def test_single_value(self):
        assert percentile([7], 0.5) == 7

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1], 1.5)


class TestPhaseProfile:
    def make_profile(self):
        spans = [
            span("a[0:10]", 0, 100),
            span("a[10:20]", 0, 300, task_id=1),
            span("b", 100, 200, task_id=2),
        ]
        return PhaseProfile.from_spans(spans, makespan_ns=400)

    def test_groups_partitions_into_one_row(self):
        prof = self.make_profile()
        stats = prof.by_tag()
        assert set(stats) == {"a", "b"}
        assert stats["a"].count == 2
        assert stats["a"].total_ns == 400
        assert stats["a"].mean_ns == pytest.approx(200.0)
        assert stats["a"].p50_ns == 100
        assert stats["a"].p99_ns == 300

    def test_share_of_makespan(self):
        prof = self.make_profile()
        assert prof.by_tag()["a"].share_of_makespan == pytest.approx(1.0)
        assert prof.by_tag()["b"].share_of_makespan == pytest.approx(0.25)

    def test_sorted_heaviest_first(self):
        prof = self.make_profile()
        assert [s.tag for s in prof.stats] == ["a", "b"]
        assert prof.total_busy_ns() == 500

    def test_rejects_nonpositive_makespan(self):
        with pytest.raises(ValueError):
            PhaseProfile.from_spans([], 0)

    def test_table_renders(self):
        out = self.make_profile().table()
        assert "kernel" in out and "p99_us" in out
        assert out.splitlines()[3].lstrip().startswith("a")

    def test_table_top_limits_rows(self):
        out = self.make_profile().table(top=1)
        # title + header + rule + one row
        assert len(out.splitlines()) == 4


class TestFromRealRun:
    def test_kernel_chains_visible_per_problem(self):
        res = run_hpx(LuleshOptions(nx=8, numReg=2), 4, 2, record_spans=True)
        prof = PhaseProfile.from_spans(res.trace.spans, res.runtime_ns)
        tags = set(prof.by_tag())
        # the paper's phases are directly visible
        assert any(t.startswith("stress:") for t in tags)
        assert any(t.startswith("node:") for t in tags)
        assert any(t.startswith("region") for t in tags)
        # every span of one tag folded into one row
        assert prof.by_tag()["reduce_dt"].count == 2
        # total across rows equals the trace's busy time
        assert prof.total_busy_ns() == sum(
            s.duration_ns for s in res.trace.spans
        )
