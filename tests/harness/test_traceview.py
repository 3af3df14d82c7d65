"""Unit tests for trace export and ASCII visualization."""

import json

import pytest

from repro.amt.runtime import AmtRuntime
from repro.obs.traceview import ascii_gantt, to_chrome_trace, write_chrome_trace
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig
from repro.simcore.trace import TaskSpan


def make_spans():
    return [
        TaskSpan(worker=0, task_id=0, tag="a", start_ns=0, end_ns=1000),
        TaskSpan(worker=1, task_id=1, tag="b", start_ns=500, end_ns=2000,
                 parents=(0,)),
    ]


class TestChromeTrace:
    def test_events_structure(self):
        events = to_chrome_trace(make_spans())
        assert events[0]["ph"] == "M"  # process-name metadata
        tasks = [e for e in events if e["ph"] == "X"]
        assert len(tasks) == 2
        assert tasks[0]["ts"] == 0.0
        assert tasks[0]["dur"] == 1.0  # 1000 ns = 1 us
        assert tasks[1]["tid"] == 1

    def test_thread_name_metadata_labels_workers(self):
        events = to_chrome_trace(make_spans())
        names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {0: "worker-0", 1: "worker-1"}

    def test_n_workers_names_idle_workers_too(self):
        events = to_chrome_trace(make_spans(), n_workers=4)
        threads = [e for e in events
                   if e["ph"] == "M" and e["name"] == "thread_name"]
        assert [e["args"]["name"] for e in threads] == [
            f"worker-{w}" for w in range(4)
        ]

    def test_flow_events_follow_parent_edges(self):
        events = to_chrome_trace(make_spans())
        (s,) = [e for e in events if e["ph"] == "s"]
        (f,) = [e for e in events if e["ph"] == "f"]
        assert s["id"] == f["id"]
        assert s["ts"] == 1.0  # parent end
        assert f["ts"] == 0.5  # child start
        assert f["bp"] == "e"

    def test_counter_tracks_present_and_optional(self):
        events = to_chrome_trace(make_spans())
        counters = [e for e in events if e["ph"] == "C"]
        running = [e for e in counters if e["name"] == "running-tasks"]
        # two edges per span (start+end)
        assert [e["args"]["running"] for e in running] == [1, 2, 1, 0]
        assert any(e["name"] == "worker#0/busy" for e in counters)

    def test_write_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), make_spans())
        data = json.loads(path.read_text())
        phases = {e["ph"] for e in data["traceEvents"]}
        assert phases == {"M", "X", "s", "f", "C"}
        assert len([e for e in data["traceEvents"] if e["ph"] == "X"]) == 2

    def test_from_real_runtime(self):
        rt = AmtRuntime(MachineConfig(), CostModel(), 4, record_spans=True)
        for _ in range(8):
            rt.async_(lambda: None, cost_ns=1000, tag="k")
        rt.flush()
        events = to_chrome_trace(rt.stats.trace.spans)
        assert len([e for e in events if e["ph"] == "X"]) == 8


class TestAsciiGantt:
    def test_rows_per_worker(self):
        out = ascii_gantt(make_spans(), makespan_ns=2000, n_workers=2)
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("w00")
        assert "#" in lines[0]

    def test_busy_fraction_visible(self):
        spans = [TaskSpan(0, 0, "t", 0, 500)]
        out = ascii_gantt(spans, makespan_ns=1000, n_workers=1, width=10)
        row = out.splitlines()[0]
        assert row.count("#") == 5

    def test_worker_cap(self):
        out = ascii_gantt([], makespan_ns=100, n_workers=24, max_workers=4)
        lines = out.splitlines()
        assert len(lines) == 5
        assert "more workers" in lines[-1]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ascii_gantt([], makespan_ns=0, n_workers=1)
        with pytest.raises(ValueError):
            ascii_gantt([], makespan_ns=100, n_workers=1, width=2)


class TestReplayCycleFlowEdges:
    """Flow edges must resolve per (cycle, task_id), not per bare task id.

    A graph-replayed run re-fires the same task graph every cycle; merged
    spans from several cycles can then carry overlapping timelines.  A
    bare-id parent lookup is silently overwritten by every later cycle,
    attaching all arrows to the *last* cycle's spans — and drawing arrows
    that point backwards in time.
    """

    def two_cycle_spans(self):
        return [
            # cycle 1: a -> b
            TaskSpan(worker=0, task_id=0, tag="a", start_ns=0, end_ns=1000,
                     cycle=1),
            TaskSpan(worker=1, task_id=1, tag="b", start_ns=1000,
                     end_ns=2000, parents=(0,), cycle=1),
            # cycle 2 (replayed): same ids, later on the merged timeline
            TaskSpan(worker=0, task_id=0, tag="a", start_ns=5000,
                     end_ns=6000, cycle=2),
            TaskSpan(worker=1, task_id=1, tag="b", start_ns=6000,
                     end_ns=7000, parents=(0,), cycle=2),
        ]

    def test_edges_attach_within_their_cycle(self):
        events = to_chrome_trace(self.two_cycle_spans())
        starts = sorted((e for e in events if e["ph"] == "s"),
                        key=lambda e: e["ts"])
        # one arrow per cycle, each rooted at its own cycle's parent end
        assert [e["ts"] for e in starts] == [1.0, 6.0]

    def test_no_backwards_arrows(self):
        events = to_chrome_trace(self.two_cycle_spans())
        pairs = {}
        for e in events:
            if e["ph"] in ("s", "f"):
                pairs.setdefault(e["id"], {})[e["ph"]] = e["ts"]
        assert pairs
        for ts in pairs.values():
            assert ts["s"] <= ts["f"]

    def test_cross_segment_edge_falls_back_to_earlier_cycle(self):
        # a child whose parent retired in a previous flush segment (the
        # Fig. 5 mid-cycle barrier) still gets its arrow
        spans = [
            TaskSpan(worker=0, task_id=0, tag="a", start_ns=0, end_ns=1000,
                     cycle=1),
            TaskSpan(worker=1, task_id=9, tag="b", start_ns=5000,
                     end_ns=6000, parents=(0,), cycle=2),
        ]
        events = to_chrome_trace(spans)
        (s,) = [e for e in events if e["ph"] == "s"]
        assert s["ts"] == 1.0

    def test_x_events_carry_cycle(self):
        events = to_chrome_trace(self.two_cycle_spans())
        cycles = [e["args"]["cycle"] for e in events if e["ph"] == "X"]
        assert sorted(cycles) == [1, 1, 2, 2]

    def test_real_replayed_run_has_no_backwards_arrows(self):
        from repro.core.driver import run_hpx
        from repro.lulesh.options import LuleshOptions

        res = run_hpx(LuleshOptions(nx=6, numReg=2), 4, 3,
                      record_spans=True, replay_graph=True)
        cycles = {s.cycle for s in res.trace.spans}
        assert len(cycles) == 3  # merged spans span all replayed cycles
        events = to_chrome_trace(res.trace.spans)
        pairs = {}
        for e in events:
            if e["ph"] in ("s", "f"):
                pairs.setdefault(e["id"], {})[e["ph"]] = e["ts"]
        assert pairs
        for ts in pairs.values():
            assert ts["s"] <= ts["f"]
