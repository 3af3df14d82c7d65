"""Tests for cross-rank span tracing: clocks, causality, merged exports."""

import itertools
import json

import pytest

from repro.obs import (
    LogicalClock,
    SpanTracer,
    spans_to_chrome_trace,
    spans_to_jsonl_lines,
    write_span_timeline,
)


def fake_wall(step_ns=100):
    """A deterministic wall clock advancing *step_ns* per call."""
    counter = itertools.count(0, step_ns)
    return lambda: next(counter)


class TestLogicalClock:
    def test_tick_advances(self):
        c = LogicalClock()
        assert c.tick() == 1
        assert c.tick() == 2

    def test_observe_merges_remote(self):
        c = LogicalClock(3)
        assert c.observe(10) == 11  # max(3, 10) + 1
        assert c.observe(2) == 12  # max(11, 2) + 1


class TestComputeSpans:
    def test_span_measures_and_advances_rank_clock(self):
        tr = SpanTracer(n_ranks=2, wall_clock=fake_wall())
        with tr.span("nodal_forces", rank=0, cycle=1):
            pass
        assert len(tr.spans) == 1
        s = tr.spans[0]
        assert s.name == "nodal_forces"
        assert s.kind == "compute"
        assert s.cycle == 1
        assert s.duration_ns >= 1
        assert tr.now(0) == s.end_ns
        assert tr.now(1) == 0  # other ranks untouched

    def test_consecutive_spans_do_not_overlap(self):
        tr = SpanTracer(wall_clock=fake_wall())
        for name in ("a", "b", "c"):
            with tr.span(name):
                pass
        for prev, cur in zip(tr.spans, tr.spans[1:]):
            assert cur.start_ns == prev.end_ns

    def test_bad_rank_count_rejected(self):
        with pytest.raises(ValueError, match="n_ranks"):
            SpanTracer(n_ranks=0)


class TestMessageCausality:
    def test_recv_parented_to_send(self):
        tr = SpanTracer(n_ranks=2, wall_clock=fake_wall())
        ctx = tr.message_send("halo_send", src=0, nbytes=800, cycle=1)
        recv = tr.message_recv("halo_recv", dst=1, nbytes=800, ctx=ctx, cycle=1)
        assert recv.parent_id == ctx.span_id
        assert recv.parent_rank == 0
        assert recv.kind == "comm"

    def test_recv_never_starts_before_ready(self):
        tr = SpanTracer(n_ranks=2, latency_ns=5_000, wall_clock=fake_wall())
        ctx = tr.message_send("s", src=0, nbytes=400)
        recv = tr.message_recv("r", dst=1, nbytes=400, ctx=ctx)
        assert recv.start_ns >= ctx.ready_ns
        send = tr.spans[0]
        assert ctx.ready_ns == send.end_ns + 5_000

    def test_lamport_order_across_ranks(self):
        tr = SpanTracer(n_ranks=3, wall_clock=fake_wall())
        ctx = tr.message_send("s", src=2, nbytes=100)
        recv = tr.message_recv("r", dst=0, nbytes=100, ctx=ctx)
        assert recv.clock > ctx.clock

    def test_recv_without_context_is_unparented(self):
        tr = SpanTracer(n_ranks=2, wall_clock=fake_wall())
        recv = tr.message_recv("r", dst=1, nbytes=100, ctx=None)
        assert recv.parent_id is None
        assert recv.parent_rank is None

    def test_wire_model_scales_with_bytes(self):
        tr = SpanTracer(bytes_per_ns=4.0)
        assert tr.message_ns(4000) == 1000
        assert tr.message_ns(0) == 1  # never zero-width

    def test_sync_all_aligns_ranks(self):
        tr = SpanTracer(n_ranks=3, wall_clock=fake_wall())
        tr.message_send("s", src=0, nbytes=10_000)  # rank 0 runs ahead
        tr.sync_all("allreduce", cycle=1)
        assert len({tr.now(r) for r in range(3)}) == 1
        syncs = [s for s in tr.spans if s.kind == "sync"]
        assert len(syncs) == 3

    def test_sync_all_noop_single_rank(self):
        tr = SpanTracer(n_ranks=1)
        tr.sync_all("allreduce")
        assert tr.spans == []


class TestExports:
    def make_spans(self):
        tr = SpanTracer(n_ranks=2, wall_clock=fake_wall())
        with tr.span("compute", rank=0, cycle=1):
            pass
        ctx = tr.message_send("halo_send", src=0, nbytes=800, cycle=1)
        tr.message_recv("halo_recv", dst=1, nbytes=800, ctx=ctx, cycle=1)
        return tr.spans

    def test_jsonl_header_and_order(self):
        lines = spans_to_jsonl_lines(self.make_spans())
        header = json.loads(lines[0])
        assert header["schema"] == "lulesh-hpx-spans/1"
        assert header["n_spans"] == 3
        assert header["n_ranks"] == 2
        rows = [json.loads(raw) for raw in lines[1:]]
        assert [(r["rank"], r["start_ns"]) for r in rows] == sorted(
            (r["rank"], r["start_ns"]) for r in rows
        )

    def test_chrome_trace_one_process_per_rank(self):
        events = spans_to_chrome_trace(self.make_spans())
        procs = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert procs == {0: "rank-0", 1: "rank-1"}

    def test_chrome_trace_flow_edge_for_cross_rank_parent(self):
        events = spans_to_chrome_trace(self.make_spans())
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(finishes) == 1
        assert starts[0]["pid"] == 0  # arrow starts at the send on rank 0
        assert finishes[0]["pid"] == 1  # and lands on the recv on rank 1
        assert starts[0]["ts"] <= finishes[0]["ts"]

    def test_write_span_timeline_writes_both(self, tmp_path):
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        write_span_timeline(str(chrome), str(jsonl), self.make_spans())
        assert json.loads(chrome.read_text())["traceEvents"]
        assert len(jsonl.read_text().splitlines()) == 4  # header + 3 spans
