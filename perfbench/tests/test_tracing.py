"""Self-time arithmetic and wrapper installation of the traced run."""

import sys
import threading
import types

from tracing import Span, SpanRecorder, install, self_times, total_times


def _span(sid, name, start, end, parent=None):
    return Span(sid, name, start, end, parent, 0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, "outer", 0, 100),
        _span(1, "mid", 10, 60, parent=0),
        _span(2, "leaf", 20, 30, parent=1),
        _span(3, "mid", 70, 80, parent=0),
    ]
    assert self_times(spans) == {"outer": 40, "mid": 50, "leaf": 10}
    assert total_times(spans) == {"outer": 100, "mid": 60, "leaf": 10}


def test_overlapping_children_are_counted_once():
    spans = [
        _span(0, "p", 0, 100),
        _span(1, "c", 10, 50, parent=0),
        _span(2, "c", 40, 70, parent=0),  # overlaps the first child
        _span(3, "c", 70, 75, parent=0),  # touches the second child
    ]
    assert self_times(spans)["p"] == 100 - 65


def test_children_are_clipped_to_the_parent():
    spans = [
        _span(0, "p", 10, 50),
        _span(1, "c", 0, 20, parent=0),
        _span(2, "c", 40, 90, parent=0),
    ]
    assert self_times(spans)["p"] == 40 - 10 - 10


def test_recorder_nests_per_thread():
    rec = SpanRecorder()
    outer = rec.begin("outer")
    seen = {}

    def other_thread():
        token = rec.begin("other")
        rec.end(token)
        seen["parent"] = rec.spans[-1].parent

    t = threading.Thread(target=other_thread)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    inner = rec.begin("inner")
    rec.end(inner)
    rec.end(outer)
    by_name = {s.name: s for s in rec.spans}
    assert seen["parent"] is None  # another thread's stack is its own
    assert by_name["inner"].parent == by_name["outer"].sid
    assert by_name["outer"].parent is None


def test_install_replaces_every_imported_reference_and_undoes():
    lib = types.ModuleType("fakepkg.lib")

    def kernel(domain, lo, hi):
        return hi - lo

    def helper():
        return 7

    lib.kernel = kernel
    lib.helper = helper
    user = types.ModuleType("fakepkg.user")
    user.kernel = kernel  # as after "from fakepkg.lib import kernel"
    sys.modules.update({"fakepkg": types.ModuleType("fakepkg"),
                        "fakepkg.lib": lib, "fakepkg.user": user})
    try:
        rec = SpanRecorder()
        undo = install(rec, [
            ("fakepkg.lib", "kernel", "kernels.k", "items"),
            ("fakepkg.lib", "helper", "helper.calls", "count"),
        ], package="fakepkg")
        assert lib.kernel(None, 2, 5) == 3
        assert user.kernel(None, 0, 4) == 4
        assert lib.helper() == 7
        assert [s.name for s in rec.spans] == ["kernels.k", "kernels.k"]
        assert rec.items["kernel"] == 7
        assert rec.counts["helper.calls"] == 1
        undo()
        assert lib.kernel is kernel and user.kernel is kernel
        assert lib.helper is helper
    finally:
        for key in ("fakepkg", "fakepkg.lib", "fakepkg.user"):
            sys.modules.pop(key, None)


def test_open_close_pair_spans_the_calls_between():
    mod = types.ModuleType("fakepkg2")

    class Runtime:
        def begin(self):
            pass

        def end(self):
            pass

    mod.Runtime = Runtime
    sys.modules["fakepkg2"] = mod
    try:
        rec = SpanRecorder()
        undo = install(rec, [
            ("fakepkg2", "Runtime.begin", "capture", "open"),
            ("fakepkg2", "Runtime.end", "capture", "close"),
        ], package="fakepkg2")
        rt = Runtime()
        rt.begin()
        child = rec.begin("work")
        rec.end(child)
        rt.end()
        undo()
        by_name = {s.name: s for s in rec.spans}
        assert by_name["work"].parent == by_name["capture"].sid
        assert self_times(rec.spans)["capture"] == (
            by_name["capture"].duration_ns - by_name["work"].duration_ns
        )
    finally:
        sys.modules.pop("fakepkg2", None)


def test_missing_targets_are_skipped_and_named():
    rec = SpanRecorder()
    undo = install(rec, [
        ("perfbench_no_such_module", "f", "x", "span"),
        ("tracing", "NoSuchClass.method", "x", "span"),
        ("tracing", "no_such_function", "x", "span"),
    ], package="perfbench_no_such_package")
    undo()
    assert rec.missing == [
        "perfbench_no_such_module.f",
        "tracing.NoSuchClass.method",
        "tracing.no_such_function",
    ]
