"""In-memory span tracing around the public entry points of each layer.

The benchmark wraps functions and methods of the program from the outside:
nothing in ``src/`` knows it is being traced.  A :class:`SpanRecorder`
keeps every span (name, start, end, parent, thread) in memory; the report
derives per-layer self time from them with :func:`self_times`, and
:meth:`SpanRecorder.write_jsonl` writes them out once the run is over.

Wrappers must be installed before the program objects are built:
``HpxLuleshProgram`` binds its kernel functions once, in its constructor.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

__all__ = [
    "Span",
    "SpanRecorder",
    "self_times",
    "total_times",
    "install",
]


class Span(NamedTuple):
    """One timed call: ``[start_ns, end_ns)`` on the monotonic clock."""

    sid: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    thread: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Collects spans and counts; parents are tracked per thread.

    Span ids come from one ``itertools.count`` and spans are appended to
    one list: both single operations under the interpreter lock, so
    threads can record concurrently without a lock of their own.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()  # calls of "count" targets
        self.items: Counter[str] = Counter()  # per-function work items
        self.missing: list[str] = []  # install targets the program lacks
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple[str, int, int, int | None]:
        """Open a span; returns the token :meth:`end` closes."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        return (name, sid, time.perf_counter_ns(), parent)

    def end(self, token) -> None:
        end_ns = time.perf_counter_ns()
        name, sid, start_ns, parent = token
        stack = self._stack()
        if stack and stack[-1] == sid:
            stack.pop()
        self.spans.append(
            Span(sid, name, start_ns, end_ns, parent, threading.get_ident())
        )

    def open_spans(self) -> dict:
        """This thread's spans opened by an ``open`` wrapper, by name."""
        spans = getattr(self._local, "open", None)
        if spans is None:
            spans = self._local.open = {}
        return spans

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def clear(self) -> None:
        """Forget everything recorded so far (e.g. the set-up phase)."""
        with self._lock:
            self.spans.clear()
            self.counts.clear()
            self.items.clear()

    def write_jsonl(self, path: str) -> None:
        """Write one JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start_ns):
                fh.write(json.dumps({
                    "sid": s.sid, "name": s.name, "start_ns": s.start_ns,
                    "end_ns": s.end_ns, "parent": s.parent, "thread": s.thread,
                }) + "\n")


def _covered_ns(lo: int, hi: int, intervals) -> int:
    """Length of the union of *intervals* clipped to ``[lo, hi)``."""
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in intervals if min(hi, b) > max(lo, a)
    )
    covered = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        covered += cur_b - cur_a
    return covered


def self_times(spans) -> dict[str, int]:
    """Total self time per span name, in ns.

    A span's self time is its duration minus the part of its interval that
    its direct children cover (children are clipped to the parent and
    overlapping children are counted once).
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    out: dict[str, int] = defaultdict(int)
    for s in spans:
        kids = children.get(s.sid, ())
        out[s.name] += s.duration_ns - _covered_ns(s.start_ns, s.end_ns, kids)
    return dict(out)


def total_times(spans) -> dict[str, int]:
    """Total inclusive duration per span name, in ns."""
    out: dict[str, int] = defaultdict(int)
    for s in spans:
        out[s.name] += s.duration_ns
    return dict(out)


# --- installing wrappers ------------------------------------------------------


def _span_wrapper(fn, recorder: SpanRecorder, name: str, items: bool):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        token = recorder.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(token)
            if items and len(args) >= 3:
                recorder.items[fn.__name__] += args[-1] - args[-2]

    return wrapper


def _count_wrapper(fn, recorder: SpanRecorder, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recorder.enabled:
            recorder.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _open_wrapper(fn, recorder: SpanRecorder, name: str):
    """Open span *name* when *fn* returns; a ``close`` wrapper ends it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if recorder.enabled:
            recorder.open_spans()[name] = recorder.begin(name)
        return result

    return wrapper


def _close_wrapper(fn, recorder: SpanRecorder, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            token = recorder.open_spans().pop(name, None)
            if token is not None:
                recorder.end(token)

    return wrapper


_WRAPPERS = {
    "span": lambda fn, rec, name: _span_wrapper(fn, rec, name, False),
    "items": lambda fn, rec, name: _span_wrapper(fn, rec, name, True),
    "count": _count_wrapper,
    "open": _open_wrapper,
    "close": _close_wrapper,
}


def install(recorder: SpanRecorder, targets, package: str = "repro",
            everywhere: bool = True):
    """Wrap every target; returns a callable that removes the wrappers.

    Each target is ``(module, qualname, span_name, kind)``: *qualname* is a
    function (``"calc_acceleration"``) or a method (``"Class.method"``).
    *kind* is one of:

    * ``"span"`` — each call is a span;
    * ``"items"`` — a span, and the last two positional arguments are a
      ``[lo, hi)`` range whose length is summed per function;
    * ``"count"`` — each call is counted, not timed;
    * ``"open"`` / ``"close"`` — a call to the first opens the span that a
      later call to the second (same thread) closes.

    With *everywhere*, a function is replaced in every loaded module of
    *package* that holds it (modules that did ``from x import f`` keep
    their own reference); otherwise only in the named module.

    A target the program no longer has is skipped and named in
    ``recorder.missing``: its layer then reads 0 instead of the traced run
    failing.
    """
    undo: list[tuple[object, str, object]] = []
    for module_name, qualname, span_name, kind in targets:
        try:
            module = sys.modules.get(module_name) or __import__(
                module_name, fromlist=["_"]
            )
            cls_name, _, attr = qualname.rpartition(".")
            owners = [getattr(module, cls_name)] if cls_name else []
            original = getattr(owners[0] if owners else module, attr)
        except (ImportError, AttributeError):
            recorder.missing.append(f"{module_name}.{qualname}")
            continue
        wrapped = _WRAPPERS[kind](original, recorder, span_name)
        if not owners and not everywhere:
            owners = [module]
        elif not owners:
            owners = [
                m for key, m in list(sys.modules.items())
                if m is not None
                and (key == package or key.startswith(package + "."))
                and getattr(m, attr, None) is original
            ]
        for owner in owners:
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall
