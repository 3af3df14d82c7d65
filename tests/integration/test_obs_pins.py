"""Byte pins of the observability exports that share one writer.

Pins one sha256 per export:

* the ``--metrics`` JSONL of three CLI runs — hpx and omp at s=6, and an
  hpx ``--execute`` run that injects a fault and rolls back — without the
  lines whose counter path matches the obs-diff ``DEFAULT_SKIP`` (the
  wall-clock ``/graph/*-time`` counters would move the hash between runs);
* the Chrome trace and the JSONL of a 3-rank :class:`SpanTracer` timeline
  driven by a fake wall clock (compute, send/receive and ``sync_all``
  spans), both as the exporters return them and as
  ``write_span_timeline`` writes them.  The CLI's ``--ranks`` timeline
  times real compute, so it cannot be pinned from the CLI.

It also checks that ``load_metric_values`` reads the same values from one
run's ``--counters`` JSON and its ``--metrics`` JSONL.

Regenerate the JSON (only for an intended change of output) with::

    PYTHONPATH=src:. python tests/integration/test_obs_pins.py
"""

from __future__ import annotations

import contextlib
import fnmatch
import hashlib
import io
import itertools
import json
import tempfile
from pathlib import Path

import pytest

from repro.harness.cli import main
from repro.obs import (
    SpanTracer,
    spans_to_chrome_trace,
    spans_to_jsonl_lines,
    write_span_timeline,
)
from repro.obs.diff import DEFAULT_SKIP, load_metric_values

PINS = Path(__file__).with_name("obs_pins.json")

#: name -> CLI flags of one ``--metrics`` run.
METRIC_RUNS: dict[str, list[str]] = {
    "hpx": ["--s", "6", "--r", "3", "--i", "3", "--threads", "4"],
    "omp": ["--impl", "omp", "--s", "6", "--r", "3", "--i", "3",
            "--threads", "4"],
    "hpx-rollback": ["--s", "8", "--r", "3", "--i", "6", "--execute",
                     "--threads", "4", "--inject-fault", "task:CalcQ*@3",
                     "--fault-seed", "1", "--auto-recover",
                     "--checkpoint-every", "2"],
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _skipped(line: str) -> bool:
    path = json.loads(line).get("path")
    return path is not None and any(
        fnmatch.fnmatch(path, pat) for pat in DEFAULT_SKIP
    )


def _run(name: str, tmp: Path, extra: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*METRIC_RUNS[name], "--q", *extra]) == 0


def metrics_digest(name: str) -> str:
    """sha256 of one run's ``--metrics`` JSONL without skipped paths."""
    with tempfile.TemporaryDirectory() as raw:
        out = Path(raw) / "metrics.jsonl"
        _run(name, Path(raw), ["--metrics", str(out)])
        kept = [ln for ln in out.read_text().splitlines() if not _skipped(ln)]
    return _digest("\n".join(kept))


def span_tracer() -> SpanTracer:
    """A 3-rank timeline with every span kind, on a fake wall clock."""
    ticks = itertools.count(0, 250)
    tracer = SpanTracer(n_ranks=3, wall_clock=lambda: next(ticks))
    for cycle in (1, 2):
        for rank in range(3):
            with tracer.span("forces", rank=rank, cycle=cycle):
                pass
        for src in range(3):
            dst = (src + 1) % 3
            ctx = tracer.message_send("halo", src, 4096 * (src + 1), cycle)
            tracer.message_recv("halo", dst, 4096 * (src + 1), ctx, cycle)
        with tracer.span("positions", rank=cycle, cycle=cycle):
            pass
        tracer.sync_all("dt-allreduce", cycle)
    tracer.message_recv("orphan", 0, 64, None)
    return tracer


def span_digests() -> dict[str, str]:
    spans = span_tracer().spans
    with tempfile.TemporaryDirectory() as raw:
        chrome, jsonl = Path(raw) / "t.json", Path(raw) / "t.jsonl"
        write_span_timeline(str(chrome), str(jsonl), spans)
        files = {"chrome-file": chrome.read_text(),
                 "jsonl-file": jsonl.read_text()}
    return {
        "chrome": _digest(json.dumps(spans_to_chrome_trace(spans))),
        "jsonl": _digest("\n".join(spans_to_jsonl_lines(spans))),
        **{key: _digest(text) for key, text in files.items()},
    }


def generate() -> dict:
    return {
        "metrics": {name: metrics_digest(name) for name in METRIC_RUNS},
        "spans": span_digests(),
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("name", list(METRIC_RUNS))
def test_metrics_jsonl_matches_pin(name, pinned):
    assert metrics_digest(name) == pinned["metrics"][name], name


def test_span_exports_match_pins(pinned):
    assert span_digests() == pinned["spans"]


def test_counters_and_metrics_files_load_the_same_values(tmp_path):
    counters, metrics = tmp_path / "c.json", tmp_path / "m.jsonl"
    _run("hpx", tmp_path,
         ["--counters", str(counters), "--metrics", str(metrics)])
    values = load_metric_values(str(counters))
    assert values == load_metric_values(str(metrics))
    assert "/threads/idle-rate" in values


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    PINS.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
