"""The OpenMP cycle memo against fresh sessions.

A warm OpenMP session simulates a timing-only, fault-free cycle once and
adds its stats delta on later cycles, across jobs too.  Every job a warm
session serves must give the payload and counter file of the same job on
a fresh session that issues every loop of every cycle: the oracle's
memo is switched off.  The counter files are compared without the
families a campaign's cache snapshot sheds as warmth-dependent
(``SNAPSHOT_SKIP``): a warm arena reuses the buffers of earlier jobs, so
its ``/arena/*`` tallies differ from a fresh one's.
"""

import fnmatch

import pytest

from repro.core.session import Session
from repro.lulesh.options import LuleshOptions
from repro.obs.registry import CounterRegistry
from repro.openmp.runtime import OmpStats
from repro.resilience.plan import ResiliencePlan
from repro.serve.executor import SNAPSHOT_SKIP
from repro.simcore.costmodel import CostModel

OPTS = LuleshOptions(nx=6, numReg=3)
STALL = ("task:*:stall@2",)

#: (iterations, injected faults): clean jobs, a stalled one, clean again.
TIMING_JOBS = (
    [(i, ()) for i in (1, 2, 3, 4)] + [(3, STALL)]
    + [(i, ()) for i in (4, 1, 2, 3)]
)


def make_session(threads, schedule, execute, cost_model=None):
    return Session("omp", OPTS, threads, execute=execute,
                   omp_schedule=schedule, cost_model=cost_model)


def run_job(sess, iterations, inject):
    plan = ResiliencePlan(inject=inject) if inject else None
    registry = CounterRegistry()
    result = sess.run(iterations, registry=registry, resilience=plan)
    d = result.domain
    payload = {
        "runtime_ns": result.runtime_ns,
        "iterations": result.iterations,
        "utilization": result.utilization,
        "n_loops": result.n_loops,
        "n_regions": result.n_regions,
        "physics": None if d is None else (
            float(d.e[0]), float(d.time), float(d.deltatime), d.cycle,
        ),
    }
    counters = registry.to_json_dict()
    counters["counters"] = {
        path: entry for path, entry in counters["counters"].items()
        if not any(fnmatch.fnmatch(path, skip) for skip in SNAPSHOT_SKIP)
    }
    return payload, counters


def check_against_fresh(monkeypatch, threads, schedule, execute, jobs,
                        cost_model=None):
    """Serve *jobs* on one warm session, each checked against the oracle;
    returns the warm session and its payloads."""
    warm = make_session(threads, schedule, execute, cost_model)
    payloads = []
    for k, (iterations, inject) in enumerate(jobs):
        if k:
            warm.rewind()
        got = run_job(warm, iterations, inject)
        with monkeypatch.context() as patch:
            patch.setattr(OmpStats, "integral", lambda self: False)
            want = run_job(
                make_session(threads, schedule, execute, cost_model),
                iterations, inject,
            )
        assert got == want, (k, iterations, inject)
        payloads.append(got[0])
    return warm, payloads


@pytest.mark.parametrize("schedule", ["static", "dynamic"])
@pytest.mark.parametrize("threads", [1, 8, 48])
class TestWarmSessionMatchesFresh:
    def test_timing_only_jobs(self, threads, schedule, monkeypatch):
        warm, payloads = check_against_fresh(
            monkeypatch, threads, schedule, False, TIMING_JOBS,
        )
        # The default cost model's times are ints, so the memo was kept,
        # and the stalled job (the fifth, i=3) did stall.
        assert warm.program._cycle_delta is not None
        assert payloads[4]["runtime_ns"] > payloads[2]["runtime_ns"]

    def test_execute_jobs(self, threads, schedule, monkeypatch):
        warm, _ = check_against_fresh(
            monkeypatch, threads, schedule, True,
            [(i, ()) for i in (1, 2, 3, 4)],
        )
        assert warm.program._cycle_delta is None


def test_float_cost_model_issues_every_loop(monkeypatch):
    """A float term makes the summed delta inexact: no memo is kept, and
    every job still matches a fresh session."""
    model = CostModel(omp_fork_base_ns=1800.1, omp_loop_setup_ns=150.3)
    warm, _ = check_against_fresh(
        monkeypatch, 8, "static", False, TIMING_JOBS, model,
    )
    assert warm.program._cycle_delta is None
    assert isinstance(warm.rt.stats.parallel_ns, float)


def test_memo_adds_the_first_cycles_delta():
    """After one simulated cycle, a cycle is the first cycle's delta added
    in one step, and no loop is issued."""
    sess = make_session(8, "static", False)
    sess.run(1)
    one = sess.rt.stats.copy()
    issued = []
    sess.rt.loop = lambda *a, **k: issued.append(a)
    sess.run(2)
    stats = sess.rt.stats
    assert issued == []
    assert stats.total_ns == 3 * one.total_ns
    assert stats.busy_ns == [3 * ns for ns in one.busy_ns]
    assert (stats.n_regions, stats.n_loops) == (3 * one.n_regions,
                                                3 * one.n_loops)
