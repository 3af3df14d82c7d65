"""Memoized graph replay against re-simulating every replayed cycle.

``ResimulatingRuntime`` is the reference: its ``replay_graph`` is a
verbatim copy of ``AmtRuntime.replay_graph`` as it was before replayed
cycles were memoized, handing every segment of every replay to the pool.
Both runtimes must produce the same run on every observable: the run
statistics and per-worker traces, every span, the counter samples, the
Chrome trace, the flight-recorder JSONL and, in execute mode, every float
Domain array bit for bit.  They must also fail the same way and skip the
memo whenever a fault plan or replay policy is armed.  On a warm executor
the memo outlives the job: it follows the template, through a
fault-injected job and the recapture after it.  A timing-only run's hits
serve its settled segments without re-arming them or running a body.
"""

import dataclasses
import fnmatch
import json
import time
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.amt import runtime
from repro.amt.errors import AmtError, TaskGroupError
from repro.amt.graph import reset_segment
from repro.amt.runtime import AmtRuntime
from repro.core import session
from repro.core.driver import run_hpx, run_naive_hpx
from repro.core.hpx_lulesh import HpxVariant
from repro.lulesh.errors import QStopError
from repro.lulesh.options import LuleshOptions
from repro.obs.diff import DEFAULT_SKIP
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import CounterRegistry
from repro.obs.traceview import to_chrome_trace
from repro.resilience.plan import ResiliencePlan
from repro.serve import JobSpec, executor, resolve_spec
from repro.simcore.costmodel import CostModel
from repro.simcore.machine import MachineConfig
from repro.simcore.pool import SimWorkerPool
from tests.integration.test_sim_golden import POLICIES


class ResimulatingRuntime(AmtRuntime):
    """The reference: every replayed segment is simulated again."""

    def replay_graph(self, template):
        if self._pending:
            raise AmtError("cannot replay with pending tasks")
        if self._recorder is not None:
            raise AmtError("cannot replay while capturing")
        rearm_ns = 0
        for seg in template.segments:
            t0 = time.perf_counter_ns()
            reset_segment(seg)
            rearm_ns += time.perf_counter_ns() - t0
            self._run_segment(seg.tasks)
            if seg.wait_futures is not None:
                self._check_waited(seg.wait_futures, seg.rethrow)
        return rearm_ns


CYCLES = 5
OPTS = LuleshOptions(nx=6, numReg=5)
#: Counters the two runtimes may disagree on: host wall time, and the
#: memo-hit count itself (the reference never re-applies).
COUNTER_SKIP = tuple(DEFAULT_SKIP) + ("/graph/memo-hits",)
CONFIGS = [("hpx", v) for v in ("fig5", "fig6", "fig7", "full")] + [
    ("naive", "-")
] + [("policy", name) for name in POLICIES]


@contextmanager
def runtimes_of(cls, module=session):
    """Build *module*'s runtimes as *cls*; yields the list of them."""
    made = []

    def make(*args, **kwargs):
        made.append(cls(*args, **kwargs))
        return made[-1]

    with mock.patch.object(module, "AmtRuntime", make):
        yield made


def run_config(kind, setting, threads, execute, resilience=None):
    """One recorded run; returns its result, runtime, registry, recorder."""
    registry = CounterRegistry()
    recorder = FlightRecorder()
    common = dict(execute=execute, registry=registry, record_spans=True,
                  flight_recorder=recorder, resilience=resilience)
    if kind == "naive":
        res = run_naive_hpx(OPTS, threads, CYCLES, **common)
    elif kind == "hpx":
        res = run_hpx(OPTS, threads, CYCLES,
                      variant=getattr(HpxVariant, setting)(), **common)
    else:  # the scheduler-policy lane of test_sim_golden
        variant = HpxVariant(
            prioritize_expensive_regions=(setting == "priorities")
        )
        res = run_hpx(OPTS, threads, CYCLES, variant=variant,
                      policy=POLICIES[setting], **common)
    return res, registry, recorder


def float_arrays(domain):
    """Every float64 Domain array and scalar, as int64 bit patterns."""
    out = {}
    for name, value in sorted(vars(domain).items()):
        if isinstance(value, np.ndarray) and value.dtype == np.float64:
            out[name] = value.view(np.int64).tolist()
        elif isinstance(value, float):
            out[name] = int(np.float64(value).view(np.int64))
    return out


def observe(rt, res, registry, recorder, tmp_path, name):
    """Everything a run exposes, in comparable form."""
    stats = rt.stats
    counters = registry.to_json_dict()
    counters["counters"] = {
        path: c for path, c in counters["counters"].items()
        if not any(fnmatch.fnmatch(path, pat) for pat in COUNTER_SKIP)
    }
    flight = tmp_path / f"{name}.jsonl"
    recorder.dump_jsonl(str(flight))
    spans = stats.trace.spans
    return {
        "stats": (stats.total_ns, stats.n_tasks, stats.n_flushes,
                  stats.spawn_ns, stats.utilization(), res.iterations),
        "workers": stats.trace.workers,
        "spans": spans,
        "counters": json.dumps(counters, sort_keys=True),
        "chrome": json.dumps(to_chrome_trace(spans, n_workers=rt.n_workers)),
        "flight": flight.read_bytes(),
        "arrays": None if res.domain is None else float_arrays(res.domain),
    }


def assert_same(new, ref):
    assert new.keys() == ref.keys()
    for key in new:
        assert new[key] == ref[key], key


@pytest.mark.parametrize("execute", [False, True], ids=["timing", "execute"])
@pytest.mark.parametrize("threads", [1, 2, 24, 48])
@pytest.mark.parametrize("kind,setting", CONFIGS,
                         ids=[s if k != "naive" else k for k, s in CONFIGS])
def test_memoized_replay_matches_resimulation(kind, setting, threads, execute,
                                              tmp_path):
    observed = {}
    for cls in (AmtRuntime, ResimulatingRuntime):
        with runtimes_of(cls) as made:
            res, registry, recorder = run_config(kind, setting, threads,
                                                 execute)
        observed[cls] = observe(made[0], res, registry, recorder, tmp_path,
                                cls.__name__)
        if cls is AmtRuntime:
            # Cycle 1 captures, cycle 2 fills the memo, the rest re-apply.
            assert registry.counter("/graph/memo-hits").sample_value() == (
                CYCLES - 2
            )
    assert_same(observed[AmtRuntime], observed[ResimulatingRuntime])


@contextmanager
def hit_spies(made):
    """Log, per ``reset_segment`` and ``SimWorkerPool.reapply`` call of the
    runtime in *made*, whether its replay was a memo hit."""
    calls = {"reset_segment": [], "reapply": []}
    real_reset, real_reapply = runtime.reset_segment, SimWorkerPool.reapply

    def reset(seg):
        calls["reset_segment"].append(made[0].replayed_from_memo)
        real_reset(seg)

    def reapply(pool, tasks, result):
        calls["reapply"].append(made[0].replayed_from_memo)
        real_reapply(pool, tasks, result)

    with mock.patch.object(runtime, "reset_segment", reset), \
            mock.patch.object(SimWorkerPool, "reapply", reapply):
        yield calls


@pytest.mark.parametrize("execute", [False, True], ids=["timing", "execute"])
@pytest.mark.parametrize("threads", [1, 2, 24, 48])
@pytest.mark.parametrize("kind,setting", CONFIGS,
                         ids=[s if k != "naive" else k for k, s in CONFIGS])
def test_timing_only_hits_run_no_body(kind, setting, threads, execute):
    """The runs test_memoized_replay_matches_resimulation compares with
    the reference on every observable: their timing-only memo hits
    neither re-arm a segment nor re-apply its bodies."""
    with runtimes_of(AmtRuntime) as made, hit_spies(made) as calls:
        _, registry, _ = run_config(kind, setting, threads, execute)
    assert registry.counter("/graph/memo-hits").sample_value() == CYCLES - 2
    if execute:
        assert calls["reapply"] and all(calls["reapply"])
    else:
        assert calls["reapply"] == []
        assert calls["reset_segment"] and not any(calls["reset_segment"])


def test_unsettled_segment_takes_the_full_path(tmp_path):
    """A Fig. 5 timing-only run (one segment per barrier) whose fourth
    segment has one future re-armed by hand before cycle 4, a memo hit:
    that segment alone is re-armed and re-applied."""
    observed = {}
    for cls in (AmtRuntime, ResimulatingRuntime):
        recorder, registry = FlightRecorder(), CounterRegistry()
        with runtimes_of(cls) as made:
            sess = session.Session("hpx", OPTS, 8, variant=HpxVariant.fig5(),
                                   record_spans=True,
                                   flight_recorder=recorder)
        sess.run(3, registry=registry)
        template = sess.program._template
        assert template.timing_only
        seg = template.segments[3]
        seg.futures[0]._reset_for_replay()
        with hit_spies(made) as calls:
            sess.program.run(2)
        if cls is AmtRuntime:
            assert calls == {"reset_segment": [True], "reapply": [True]}
            assert seg.futures[0].is_ready()
        res = sess._result(made[0].stats, 5)
        observed[cls] = observe(made[0], res, registry, recorder, tmp_path,
                                cls.__name__)
    assert_same(observed[AmtRuntime], observed[ResimulatingRuntime])


class Boom(RuntimeError):
    pass


def test_raising_body_is_stored_as_when_simulated():
    """A hand-built two-segment graph whose middle task raises on its
    fourth call: the third replay, which re-applies the memo."""
    outcomes = {}
    for cls in (AmtRuntime, ResimulatingRuntime):
        rt = cls(MachineConfig(), CostModel(), 4, record_spans=True)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) == 4:
                raise Boom(len(calls))
            return len(calls)

        rt.begin_capture()
        a = rt.async_(lambda: 1, cost_ns=500, tag="a")
        b = rt.continuation(a, lambda f: flaky(), cost_ns=700, tag="b")
        c = rt.continuation(b, lambda f: f.get() * 10, cost_ns=300, tag="c")
        rt.wait_all([b, c])
        d = rt.when_all([a, c], tag="join")
        rt.flush()
        template = rt.end_capture()
        replays = []
        for _ in range(4):
            try:
                rt.replay_graph(template)
                outcome = ("ok", d.get()[1].get())
            except TaskGroupError as exc:
                outcome = ("raised", str(exc))
            replays.append((
                outcome,
                rt.replayed_from_memo,
                [repr(f.exception_nowait()) for f in (a, b, c)],
            ))
        outcomes[cls] = (replays, rt.stats.total_ns, rt.stats.n_flushes,
                         rt.stats.trace.workers, rt.stats.trace.spans)
    new, ref = outcomes[AmtRuntime], outcomes[ResimulatingRuntime]
    assert [r[0] for r in ref[0]] == [
        ("ok", 20), ("ok", 30),
        ("raised", "2 task(s) failed: b: Boom: 4; c: Boom: 4"), ("ok", 50),
    ]
    assert ref[0][2][2] == [repr(None), repr(Boom(4)), repr(Boom(4))]
    assert [r[1] for r in new[0]] == [False, True, True, True]
    assert [(r[0], r[2]) for r in new[0]] == [(r[0], r[2]) for r in ref[0]]
    assert new[1:] == ref[1:]


@pytest.mark.parametrize("workers", [1, 3])
def test_bodies_run_in_simulated_dispatch_order(workers):
    """Five root-and-continuation pairs and a join, created pair by pair:
    LIFO pops, steals and long roots make the dispatch order differ from
    creation order, and each body logs its turn."""
    logs = {}
    for cls in (AmtRuntime, ResimulatingRuntime):
        rt = cls(MachineConfig(), CostModel(), workers)
        log = []
        rt.begin_capture()
        leaves = []
        for i in range(5):
            root = rt.async_(log.append, f"r{i}", cost_ns=4000 + 1500 * i)
            leaves.append(rt.continuation(
                root, lambda f, i=i: log.append(f"c{i}"), cost_ns=900
            ))
        rt.when_all(leaves)
        rt.flush()
        template = rt.end_capture()
        for _ in range(3):
            log.append("|")
            rt.replay_graph(template)
        logs[cls] = log
    assert logs[AmtRuntime] == logs[ResimulatingRuntime]
    created = [f"{k}{i}" for i in range(5) for k in "rc"]
    assert logs[AmtRuntime][-10:] != created


def build_program(cls, kind, setting, recorder):
    rt = cls(MachineConfig(), CostModel(), 8, record_spans=True,
             flight_recorder=recorder)
    domain = session.Domain(OPTS)
    shape = session.ProblemShape.from_domain(domain)
    if kind == "naive":
        return session.NaiveHpxProgram(rt, shape, session.DEFAULT_COSTS, domain)
    return session.HpxLuleshProgram(
        rt, shape, session.DEFAULT_COSTS, nodal_partition=64,
        elements_partition=64, domain=domain,
        variant=getattr(HpxVariant, setting)(),
    )


@pytest.mark.parametrize("kind,setting", [("hpx", "fig5"), ("hpx", "full"),
                                          ("naive", "-")])
def test_physics_abort_in_reapplied_cycle(kind, setting):
    """q exceeds qstop in cycle 4, a re-applied cycle: the same error
    escapes the same step and leaves the same state behind."""
    observed = {}
    for cls in (AmtRuntime, ResimulatingRuntime):
        recorder = FlightRecorder()
        program = build_program(cls, kind, setting, recorder)
        program.run(3)
        domain, rt = program.domain, program.rt
        domain.opts = dataclasses.replace(domain.opts, qstop=-1.0)
        with pytest.raises(Exception) as info:
            program.step()
        err = info.value
        if not isinstance(err, QStopError):
            assert isinstance(err.common_cause(QStopError), QStopError)
        assert rt.replayed_from_memo == (cls is AmtRuntime)
        observed[cls] = (type(err).__name__, str(err),
                         rt.stats.total_ns, rt.stats.n_flushes,
                         rt.stats.trace.workers, rt.stats.trace.spans,
                         recorder.to_json_lines(), float_arrays(domain))
    assert observed[AmtRuntime] == observed[ResimulatingRuntime]


@pytest.mark.parametrize("plan", [
    lambda: ResiliencePlan(inject=("task:*:stall@2",), fault_seed=3),
    lambda: ResiliencePlan(inject=("field:e:nan@9",), fault_seed=1),
    lambda: ResiliencePlan(max_retries=2),
], ids=["stall-fault", "unfired-fault", "replay-policy"])
def test_memo_unused_while_resilience_is_armed(plan, tmp_path, monkeypatch):
    def never(*args):
        raise AssertionError("reapplied a memo with resilience armed")

    observed = {}
    for cls in (AmtRuntime, ResimulatingRuntime):
        with monkeypatch.context() as m:
            m.setattr(SimWorkerPool, "reapply", never)
            with runtimes_of(cls) as made:
                res, registry, recorder = run_config(
                    "hpx", "fig5", 4, True, resilience=plan()
                )
        rt = made[0]
        assert rt._memo_template is None and rt._memo == []
        assert registry.counter("/graph/memo-hits").sample_value() == 0
        observed[cls] = observe(rt, res, registry, recorder, tmp_path,
                                cls.__name__)
    assert_same(observed[AmtRuntime], observed[ResimulatingRuntime])


WARM_SPEC = dict(s=6, r=5, i=4, threads=8)
WARM_CASES = [("fig5", False), ("full", True)]


def warm_executor(cls, variant, execute):
    """A warm executor whose runtime is a *cls*."""
    resolved = resolve_spec(JobSpec(variant=variant, execute=execute,
                                    **WARM_SPEC))
    with runtimes_of(cls):
        return executor.WarmExecutor(resolved)


def serve(warm, spec):
    """One job; its payload, flight JSONL and graph statistics."""
    recorder = FlightRecorder()
    outcome = warm.run_job(spec, registry=CounterRegistry(),
                           flight_recorder=recorder)
    stats = warm.program.graph_stats
    return (outcome.result, recorder.to_json_lines(),
            (stats.captures, stats.replays, stats.memo_hits,
             stats.invalidations))


@pytest.mark.parametrize("variant,execute", WARM_CASES)
def test_memo_outlives_the_job_on_a_warm_executor(variant, execute):
    spec = JobSpec(variant=variant, execute=execute, **WARM_SPEC)
    payloads = {}
    for cls in (AmtRuntime, ResimulatingRuntime):
        warm = warm_executor(cls, variant, execute)
        payloads[cls] = [serve(warm, spec) for _ in range(2)]
        warm.close()
    (first, second) = payloads[AmtRuntime]
    assert first[2] == (1, 3, 2, 0)
    # The second job re-applies the first job's memo from its first
    # replayed cycle on: no cycle of it is simulated.
    assert second[2] == (0, 4, 4, 0)
    assert first[0] == second[0]
    assert [r[0] for r in payloads[AmtRuntime]] == [
        r[0] for r in payloads[ResimulatingRuntime]
    ]


@pytest.mark.parametrize("variant,execute", WARM_CASES)
def test_memo_follows_the_template_across_warm_jobs(variant, execute):
    """Five jobs on one executor, the third fault-injected.  The faulty
    job neither reads nor writes the memo, and it recaptures the template
    after its fault cycle, so the fourth job simulates its first replay of
    the new template once and the fifth re-applies every cycle."""
    clean = JobSpec(variant=variant, execute=execute, **WARM_SPEC)
    faulty = dataclasses.replace(clean, inject=("task:*:stall@2",),
                                 fault_seed=3)
    jobs = (clean, clean, faulty, clean, clean)
    served = {}
    for cls in (AmtRuntime, ResimulatingRuntime):
        warm = warm_executor(cls, variant, execute)
        served[cls] = [serve(warm, spec) for spec in jobs]
        warm.close()
    new, ref = served[AmtRuntime], served[ResimulatingRuntime]
    assert [job[2] for job in new] == [
        (1, 3, 2, 0), (0, 4, 4, 0), (1, 2, 0, 1), (0, 4, 3, 0), (0, 4, 4, 0),
    ]
    for k, (a, b) in enumerate(zip(new, ref)):
        assert a[:2] == b[:2], k
    payloads = [job[0] for job, spec in zip(new, jobs) if spec is clean]
    assert all(p == payloads[0] for p in payloads)
