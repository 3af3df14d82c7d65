"""Self-healing process backend: chaos recovery, watchdog, degradation.

The acceptance bar from the supervision work: a seeded mid-run worker kill
and a seeded worker hang both recover without terminating the run, land on
final fields bit-identical to the serial backend at s=10 on every ladder
variant, and leave the full observability trail (``worker_lost`` /
``worker_respawn`` / ``wave_retry`` flight events, supervision counters);
respawn exhaustion degrades to the serial path instead of failing.
"""

import time

import pytest

from repro.core.driver import run_hpx
from repro.core.hpx_lulesh import HpxVariant
from repro.lulesh.options import LuleshOptions
from repro.obs import FlightRecorder
from repro.parallel import (
    ParallelHpxBackend,
    SupervisionConfig,
    SupervisionExhausted,
    WorkerSupervisor,
    assign_waves,
)
from repro.resilience import ResiliencePlan
from repro.resilience.injector import FaultInjector

from tests.parallel.conftest import make_execute_program, requires_process_backend
from tests.parallel.test_backend_identity import assert_bitwise_identical

pytestmark = [requires_process_backend, pytest.mark.parallel]

VARIANTS = {
    "fig5": HpxVariant.fig5(),
    "fig6": HpxVariant.fig6(),
    "fig7": HpxVariant.fig7(),
    "full": HpxVariant.full(),
}

#: Tight watchdog so hang detection costs seconds, not the 10 s default.
FAST_WATCHDOG = SupervisionConfig(worker_timeout_s=2.0)


def opts_s10():
    return LuleshOptions(nx=10, numReg=6, max_iterations=6)


@pytest.fixture(scope="module")
def serial_baselines():
    """Fault-free serial runs at s=10, one per ladder variant."""
    return {
        name: run_hpx(opts_s10(), 4, 6, execute=True, variant=v)
        for name, v in VARIANTS.items()
    }


@pytest.mark.parametrize("name", sorted(VARIANTS))
@pytest.mark.parametrize("kind", ["kill", "hang"])
def test_seeded_worker_fault_recovers_bit_identically(
    name, kind, serial_baselines
):
    flight = FlightRecorder()
    plan = ResiliencePlan(inject=(f"worker:0:{kind}@3",))
    par = run_hpx(
        opts_s10(), 4, 6, execute=True, variant=VARIANTS[name],
        backend="process", backend_workers=2,
        supervision=FAST_WATCHDOG, resilience=plan,
        flight_recorder=flight,
    )
    assert par.iterations == 6  # the run finished, it did not terminate
    assert_bitwise_identical(serial_baselines[name].domain, par.domain)
    lost = flight.events_of("worker_lost")
    assert len(lost) == 1
    expected_reason = "dead" if kind == "kill" else "hang"
    assert lost[0].detail["reason"] == expected_reason
    assert lost[0].cycle == 3
    assert len(flight.events_of("worker_respawn")) == 1
    assert len(flight.events_of("wave_retry")) == 1
    assert not flight.events_of("backend_degraded")


def test_garbled_reply_recovers_bit_identically(serial_baselines):
    flight = FlightRecorder()
    plan = ResiliencePlan(inject=("worker:1:garble@4",))
    par = run_hpx(
        opts_s10(), 4, 6, execute=True, variant=VARIANTS["full"],
        backend="process", backend_workers=2,
        supervision=FAST_WATCHDOG, resilience=plan,
        flight_recorder=flight,
    )
    assert_bitwise_identical(serial_baselines["full"].domain, par.domain)
    lost = flight.events_of("worker_lost")
    assert len(lost) == 1 and lost[0].detail["reason"] == "garble"
    assert len(flight.events_of("worker_respawn")) == 1


def test_wildcard_worker_pattern_matches_any_worker():
    flight = FlightRecorder()
    plan = ResiliencePlan(inject=("worker:*:kill@2",))
    par = run_hpx(
        LuleshOptions(nx=6, numReg=3, max_iterations=4), 4, 4, execute=True,
        backend="process", backend_workers=2,
        supervision=FAST_WATCHDOG, resilience=plan, flight_recorder=flight,
    )
    assert par.iterations == 4
    assert len(flight.events_of("worker_lost")) == 1


def test_hang_trips_watchdog_within_deadline():
    """Detection is bounded by the wave deadline, not the 3600 s sleep."""
    program = make_execute_program(nx=5, num_reg=3)
    program.rt.fault_injector = FaultInjector(["worker:0:hang@3"])
    cfg = SupervisionConfig(worker_timeout_s=1.5)
    with ParallelHpxBackend(program, workers=2, supervision=cfg) as backend:
        backend.step()  # capture
        backend.step()  # warm
        t0 = time.monotonic()
        backend.step()  # cycle 3: worker 0 hangs, watchdog fires, retry
        elapsed = time.monotonic() - t0
        assert backend.supervisor.stats.hangs == 1
        assert backend.supervisor.stats.respawns == 1
        # the deadline (<= 1.5 s) plus respawn/retry slack, not 3600 s
        assert elapsed < 30.0
        assert not backend._degraded


def test_retry_of_non_idempotent_wave_restores_shadow_exactly():
    """Kill a worker mid-wave on a velocity/position wave: the retried
    result must be bitwise what a clean single execution produces."""
    faulty = make_execute_program(nx=5, num_reg=3)
    clean = make_execute_program(nx=5, num_reg=3)
    with ParallelHpxBackend(faulty, workers=2) as fb, ParallelHpxBackend(
        clean, workers=2
    ) as cb:
        for b in (fb, cb):
            b.step()
            b.step()
        assert_bitwise_identical(faulty.domain, clean.domain)
        sched = fb._schedule
        wi = next(
            i
            for i, w in enumerate(sched.waves)
            if any("velocity" in sched.specs[s].names for s in w.parallel)
        )
        victim = next(
            w for w in range(2) if fb._assignments[wi][w]
        )
        from repro.parallel.shadow import WaveShadow

        cycle = faulty.domain.cycle + 1
        shadow = WaveShadow.capture(faulty.domain, sched, sched.waves[wi])
        assert shadow is not None  # velocity/position are non-idempotent
        fb.supervisor.run_wave(
            faulty.domain, cycle, wi, fb._assignments[wi],
            {victim: "kill"}, shadow,
        )
        cb.supervisor.run_wave(
            clean.domain, cycle, wi, cb._assignments[wi], {}, None
        )
        assert fb.supervisor.stats.deaths == 1
        assert fb.supervisor.stats.shadow_restores == 1
        assert_bitwise_identical(faulty.domain, clean.domain)


def test_respawn_exhaustion_degrades_and_completes(serial_baselines):
    flight = FlightRecorder()
    plan = ResiliencePlan(inject=("worker:0:kill@3",))
    cfg = SupervisionConfig(worker_timeout_s=2.0, max_respawns=0)
    with pytest.warns(RuntimeWarning, match="degraded to the serial path"):
        par = run_hpx(
            opts_s10(), 4, 6, execute=True, variant=VARIANTS["full"],
            backend="process", backend_workers=2,
            supervision=cfg, resilience=plan, flight_recorder=flight,
        )
    # the run completed on the serial path with the exact same physics
    assert par.iterations == 6
    assert_bitwise_identical(serial_baselines["full"].domain, par.domain)
    degraded = flight.events_of("backend_degraded")
    assert len(degraded) == 1 and degraded[0].cycle == 3
    # cycles after the degradation ran as serial fallbacks
    reasons = [e.detail["reason"] for e in flight.events_of("parallel_fallback")]
    assert reasons.count("degraded") == 3  # cycles 4, 5, 6


def test_degrade_warning_names_the_caller_of_step():
    """The degrade RuntimeWarning points at the code that called step()."""
    program = make_execute_program(nx=5, num_reg=3)
    program.rt.fault_injector = FaultInjector(["worker:0:kill@3"])
    cfg = SupervisionConfig(worker_timeout_s=2.0, max_respawns=0)
    with ParallelHpxBackend(program, workers=2, supervision=cfg) as backend:
        backend.step()  # capture
        backend.step()  # warm
        with pytest.warns(RuntimeWarning, match="degraded") as record:
            backend.step()  # cycle 3: worker 0 dies, no respawn budget
        assert backend.degraded
    degraded = [w for w in record if "degraded" in str(w.message)]
    assert [w.filename for w in degraded] == [__file__]


def test_no_degrade_raises_supervision_exhausted():
    plan = ResiliencePlan(inject=("worker:0:kill@3",))
    cfg = SupervisionConfig(worker_timeout_s=2.0, max_respawns=0, degrade=False)
    with pytest.raises(SupervisionExhausted, match="respawn budget"):
        run_hpx(
            LuleshOptions(nx=6, numReg=3, max_iterations=4), 4, 4,
            execute=True, backend="process", backend_workers=2,
            supervision=cfg, resilience=plan,
        )


def test_one_plan_per_lowering():
    """The plan ``lower`` builds is the template's only plan: LPT buckets
    over the capture-time costs, their wave deadlines, and every spec
    dispatched to one worker on every warm cycle."""
    program = make_execute_program(nx=6, num_reg=3)
    with ParallelHpxBackend(program, workers=2) as backend:
        pool = backend.pool
        send_wave = pool.send_wave
        workers_of: dict[int, set[int]] = {}

        def recording_send_wave(w, deltatime, time_now, cycle, indices,
                                fault=None):
            for idx in indices:
                workers_of.setdefault(idx, set()).add(w)
            send_wave(w, deltatime, time_now, cycle, indices, fault)

        pool.send_wave = recording_send_wave
        backend.run(6)  # capture + 5 warm cycles
        assert backend.stats.parallel_cycles == 5
        schedule = backend._schedule
        assert backend._assignments == assign_waves(schedule, 2)
        fresh = WorkerSupervisor(None, backend.supervisor.config)
        fresh.install_plan(schedule, backend._assignments)
        assert backend.supervisor._deadlines == fresh._deadlines
        assert sorted(workers_of) == sorted(
            idx for wave in schedule.waves for idx in wave.parallel
        )
        moved = {idx: ws for idx, ws in workers_of.items() if len(ws) > 1}
        assert not moved, f"specs ran on more than one worker: {moved}"
        assert backend.stats.busy_ns > 0


def test_supervision_counters_exported():
    from repro.obs.registry import CounterRegistry

    registry = CounterRegistry()
    plan = ResiliencePlan(inject=("worker:0:kill@2",))
    run_hpx(
        LuleshOptions(nx=6, numReg=3, max_iterations=4), 4, 4, execute=True,
        backend="process", backend_workers=2,
        supervision=FAST_WATCHDOG, resilience=plan, registry=registry,
    )
    samples = {
        path: registry.counter(path).sample_value()
        for path in (
            "/parallel/supervision/worker-losses",
            "/parallel/supervision/deaths",
            "/parallel/supervision/respawns",
            "/parallel/supervision/wave-retries",
            "/parallel/supervision/degraded",
        )
    }
    assert samples["/parallel/supervision/worker-losses"] == 1
    assert samples["/parallel/supervision/deaths"] == 1
    assert samples["/parallel/supervision/respawns"] == 1
    assert samples["/parallel/supervision/wave-retries"] == 1
    assert samples["/parallel/supervision/degraded"] == 0


def test_worker_faults_do_not_touch_sim_backend():
    """On the simulated backend a worker spec is inert: no strikes, and
    plans_faults keeps every cycle on the warm replay path."""
    plan = ResiliencePlan(inject=("worker:0:kill@3",))
    faulted = run_hpx(
        LuleshOptions(nx=6, numReg=3, max_iterations=4), 4, 4,
        execute=True, resilience=plan,
    )
    baseline = run_hpx(
        LuleshOptions(nx=6, numReg=3, max_iterations=4), 4, 4, execute=True
    )
    assert_bitwise_identical(baseline.domain, faulted.domain)


def test_injected_charge_is_transient():
    """One charge, one strike: later cycles run clean on the healed pool."""
    flight = FlightRecorder()
    plan = ResiliencePlan(inject=("worker:0:kill@2",))
    par = run_hpx(
        LuleshOptions(nx=6, numReg=3, max_iterations=6), 4, 6, execute=True,
        backend="process", backend_workers=2,
        supervision=FAST_WATCHDOG, resilience=plan, flight_recorder=flight,
    )
    assert par.iterations == 6
    assert len(flight.events_of("worker_lost")) == 1
    cycles = [e.cycle for e in flight.events_of("parallel_cycle")]
    assert cycles == [2, 3, 4, 5, 6]  # every post-capture cycle stayed warm
