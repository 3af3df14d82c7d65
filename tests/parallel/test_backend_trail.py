"""The process backend's trail: which cycles ran where, and why.

A *trail* is the ordered list of a run's ``parallel_fallback``,
``parallel_cycle``, ``graph_capture``, ``graph_invalidate``,
``graph_replay``, ``backend_degraded`` and ``rollback`` flight events,
written ``fallback(c, reason)``, ``parallel(c)``, ``capture(c)``,
``invalidate``, ``replay(c)``, ``degraded(c)`` and ``rollback``.  Each
case pins its trail, the backend's ``(fallback_cycles, parallel_cycles,
lowerings)`` and bit-identity with the simulated run of the same cycles.
"""

import pytest

from repro.core.session import Session
from repro.lulesh.options import LuleshOptions
from repro.obs import FlightRecorder
from repro.parallel import ParallelHpxBackend, SupervisionConfig
from repro.resilience import ResiliencePlan

from tests.parallel.conftest import make_execute_program, requires_process_backend
from tests.parallel.test_backend_identity import assert_bitwise_identical

pytestmark = [requires_process_backend, pytest.mark.parallel]

_NAMES = {
    "parallel_fallback": "fallback",
    "parallel_cycle": "parallel",
    "graph_capture": "capture",
    "graph_invalidate": "invalidate",
    "graph_replay": "replay",
    "backend_degraded": "degraded",
    "rollback": "rollback",
}


def trail(flight: FlightRecorder) -> list[str]:
    out = []
    for e in flight.events:
        name = _NAMES.get(e.kind)
        if name is None:
            continue
        if e.kind in ("graph_invalidate", "rollback"):
            out.append(name)
        elif e.kind == "parallel_fallback":
            out.append(f"{name}({e.cycle}, {e.detail['reason']})")
        else:
            out.append(f"{name}({e.cycle})")
    return out


def counts(backend) -> tuple[int, int, int]:
    st = backend.stats
    return st.fallback_cycles, st.parallel_cycles, st.lowerings


def run(iterations, backend, inject=(), checkpoint_every=None, supervision=None):
    """s=8, 4 regions, 4 simulated threads; 2 workers on the process backend."""
    flight = FlightRecorder()
    plan = None
    if inject:
        plan = ResiliencePlan(
            inject=inject,
            auto_recover=checkpoint_every is not None,
            checkpoint_every=checkpoint_every or 10,
        )
    with Session(
        "hpx", LuleshOptions(nx=8, numReg=4), 4, execute=True,
        backend=backend, workers=2 if backend == "process" else None,
        supervision=supervision, flight_recorder=flight,
    ) as session:
        session.run(iterations, resilience=plan, flight_recorder=flight)
        stats = counts(session.backend) if session.backend else None
    return trail(flight), stats, session.domain


def check(iterations, expected_trail, expected_counts, **kw):
    got_trail, got_counts, par = run(iterations, "process", **kw)
    _, _, sim = run(iterations, "sim", **kw)
    assert got_trail == expected_trail
    assert got_counts == expected_counts
    assert_bitwise_identical(sim, par)


def test_clean_run():
    check(4, [
        "fallback(1, no-schedule)", "capture(1)",
        "parallel(2)", "parallel(3)", "parallel(4)",
    ], (1, 3, 1))


def test_stall_cycle_rebuilds_and_relowers():
    check(5, [
        "fallback(1, no-schedule)", "capture(1)", "parallel(2)",
        "fallback(3, fault-cycle)", "invalidate",
        "fallback(4, no-schedule)", "capture(4)", "parallel(5)",
    ], (3, 2, 2), inject=("task:*:stall@3",))


def test_failed_cycle_is_not_counted_by_the_rollback_detector():
    """Cycle 3 raises; after the rollback it is a first attempt, not a rewind."""
    check(6, [
        "fallback(1, no-schedule)", "capture(1)", "parallel(2)",
        "fallback(3, fault-cycle)", "invalidate", "rollback",
        "fallback(3, no-schedule)", "capture(3)",
        "parallel(4)", "parallel(5)", "parallel(6)",
    ], (3, 4, 2), inject=("task:CalcQ*@3",), checkpoint_every=1)


def test_field_fault_cycle_replays_on_the_engine():
    """The NaN is written in the prologue, so cycle 4 itself replays warm.

    No task fault is planned for it, so its template stays valid; the
    recovery manager's state scan after the cycle starts the rollback.
    """
    check(8, [
        "fallback(1, no-schedule)", "capture(1)",
        "parallel(2)", "parallel(3)", "parallel(4)", "rollback",
        "fallback(3, rollback)", "invalidate", "capture(3)",
        "parallel(4)", "parallel(5)", "parallel(6)", "parallel(7)",
        "parallel(8)",
    ], (2, 8, 2), inject=("field:e:nan@4",), checkpoint_every=2)


def test_degraded_engine_replays_on_the_simulated_pool():
    cfg = SupervisionConfig(worker_timeout_s=2.0, max_respawns=0)
    with pytest.warns(RuntimeWarning, match="degraded"):
        check(6, [
            "fallback(1, no-schedule)", "capture(1)", "parallel(2)",
            "degraded(3)",
            "fallback(4, degraded)", "replay(4)",
            "fallback(5, degraded)", "replay(5)",
            "fallback(6, degraded)", "replay(6)",
        ], (5, 1, 1), inject=("worker:0:kill@3",), supervision=cfg)


def test_backend_built_on_a_warm_program_lowers_its_template():
    program = make_execute_program(nx=8, num_reg=4)
    program.run(2)
    flight = FlightRecorder()
    program.rt.flight_recorder = flight
    with ParallelHpxBackend(program, workers=2, flight_recorder=flight) as backend:
        backend.run(3)
        assert trail(flight) == [
            "fallback(3, no-schedule)", "replay(3)",
            "parallel(4)", "parallel(5)",
        ]
        assert counts(backend) == (1, 2, 1)
    sim = make_execute_program(nx=8, num_reg=4)
    sim.run(5)
    assert_bitwise_identical(sim.domain, program.domain)


def test_closed_backend_leaves_the_program_runnable():
    program = make_execute_program(nx=8, num_reg=4)
    with ParallelHpxBackend(program, workers=2) as backend:
        backend.run(3)
    program.run(1)  # on the simulated pool, over the copied-out fields
    sim = make_execute_program(nx=8, num_reg=4)
    sim.run(4)
    assert program.domain.cycle == 4
    assert_bitwise_identical(sim.domain, program.domain)
