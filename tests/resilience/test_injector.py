"""Unit tests for the deterministic fault injector and the spec grammar."""

import numpy as np
import pytest

from repro.lulesh.catalogue import TaskSpec
from repro.lulesh.domain import Domain
from repro.lulesh.options import LuleshOptions
from repro.resilience import (
    FaultInjector,
    FaultSpec,
    FaultSpecError,
    InjectedFault,
    parse_fault_spec,
)
from repro.simcore.pool import SimTask


def _task(tag: str, cost_ns: int = 1000) -> SimTask:
    return SimTask(cost_ns, tag=tag)


class TestSpecParsing:
    def test_minimal_spec_defaults(self):
        spec = parse_fault_spec("task:eos*")
        assert spec == FaultSpec("task", "eos*", "raise", cycle=None)

    def test_default_kinds_per_target(self):
        assert parse_fault_spec("comm:fz*").kind == "drop"
        assert parse_fault_spec("field:e").kind == "nan"

    def test_explicit_kind_and_cycle(self):
        spec = parse_fault_spec("task:kin*:stall@7")
        assert (spec.target, spec.kind, spec.cycle) == ("task", "stall", 7)

    @pytest.mark.parametrize("bad", [
        "task",                 # no pattern
        "task:",                # empty pattern
        "disk:e",               # unknown target
        "task:x:drop",          # kind not valid for target
        "field:e:nan@soon",     # non-integer cycle
        "a:b:c:d",              # too many parts
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(bad)

    def test_invalid_cycle_rejected(self):
        with pytest.raises(FaultSpecError, match="cycle"):
            FaultSpec("task", "x", "raise", cycle=0)


class TestDeterminism:
    def test_armed_cycles_reproducible_under_seed(self):
        specs = ["task:a*", "task:b*", "field:e"]
        a = FaultInjector(specs, seed=42)
        b = FaultInjector(specs, seed=42)
        assert a.armed_cycles == b.armed_cycles
        assert all(
            1 <= c <= FaultInjector.DEFAULT_CYCLE_WINDOW
            for c in a.armed_cycles
        )

    def test_different_seed_may_rearm(self):
        spans = {
            FaultInjector(["task:a*"], seed=s).armed_cycles for s in range(16)
        }
        assert len(spans) > 1  # the window is actually sampled

    def test_explicit_cycle_wins(self):
        inj = FaultInjector(["task:a*@9"], seed=3)
        assert inj.armed_cycles == (9,)


class TestTaskFaults:
    def test_raise_fires_only_in_armed_cycle(self):
        inj = FaultInjector(["task:eos*@2"], seed=0)
        inj.begin_cycle(1)
        assert inj.draw_task(_task("eos[0:8]")) is None
        inj.begin_cycle(2)
        fire = inj.draw_task(_task("eos[0:8]"))
        with pytest.raises(InjectedFault, match="cycle 2"):
            fire()

    def test_charge_consumed_at_fire_not_draw(self):
        inj = FaultInjector(["task:eos*@1"], seed=0)
        inj.begin_cycle(1)
        fire = inj.draw_task(_task("eos[0:8]"))
        assert inj.stats.injected_faults == 0  # armed, not fired
        with pytest.raises(InjectedFault):
            fire()
        assert inj.stats.injected_faults == 1
        fire()  # spent: a replay of the same task runs cleanly
        assert inj.stats.injected_faults == 1

    def test_one_charge_across_tasks(self):
        inj = FaultInjector(["task:eos*@1"], seed=0)
        inj.begin_cycle(1)
        fires = [inj.draw_task(_task(f"eos[{i}]")) for i in range(3)]
        with pytest.raises(InjectedFault):
            fires[0]()
        fires[1]()  # same charge already spent
        fires[2]()

    def test_stall_inflates_cost_at_draw(self):
        inj = FaultInjector(["task:kin*:stall@1"], seed=0, stall_ns=5000)
        inj.begin_cycle(1)
        t = _task("kin[0:8]", cost_ns=100)
        assert inj.draw_task(t) is None  # stall returns no fire()
        assert t.cost_ns == 100 + 5000
        assert inj.stats.injected_faults == 1

    def test_non_matching_tag_untouched(self):
        inj = FaultInjector(["task:eos*@1"], seed=0)
        inj.begin_cycle(1)
        assert inj.draw_task(_task("kin[0:8]")) is None

    def test_reference_kernel_alias_matches_port_tags(self):
        # the paper-facing name CalcQ* must reach the task running Q code
        inj = FaultInjector(["task:CalcQ*@1"], seed=0)
        inj.begin_cycle(1)
        names = ("kinematics", "strain_rates", "monoq_gradients")
        task = _task("kin:kinematics+strain_rates+monoq_gradients[0:2048]")
        task.desc = TaskSpec("kernels", names, 0, 2048)
        fire = inj.draw_task(task)
        assert fire is not None

    def test_persistent_fault_keeps_firing(self):
        spec = FaultSpec("task", "eos*", "raise", cycle=1, persistent=True)
        inj = FaultInjector([spec], seed=0)
        for cycle in (1, 2, 3):  # persistent ignores the armed cycle too
            inj.begin_cycle(cycle)
            fire = inj.draw_task(_task("eos[0:8]"))
            with pytest.raises(InjectedFault):
                fire()


class TestCommFaults:
    def test_drop_and_dup(self):
        inj = FaultInjector(
            [
                FaultSpec("comm", "fz*", "drop", cycle=1),
                FaultSpec("comm", "e*", "dup", cycle=1),
            ],
            seed=0,
        )
        inj.begin_cycle(1)
        assert inj.draw_comm(0, 1, "fz-up") == "drop"
        assert inj.draw_comm(0, 1, "e-up") == "dup"
        assert inj.draw_comm(0, 1, "fz-up") is None  # charge spent
        assert inj.stats.comm_dropped == 1
        assert inj.stats.comm_duplicated == 1


class TestFieldCorruption:
    def test_writes_one_nan_deterministically(self):
        opts = LuleshOptions(nx=4, numReg=2)
        d1, d2 = Domain(opts), Domain(opts)
        for d in (d1, d2):
            inj = FaultInjector(["field:e:nan@1"], seed=5)
            inj.begin_cycle(1)
            inj.corrupt_fields(d)
        assert np.isnan(d1.e).sum() == 1
        assert np.array_equal(np.isnan(d1.e), np.isnan(d2.e))

    def test_inf_kind(self):
        d = Domain(LuleshOptions(nx=4, numReg=2))
        inj = FaultInjector(["field:xd:inf@1"], seed=0)
        inj.begin_cycle(1)
        inj.corrupt_fields(d)
        assert np.isinf(d.xd).sum() == 1

    def test_unknown_field_rejected(self):
        d = Domain(LuleshOptions(nx=4, numReg=2))
        inj = FaultInjector(["field:bogus@1"], seed=0)
        inj.begin_cycle(1)
        with pytest.raises(FaultSpecError, match="bogus"):
            inj.corrupt_fields(d)

    def test_silent_until_scanned(self):
        d = Domain(LuleshOptions(nx=4, numReg=2))
        inj = FaultInjector(["field:e:nan@1"], seed=0)
        inj.begin_cycle(1)
        inj.corrupt_fields(d)  # no exception: corruption is silent
        assert inj.stats.injected_faults == 1
