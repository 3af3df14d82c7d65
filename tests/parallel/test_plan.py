"""Unit tests for tag parsing and template lowering (:mod:`repro.parallel.plan`)."""

import pytest

from repro.parallel import (
    KERNEL_BODIES,
    ParallelSchedule,
    PlanLoweringError,
    TaskSpec,
    Wave,
    assign_waves,
    lower_template,
    parse_task_tag,
)
from tests.parallel.conftest import make_execute_program


class TestParseTaskTag:
    def test_work_tag(self):
        spec = parse_task_tag("stress:init_stress+integrate_stress[0:64]")
        assert spec.kind == "kernels"
        assert spec.names == ("init_stress", "integrate_stress")
        assert (spec.lo, spec.hi) == (0, 64)

    def test_single_kernel_work_tag(self):
        spec = parse_task_tag("node:acceleration[128:256]")
        assert spec.kind == "kernels"
        assert spec.names == ("acceleration",)

    def test_region_monoq_tag(self):
        spec = parse_task_tag("region3:monoq_region[0:40]")
        assert spec.kind == "region"
        assert spec.region == 3
        assert spec.names == ("monoq_region",)

    def test_region_eos_tag_carries_rep(self):
        spec = parse_task_tag("region7:eos[x11][0:40]")
        assert spec.kind == "region"
        assert (spec.region, spec.rep) == (7, 11)

    def test_constraints_tag(self):
        spec = parse_task_tag("constraints[2][10:20]")
        assert spec.kind == "constraints"
        assert (spec.region, spec.lo, spec.hi) == (2, 10, 20)

    def test_bc_and_reduce_tags(self):
        assert parse_task_tag("accel_bc").kind == "bc"
        assert parse_task_tag("reduce_dt").kind == "reduce"

    @pytest.mark.parametrize(
        "tag",
        ["B3:stress-gate", "region_gate[4]", "dataflow-gate", "when_all",
         "ready", "exceptional"],
    )
    def test_sync_tags(self, tag):
        assert parse_task_tag(tag).kind == "sync"

    @pytest.mark.parametrize(
        "tag",
        ["", "bogus", "stress:unknown_kernel[0:4]", "region:eos[0:4]",
         "constraints[0:4]", "stress:init_stress[0:"],
    )
    def test_unknown_tags_raise(self, tag):
        with pytest.raises(PlanLoweringError):
            parse_task_tag(tag)


class TestLowerTemplate:
    @pytest.fixture(scope="class")
    def lowered(self):
        program = make_execute_program(nx=5, num_reg=4, partition=32)
        program.step()  # cycle 1 captures the graph
        schedule = lower_template(program._template)
        return program, schedule

    def test_every_work_task_lowered(self, lowered):
        program, schedule = lowered
        kinds = [s.kind for s in schedule.specs]
        assert "kernels" in kinds and "region" in kinds
        assert kinds.count("reduce") == 1
        assert kinds.count("bc") == 1
        # one constraints spec per (region, partition) pair, >= region count
        assert kinds.count("constraints") >= 4
        assert schedule.n_parallel_tasks > 0

    def test_costs_align_with_specs(self, lowered):
        _program, schedule = lowered
        assert len(schedule.costs) == len(schedule.specs)
        assert all(c >= 0 for c in schedule.costs)

    def test_waves_partition_the_specs(self, lowered):
        _program, schedule = lowered
        seen = []
        for wave in schedule.waves:
            seen.extend(wave.parallel)
            seen.extend(wave.serial)
        # sync tasks emit no specs, so waves cover the spec table exactly
        assert sorted(seen) == list(range(len(schedule.specs)))

    def test_dependencies_respect_wave_order(self, lowered):
        """Every captured in-segment edge crosses waves strictly forward."""
        program, schedule = lowered
        wave_of = {}
        for wi, wave in enumerate(schedule.waves):
            for i in (*wave.parallel, *wave.serial):
                wave_of[i] = wi
        # replay the lowering's traversal to map tasks to spec indices
        spec_of_task: dict[int, int | None] = {}
        pos = 0
        edges_checked = 0
        for seg in program._template.segments:
            for task in seg.tasks:
                if parse_task_tag(task.tag).kind == "sync":
                    spec_of_task[id(task)] = None
                    continue
                spec_of_task[id(task)] = pos
                for parent in task.parents:
                    p = spec_of_task.get(id(parent))
                    if p is not None:
                        assert wave_of[p] < wave_of[pos]
                        edges_checked += 1
                pos += 1
        assert pos == len(schedule.specs)
        assert edges_checked > 0

    def test_kernel_bodies_cover_work_vocabulary(self):
        assert set(KERNEL_BODIES) >= {
            "init_stress", "integrate_stress", "hg_control", "fb_hourglass",
            "zero_forces", "sum_forces", "acceleration", "velocity",
            "position", "kinematics", "strain_rates", "monoq_gradients",
            "material_prologue", "qstop_check", "update_volumes",
        }


class TestAssignWaves:
    def test_deterministic_and_complete(self):
        program = make_execute_program(nx=5, num_reg=4, partition=32)
        program.step()
        schedule = lower_template(program._template)
        a = assign_waves(schedule, 3)
        b = assign_waves(schedule, 3)
        assert a == b
        for wi, wave in enumerate(schedule.waves):
            spread = [i for worker in a[wi] for i in worker]
            assert sorted(spread) == sorted(wave.parallel)

    def test_single_worker_gets_everything(self):
        program = make_execute_program(nx=4, num_reg=3, partition=32)
        program.step()
        schedule = lower_template(program._template)
        a = assign_waves(schedule, 1)
        for wi, wave in enumerate(schedule.waves):
            assert sorted(a[wi][0]) == sorted(wave.parallel)

    def test_assign_waves_accepts_measured_cost_override(self):
        spec = TaskSpec("kernels", names=("init_stress",), lo=0, hi=8)
        sched = ParallelSchedule(
            specs=(spec,) * 3,
            costs=(100, 10, 10),
            waves=(Wave((0, 1, 2), ()),),
        )
        by_capture = assign_waves(sched, 2)
        # measured costs say spec 2 is the expensive one: LPT must repack
        by_measured = assign_waves(sched, 2, costs=(10, 10, 100))
        assert by_capture[0][0][0] == 0
        assert by_measured[0][0][0] == 2
        with pytest.raises(PlanLoweringError, match="cost override"):
            assign_waves(sched, 2, costs=(1, 2))
