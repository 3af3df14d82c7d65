"""Unit tests for task descriptors and template lowering (:mod:`repro.parallel.plan`)."""

import re
from types import SimpleNamespace

import pytest

from repro.lulesh.catalogue import KERNELS
from repro.parallel import (
    PlanLoweringError,
    TaskSpec,
    assign_waves,
    lower_template,
)
from repro.simcore.pool import SimTask
from tests.parallel.conftest import make_execute_program


def template_of(*tasks: SimTask):
    """A one-segment stand-in for a captured template."""
    seg = SimpleNamespace(tasks=list(tasks), costs=[t.cost_ns for t in tasks])
    return SimpleNamespace(segments=[seg])


class TestParseTaskTag:
    """A task's tag is a rendering of its descriptor; lowering reads the
    descriptor, never the tag."""

    def test_work_tag(self):
        spec = TaskSpec("kernels", ("init_stress", "integrate_stress"), 0, 64)
        assert spec.tag("stress") == "stress:init_stress+integrate_stress[0:64]"
        assert [k.name for k in spec.kernels] == list(spec.names)

    def test_single_kernel_work_tag(self):
        spec = TaskSpec("kernels", ("acceleration",), 128, 256)
        assert spec.tag("node") == "node:acceleration[128:256]"

    def test_region_monoq_tag(self):
        spec = TaskSpec("region", ("monoq_region",), 0, 40, region=3)
        assert spec.tag() == "region3:monoq_region[0:40]"

    def test_region_eos_tag_carries_rep(self):
        spec = TaskSpec("region", ("eos",), 0, 40, region=7, rep=11)
        assert spec.tag() == "region7:eos[x11][0:40]"

    def test_constraints_tag(self):
        spec = TaskSpec("constraints", lo=10, hi=20, region=2)
        assert spec.tag() == "constraints[2][10:20]"
        assert [k.name for k in spec.kernels] == ["courant", "hydro"]

    def test_bc_and_reduce_tags(self):
        assert TaskSpec("bc").tag() == "accel_bc"
        assert TaskSpec("reduce").tag() == "reduce_dt"

    @pytest.mark.parametrize(
        "tag",
        ["B3:stress-gate", "region_gate[4]", "dataflow-gate", "when_all",
         "ready", "exceptional"],
    )
    def test_sync_tags(self, tag):
        sync = TaskSpec("sync")
        assert sync.tag(tag) == tag
        schedule = lower_template(template_of(SimTask(0, tag=tag, desc=sync)))
        assert schedule.specs == () and schedule.waves == ()

    @pytest.mark.parametrize(
        "tag",
        ["", "bogus", "stress:unknown_kernel[0:4]", "region:eos[0:4]",
         "constraints[0:4]", "stress:init_stress[0:"],
    )
    def test_unknown_tags_raise(self, tag):
        """A task without a descriptor cannot be lowered, whatever its tag."""
        with pytest.raises(PlanLoweringError, match="no task descriptor"):
            lower_template(template_of(SimTask(10, tag=tag)))


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
                if task.desc.kind == "sync":
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

    def test_captured_tags_render_their_descriptors(self, lowered):
        program, _schedule = lowered
        for seg in program._template.segments:
            for task in seg.tasks:
                if task.desc.kind == "sync":
                    label = task.tag  # a barrier's tag is its whole label
                else:
                    label = task.tag.split(":")[0]
                assert task.desc.tag(label) == task.tag

    def test_work_task_without_descriptor_raises(self):
        program = make_execute_program(nx=4, num_reg=3, partition=32)
        program.step()
        task = next(
            t for seg in program._template.segments for t in seg.tasks
            if t.desc.kind == "kernels"
        )
        task.desc = None
        with pytest.raises(PlanLoweringError, match=re.escape(task.tag)):
            lower_template(program._template)

    def test_kernel_bodies_cover_work_vocabulary(self):
        assert set(KERNELS) >= {
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
