"""Shadow-buffer unit tests: what wave retry snapshots and restores.

These run entirely in-process (no worker pool), so they are not
``parallel``-marked: the shadow logic is pure NumPy over a Domain.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lulesh.catalogue import KERNELS
from repro.lulesh.domain import Domain
from repro.lulesh.options import LuleshOptions
from repro.parallel.plan import (
    ParallelSchedule,
    TaskSpec,
    Wave,
    spec_is_idempotent,
)
from repro.parallel.shadow import WaveShadow

EOS_FIELDS = KERNELS["eos"].in_place


def make_domain(nx: int = 4, num_reg: int = 3) -> Domain:
    return Domain(LuleshOptions(nx=nx, numReg=num_reg))


def schedule_of(*specs: TaskSpec) -> tuple[ParallelSchedule, Wave]:
    wave = Wave(tuple(range(len(specs))), ())
    return ParallelSchedule(tuple(specs), (1,) * len(specs), (wave,)), wave


# --- idempotency classification ---------------------------------------------


def test_spec_is_idempotent_combined_and_region():
    assert spec_is_idempotent(
        TaskSpec("kernels", names=("init_stress", "integrate_stress"))
    )
    # one non-idempotent member poisons the combined spec
    assert not spec_is_idempotent(
        TaskSpec("kernels", names=("kinematics", "strain_rates", "monoq_gradients"))
    )
    assert not spec_is_idempotent(TaskSpec("kernels", names=("velocity",)))
    assert not spec_is_idempotent(
        TaskSpec("region", names=("monoq_region", "eos"), region=0, rep=7)
    )
    assert spec_is_idempotent(TaskSpec("region", names=("monoq_region",), region=0))
    for kind in ("constraints", "bc", "reduce", "sync"):
        assert spec_is_idempotent(TaskSpec(kind))


# --- capture / restore -------------------------------------------------------


def test_idempotent_wave_captures_nothing():
    d = make_domain()
    sched, wave = schedule_of(
        TaskSpec("kernels", names=("init_stress",), lo=0, hi=8),
        TaskSpec("kernels", names=("sum_forces", "acceleration"), lo=0, hi=8),
    )
    assert WaveShadow.capture(d, sched, wave) is None


def test_shadow_restores_slab_slices_bit_exactly():
    d = make_domain()
    rng = np.random.default_rng(7)
    for f in ("xd", "yd", "zd"):
        getattr(d, f)[:] = rng.normal(size=d.xd.size)
    lo, hi = 3, 19
    sched, wave = schedule_of(TaskSpec("kernels", names=("velocity",), lo=lo, hi=hi))
    before = {f: getattr(d, f).copy() for f in ("xd", "yd", "zd")}
    shadow = WaveShadow.capture(d, sched, wave)
    assert shadow is not None
    # a half-finished wave scribbled over the slices (and only the slices)
    for f in ("xd", "yd", "zd"):
        getattr(d, f)[lo:hi] += 1.25
    shadow.restore(d)
    for f in ("xd", "yd", "zd"):
        assert (getattr(d, f) == before[f]).all()


def test_shadow_restores_eos_scatter_bit_exactly():
    d = make_domain()
    rng = np.random.default_rng(11)
    for f in EOS_FIELDS:
        getattr(d, f)[:] = rng.normal(size=d.e.size)
    lst = d.regions.reg_elem_lists[1]
    lo, hi = 0, min(9, len(lst))
    sched, wave = schedule_of(
        TaskSpec(
            "region", names=("monoq_region", "eos"), lo=lo, hi=hi,
            region=1, rep=1,
        )
    )
    before = {f: getattr(d, f).copy() for f in EOS_FIELDS}
    shadow = WaveShadow.capture(d, sched, wave)
    assert shadow is not None
    idx = np.array(lst[lo:hi])
    for f in EOS_FIELDS:
        getattr(d, f)[idx] = -4.5
    shadow.restore(d)
    for f in EOS_FIELDS:
        assert (getattr(d, f) == before[f]).all()


def test_shadow_leaves_untouched_elements_alone():
    """Restore writes only the shadowed slices, not whole fields."""
    d = make_domain()
    lo, hi = 5, 12
    sched, wave = schedule_of(TaskSpec("kernels", names=("position",), lo=lo, hi=hi))
    shadow = WaveShadow.capture(d, sched, wave)
    d.x[hi + 3] = 123.0  # outside the slice: a later wave's business
    shadow.restore(d)
    assert d.x[hi + 3] == 123.0


def test_shadow_nbytes_counts_snapshots():
    d = make_domain()
    lo, hi = 0, 10
    sched, wave = schedule_of(
        TaskSpec("kernels", names=("velocity", "position"), lo=lo, hi=hi)
    )
    shadow = WaveShadow.capture(d, sched, wave)
    # 6 fields (xd/yd/zd + x/y/z), 10 float64 each
    assert shadow.nbytes == 6 * 10 * 8


def test_strain_rates_shadow_covers_rmw_diagonals():
    d = make_domain()
    n_elem = d.dxx.size
    lo, hi = 0, min(16, n_elem)
    sched, wave = schedule_of(
        TaskSpec(
            "kernels", names=("kinematics", "strain_rates", "monoq_gradients"),
            lo=lo, hi=hi,
        )
    )
    before = {f: getattr(d, f).copy() for f in ("vdov", "dxx", "dyy", "dzz")}
    shadow = WaveShadow.capture(d, sched, wave)
    assert shadow is not None
    for f in ("vdov", "dxx", "dyy", "dzz"):
        getattr(d, f)[lo:hi] = 9.0
    shadow.restore(d)
    for f in ("vdov", "dxx", "dyy", "dzz"):
        assert (getattr(d, f) == before[f]).all()


def test_unknown_kernel_in_idempotency_table_raises():
    with pytest.raises(KeyError):
        spec_is_idempotent(TaskSpec("kernels", names=("not_a_kernel",)))
