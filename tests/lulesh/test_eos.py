"""Unit tests for the equation of state."""

import numpy as np
import pytest

from repro.lulesh.domain import Domain
from repro.lulesh.errors import VolumeError
from repro.lulesh.kernels.eos import (
    apply_material_properties_prologue,
    calc_pressure,
    eval_eos_region,
    update_volumes,
)
from repro.lulesh.options import LuleshOptions


@pytest.fixture()
def domain():
    d = Domain(LuleshOptions(nx=3, numReg=2))
    d.vnew[:] = 1.0
    return d


def region(d):
    return np.arange(d.numElem, dtype=np.int64)


class TestCalcPressure:
    def _opts(self):
        return LuleshOptions()

    def test_gamma_law_form(self):
        o = self._opts()
        e = np.array([3.0])
        comp = np.array([0.5])
        vnewc = np.array([2.0 / 3.0])
        p, bvc, pbvc = calc_pressure(e, comp, vnewc, o.pmin, o.p_cut, o.eosvmax)
        # bvc = (2/3)(compression+1) = 1.0 -> p = e
        assert bvc[0] == pytest.approx(1.0)
        assert pbvc[0] == pytest.approx(2.0 / 3.0)
        assert p[0] == pytest.approx(3.0)

    def test_pressure_floor(self):
        o = self._opts()
        e = np.array([-5.0])
        p, _, _ = calc_pressure(e, np.array([0.0]), np.array([1.0]),
                                o.pmin, o.p_cut, o.eosvmax)
        assert p[0] == o.pmin  # clamped at pmin=0

    def test_p_cut_snaps_tiny(self):
        o = self._opts()
        e = np.array([1e-9])
        p, _, _ = calc_pressure(e, np.array([0.0]), np.array([1.0]),
                                o.pmin, o.p_cut, o.eosvmax)
        assert p[0] == 0.0

    def test_eosvmax_zeroes_pressure(self):
        o = self._opts()
        e = np.array([10.0])
        p, _, _ = calc_pressure(e, np.array([0.0]), np.array([o.eosvmax]),
                                o.pmin, o.p_cut, o.eosvmax)
        assert p[0] == 0.0


class TestPrologue:
    def test_clamps_vnewc(self, domain):
        domain.vnew[0] = 1e-12  # below eosvmin
        domain.vnew[1] = 1e12  # above eosvmax
        apply_material_properties_prologue(domain, 0, domain.numElem)
        assert domain.vnewc[0] == domain.opts.eosvmin
        assert domain.vnewc[1] == domain.opts.eosvmax
        assert domain.vnewc[2] == 1.0

    def test_rejects_nonpositive_old_volume(self, domain):
        domain.v[3] = -1e-12
        # the clamp floors at eosvmin (positive) so this passes the
        # reference's check; truly disable the clamp to trigger it
        d2 = Domain(LuleshOptions(nx=3, numReg=2, eosvmin=0.0, eosvmax=0.0))
        d2.vnew[:] = 1.0
        d2.v[3] = -1.0
        with pytest.raises(VolumeError):
            apply_material_properties_prologue(d2, 0, d2.numElem)


class TestEvalEos:
    def test_quiescent_state_unchanged(self, domain):
        """No compression, no energy: everything stays zero."""
        domain.e[:] = 0.0  # remove the Sedov deposit
        apply_material_properties_prologue(domain, 0, domain.numElem)
        eval_eos_region(domain, region(domain), rep=1)
        assert np.all(domain.p == 0.0)
        assert np.all(domain.q == 0.0)
        assert np.all(domain.e == 0.0)

    def test_energy_produces_pressure_and_sound_speed(self, domain):
        domain.e[:] = 10.0
        apply_material_properties_prologue(domain, 0, domain.numElem)
        eval_eos_region(domain, region(domain), rep=1)
        assert np.all(domain.p > 0.0)
        assert np.all(domain.ss > 0.0)
        # p = (2/3)(1/v) e at zero compression work
        np.testing.assert_allclose(domain.p, (2.0 / 3.0) * 10.0, rtol=1e-12)

    @pytest.mark.parametrize("nx", [3, 8])
    @pytest.mark.parametrize("rep", [2, 7, 20])
    def test_rep_is_idempotent_on_state(self, nx, rep):
        """Repetition models cost, not different physics (§II-B): every
        count stores rep=1's bits, also when the repetitions take more than
        one pass (nx=8: 512 elements, 20 repetitions)."""
        one, many = (Domain(LuleshOptions(nx=nx, numReg=2)) for _ in range(2))
        for d in (one, many):
            d.vnew[:] = np.linspace(0.9, 1.1, d.numElem)
            d.e[:] = np.linspace(1.0, 5.0, d.numElem)
            d.delv[:] = np.linspace(-0.01, 0.01, d.numElem)  # both signs
            d.ql[:] = 0.5
            d.qq[:] = 0.25
            apply_material_properties_prologue(d, 0, d.numElem)
        eval_eos_region(one, region(one), rep=1)
        eval_eos_region(many, region(many), rep=rep)
        for name in ("p", "e", "q", "ss"):
            a, b = (getattr(d, name).view(np.int64) for d in (one, many))
            assert np.array_equal(a, b), name
        assert (one.q != 0.0).any()

    def test_compression_heats_element(self, domain):
        domain.e[:] = 1.0
        domain.p[:] = 2.0 / 3.0
        domain.delv[:] = -0.05  # compressing
        domain.vnew[:] = 0.95
        apply_material_properties_prologue(domain, 0, domain.numElem)
        eval_eos_region(domain, region(domain), rep=1)
        assert np.all(domain.e > 1.0)  # pdV work heats

    def test_expansion_cools_element(self, domain):
        domain.e[:] = 1.0
        domain.p[:] = 2.0 / 3.0
        domain.delv[:] = 0.05
        domain.vnew[:] = 1.05
        apply_material_properties_prologue(domain, 0, domain.numElem)
        eval_eos_region(domain, region(domain), rep=1)
        assert np.all(domain.e < 1.0)

    def test_energy_floor_emin(self, domain):
        domain.e[:] = domain.opts.emin
        domain.delv[:] = 1.0
        domain.p[:] = 1.0
        domain.vnew[:] = 2.0
        apply_material_properties_prologue(domain, 0, domain.numElem)
        eval_eos_region(domain, region(domain), rep=1)
        assert np.all(domain.e >= domain.opts.emin)

    def test_viscosity_coupling_on_compression(self, domain):
        domain.e[:] = 1.0
        domain.delv[:] = -0.01
        domain.ql[:] = 0.5
        domain.qq[:] = 0.25
        domain.vnew[:] = 0.99
        apply_material_properties_prologue(domain, 0, domain.numElem)
        eval_eos_region(domain, region(domain), rep=1)
        # q_new = ssc*ql + qq > 0 for compressing elements
        assert np.all(domain.q > 0.0)

    def test_no_viscosity_on_expansion(self, domain):
        domain.e[:] = 1.0
        domain.delv[:] = 0.01
        domain.ql[:] = 0.5
        domain.qq[:] = 0.25
        domain.vnew[:] = 1.01
        apply_material_properties_prologue(domain, 0, domain.numElem)
        eval_eos_region(domain, region(domain), rep=1)
        assert np.all(domain.q == 0.0)

    def test_subset_only_updates_region(self, domain):
        domain.e[:] = 4.0
        apply_material_properties_prologue(domain, 0, domain.numElem)
        sub = region(domain)[:5]
        eval_eos_region(domain, sub, rep=1)
        assert np.all(domain.p[:5] > 0.0)
        assert np.all(domain.p[5:] == 0.0)

    def test_partition_of_region_matches_whole(self, domain):
        d2 = Domain(domain.opts)
        d2.vnew[:] = 1.0
        for d in (domain, d2):
            d.e[:] = np.linspace(1, 3, d.numElem)
            d.delv[:] = -0.01
            apply_material_properties_prologue(d, 0, d.numElem)
        eval_eos_region(domain, region(domain), rep=1)
        r = region(d2)
        eval_eos_region(d2, r, 1, 0, 10)
        eval_eos_region(d2, r, 1, 10, d2.numElem)
        assert np.array_equal(domain.p, d2.p)
        assert np.array_equal(domain.e, d2.e)

    def test_invalid_rep(self, domain):
        with pytest.raises(ValueError):
            eval_eos_region(domain, region(domain), rep=0)

    def test_empty_region_noop(self, domain):
        eval_eos_region(domain, np.array([], dtype=np.int64), rep=1)


class TestUpdateVolumes:
    def test_commits_vnew(self, domain):
        domain.vnew[:] = 0.8
        update_volumes(domain, 0, domain.numElem)
        assert np.all(domain.v == 0.8)

    def test_v_cut_snaps_to_one(self, domain):
        domain.vnew[:] = 1.0 + 1e-12
        update_volumes(domain, 0, domain.numElem)
        assert np.all(domain.v == 1.0)

    def test_range_limited(self, domain):
        domain.vnew[:] = 0.5
        domain.v[:] = 1.0
        update_volumes(domain, 0, 2)
        assert np.all(domain.v[:2] == 0.5)
        assert np.all(domain.v[2:] == 1.0)
