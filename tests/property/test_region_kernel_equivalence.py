"""The EOS and the Q region limiter against their reference, bit for bit.

The reference functions below are verbatim copies of ``eval_eos_region``,
``calc_energy``, ``calc_pressure``, ``_sound_speed_sq_clamped``,
``calc_monotonic_q_region`` and ``_limited_phi_into`` as they were before
the kernels ran the EOS repetitions and the limiter's three directions as
the rows of long passes: one short pass per repetition and per direction,
each temporary checked out on its own.  The rewritten kernels must store
the same bits in ``p``, ``e``, ``q``, ``ss``, ``ql`` and ``qq``, compared as
``int64`` views so that the sign of zero counts, and leave every other
field untouched:

* random inputs of 1 to 2,100 elements with 1, 2, 7 and 20 repetitions,
  mixing signed zeros, subnormals, magnitudes from 1e-8 to 1e8 and values
  exactly at the cutoffs and clamps (``p_cut``, ``e_cut``, ``q_cut``,
  ``emin``, ``eosvmin``, ``eosvmax``), ``delv`` of +0.0 and -0.0, options
  with ``eosvmin = eosvmax = 0``, and every symmetry/free/comm ``elemBC``
  combination of the six faces;
* repetition counts and region lengths whose last pass is partial, and a
  region longer than one pass;
* the real states of an s=20 run after 1, 10 and 60 cycles, over the
  Table I region partitions;
* both workspace modes (the pooled arena and allocate-each-time).
"""

import copy
import itertools
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitioning import partition_layout, table1_partition_sizes
from repro.lulesh.domain import Domain
from repro.lulesh.kernels import eos, qcalc
from repro.lulesh.mesh import (
    ETA_M,
    ETA_M_COMM,
    ETA_M_FREE,
    ETA_M_SYMM,
    ETA_P,
    ETA_P_COMM,
    ETA_P_FREE,
    ETA_P_SYMM,
    XI_M,
    XI_M_COMM,
    XI_M_FREE,
    XI_M_SYMM,
    XI_P,
    XI_P_COMM,
    XI_P_FREE,
    XI_P_SYMM,
    ZETA_M,
    ZETA_M_COMM,
    ZETA_M_FREE,
    ZETA_M_SYMM,
    ZETA_P,
    ZETA_P_COMM,
    ZETA_P_FREE,
    ZETA_P_SYMM,
)
from repro.lulesh.options import LuleshOptions
from repro.lulesh.reference import SequentialDriver
from repro.lulesh.workspace import Workspace

# --- reference: verbatim copies of the kernels before the rewrite -----------


_SSC_FLOOR_TEST = 0.1111111e-36
_SSC_FLOOR = 0.3333333e-18


class _HeapScope:
    """Stand-in scratch scope for direct calls without a workspace."""

    @staticmethod
    def take(shape, dtype=np.float64):
        return np.empty(shape, dtype=dtype)


_HEAP_SCOPE = _HeapScope()


def calc_pressure(
    e_old: np.ndarray,
    compression: np.ndarray,
    vnewc: np.ndarray,
    pmin: float,
    p_cut: float,
    eosvmax: float,
    p_out: np.ndarray | None = None,
    bvc_out: np.ndarray | None = None,
    pbvc_out: np.ndarray | None = None,
    s=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``CalcPressureForElems``: returns ``(p_new, bvc, pbvc)``."""
    if s is None:
        s = _HEAP_SCOPE
    m = e_old.shape[0]
    if p_out is None:
        p_out = np.empty(m, dtype=e_old.dtype)
    if bvc_out is None:
        bvc_out = np.empty(m, dtype=e_old.dtype)
    if pbvc_out is None:
        pbvc_out = np.empty(m, dtype=e_old.dtype)
    c1s = 2.0 / 3.0
    np.add(compression, 1.0, out=bvc_out)
    bvc_out *= c1s
    pbvc_out.fill(c1s)
    np.multiply(bvc_out, e_old, out=p_out)
    t = s.take((m,))
    sel = s.take((m,), dtype=bool)
    np.abs(p_out, out=t)
    np.less(t, p_cut, out=sel)
    np.copyto(p_out, 0.0, where=sel)
    if eosvmax != 0.0:
        np.greater_equal(vnewc, eosvmax, out=sel)
        np.copyto(p_out, 0.0, where=sel)
    np.maximum(p_out, pmin, out=p_out)
    return p_out, bvc_out, pbvc_out


def _sound_speed_sq_clamped(
    pbvc: np.ndarray,
    e: np.ndarray,
    vol_sq: np.ndarray,
    bvc: np.ndarray,
    p: np.ndarray,
    rho0: float,
    out: np.ndarray | None = None,
    s=None,
) -> np.ndarray:
    """sqrt of (pbvc*e + v^2*bvc*p)/rho0 with the reference's tiny floor."""
    if s is None:
        s = _HEAP_SCOPE
    m = e.shape[0]
    if out is None:
        out = np.empty(m, dtype=e.dtype)
    t1 = s.take((m,))
    t2 = s.take((m,))
    sel = s.take((m,), dtype=bool)
    np.multiply(pbvc, e, out=t1)
    np.multiply(vol_sq, bvc, out=t2)
    t2 *= p
    t1 += t2
    t1 /= rho0
    np.maximum(t1, 0.0, out=t2)
    np.sqrt(t2, out=out)
    np.less_equal(t1, _SSC_FLOOR_TEST, out=sel)
    np.copyto(out, _SSC_FLOOR, where=sel)
    return out


def calc_energy(
    p_old: np.ndarray,
    e_old: np.ndarray,
    q_old: np.ndarray,
    compression: np.ndarray,
    comp_half_step: np.ndarray,
    vnewc: np.ndarray,
    work: np.ndarray,
    delvc: np.ndarray,
    qq_old: np.ndarray,
    ql_old: np.ndarray,
    opts,
    out: tuple | None = None,
    s=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``CalcEnergyForElems``: predictor/corrector energy integration.

    Returns ``(p_new, e_new, q_new, bvc, pbvc)``; pass the same 5-tuple as
    *out* to integrate in place (the EOS ``rep`` loop reuses one set).
    """
    pmin, p_cut, e_cut, q_cut = opts.pmin, opts.p_cut, opts.e_cut, opts.q_cut
    emin, eosvmax, rho0 = opts.emin, opts.eosvmax, opts.refdens
    if s is None:
        s = _HEAP_SCOPE
    m = e_old.shape[0]
    if out is None:
        out = tuple(np.empty(m, dtype=e_old.dtype) for _ in range(5))
    p_new, e_new, q_new, bvc, pbvc = out

    p_half = s.take((m,))
    q_tilde = s.take((m,))
    ssc = s.take((m,))
    vhalf = s.take((m,))
    t1 = s.take((m,))
    t2 = s.take((m,))
    sel = s.take((m,), dtype=bool)
    sel2 = s.take((m,), dtype=bool)

    # e_new = e_old - 0.5 * delvc * (p_old + q_old) + 0.5 * work
    np.add(p_old, q_old, out=t1)
    np.multiply(delvc, 0.5, out=t2)
    t1 *= t2
    np.subtract(e_old, t1, out=e_new)
    np.multiply(work, 0.5, out=t1)
    e_new += t1
    np.maximum(e_new, emin, out=e_new)

    calc_pressure(
        e_new, comp_half_step, vnewc, pmin, p_cut, eosvmax,
        p_out=p_half, bvc_out=bvc, pbvc_out=pbvc, s=s,
    )
    np.add(comp_half_step, 1.0, out=vhalf)
    np.divide(1.0, vhalf, out=vhalf)
    vhalf *= vhalf  # vhalf^2, the half-step volume squared

    _sound_speed_sq_clamped(pbvc, e_new, vhalf, bvc, p_half, rho0, out=ssc, s=s)
    np.multiply(ssc, ql_old, out=q_new)
    q_new += qq_old
    np.greater(delvc, 0.0, out=sel)
    np.copyto(q_new, 0.0, where=sel)

    # e_new += 0.5 * delvc * (3*(p_old + q_old) - 4*(p_half + q_new))
    np.add(p_old, q_old, out=t1)
    t1 *= 3.0
    np.add(p_half, q_new, out=t2)
    t2 *= 4.0
    t1 -= t2
    np.multiply(delvc, 0.5, out=t2)
    t1 *= t2
    e_new += t1
    np.multiply(work, 0.5, out=t1)
    e_new += t1
    np.abs(e_new, out=t1)
    np.less(t1, e_cut, out=sel)
    np.copyto(e_new, 0.0, where=sel)
    np.maximum(e_new, emin, out=e_new)

    calc_pressure(
        e_new, compression, vnewc, pmin, p_cut, eosvmax,
        p_out=p_new, bvc_out=bvc, pbvc_out=pbvc, s=s,
    )
    np.multiply(vnewc, vnewc, out=t2)
    _sound_speed_sq_clamped(pbvc, e_new, t2, bvc, p_new, rho0, out=ssc, s=s)
    np.multiply(ssc, ql_old, out=q_tilde)
    q_tilde += qq_old
    np.greater(delvc, 0.0, out=sel)
    np.copyto(q_tilde, 0.0, where=sel)

    # e_new -= (7*(p_old+q_old) - 8*(p_half+q_new) + (p_new+q_tilde)) * delvc / 6
    sixth = 1.0 / 6.0
    np.add(p_old, q_old, out=t1)
    t1 *= 7.0
    np.add(p_half, q_new, out=t2)
    t2 *= 8.0
    t1 -= t2
    np.add(p_new, q_tilde, out=t2)
    t1 += t2
    t1 *= delvc
    t1 *= sixth
    e_new -= t1
    np.abs(e_new, out=t1)
    np.less(t1, e_cut, out=sel)
    np.copyto(e_new, 0.0, where=sel)
    np.maximum(e_new, emin, out=e_new)

    calc_pressure(
        e_new, compression, vnewc, pmin, p_cut, eosvmax,
        p_out=p_new, bvc_out=bvc, pbvc_out=pbvc, s=s,
    )
    np.less_equal(delvc, 0.0, out=sel)
    if sel.any():
        np.multiply(vnewc, vnewc, out=t2)
        _sound_speed_sq_clamped(pbvc, e_new, t2, bvc, p_new, rho0, out=ssc, s=s)
        q_final = q_tilde  # q_tilde is dead; reuse its buffer
        np.multiply(ssc, ql_old, out=q_final)
        q_final += qq_old
        np.abs(q_final, out=t1)
        np.less(t1, q_cut, out=sel2)
        np.copyto(q_final, 0.0, where=sel2)
        np.copyto(q_new, q_final, where=sel)

    return p_new, e_new, q_new, bvc, pbvc


def eval_eos_region(
    domain, reg_elems: np.ndarray, rep: int, lo: int = 0, hi: int | None = None
) -> None:
    """``EvalEOSForElems`` for ``reg_elems[lo:hi]`` with *rep* repetitions.

    The repetition loop re-gathers the inputs and recomputes each time —
    that *is* the extra work that models expensive materials; only the last
    repetition's values are stored (they are all identical).
    """
    if hi is None:
        hi = len(reg_elems)
    idx = reg_elems[lo:hi]
    if idx.size == 0:
        return
    if rep < 1:
        raise ValueError(f"rep must be >= 1, got {rep}")
    opts = domain.opts
    ws = domain.workspace
    m = idx.shape[0]

    with ws.scope() as s:
        vnewc = s.take((m,))
        np.take(domain.vnewc, idx, out=vnewc, mode="clip")

        e_old = s.take((m,))
        delvc = s.take((m,))
        p_old = s.take((m,))
        q_old = s.take((m,))
        qq_old = s.take((m,))
        ql_old = s.take((m,))
        compression = s.take((m,))
        vchalf = s.take((m,))
        comp_half_step = s.take((m,))
        work = s.take((m,))
        sel = s.take((m,), dtype=bool)
        outs = tuple(s.take((m,)) for _ in range(5))

        for _ in range(rep):
            np.take(domain.e, idx, out=e_old, mode="clip")
            np.take(domain.delv, idx, out=delvc, mode="clip")
            np.take(domain.p, idx, out=p_old, mode="clip")
            np.take(domain.q, idx, out=q_old, mode="clip")
            np.take(domain.qq, idx, out=qq_old, mode="clip")
            np.take(domain.ql, idx, out=ql_old, mode="clip")

            np.divide(1.0, vnewc, out=compression)
            compression -= 1.0
            np.multiply(delvc, 0.5, out=vchalf)
            np.subtract(vnewc, vchalf, out=vchalf)
            np.divide(1.0, vchalf, out=comp_half_step)
            comp_half_step -= 1.0

            if opts.eosvmin != 0.0:
                np.less_equal(vnewc, opts.eosvmin, out=sel)
                np.copyto(comp_half_step, compression, where=sel)
            if opts.eosvmax != 0.0:
                np.greater_equal(vnewc, opts.eosvmax, out=sel)
                np.copyto(p_old, 0.0, where=sel)
                np.copyto(compression, 0.0, where=sel)
                np.copyto(comp_half_step, 0.0, where=sel)

            work.fill(0.0)
            p_new, e_new, q_new, bvc, pbvc = calc_energy(
                p_old, e_old, q_old, compression, comp_half_step,
                vnewc, work, delvc, qq_old, ql_old, opts,
                out=outs, s=s,
            )

        domain.p[idx] = p_new
        domain.e[idx] = e_new
        domain.q[idx] = q_new

        # CalcSoundSpeedForElems
        np.multiply(vnewc, vnewc, out=compression)  # vnewc^2, buffer reuse
        ss = _sound_speed_sq_clamped(
            pbvc, e_new, compression, bvc, p_new, opts.refdens,
            out=work, s=s,
        )
        domain.ss[idx] = ss


_PTINY = 1.0e-36


def _limited_phi_into(
    phi: np.ndarray,
    s,
    delv: np.ndarray,
    idx: np.ndarray,
    bc: np.ndarray,
    mask: int,
    symm: int,
    free: int,
    nbr_minus_idx: np.ndarray,
    mask_p: int,
    symm_p: int,
    free_p: int,
    nbr_plus_idx: np.ndarray,
    limiter_mult: float,
    max_slope: float,
) -> np.ndarray:
    """The monotonic limiter for one logical direction, into *phi*."""
    m = idx.shape[0]
    center = s.take((m,))
    normq = s.take((m,))
    delvm = s.take((m,))
    delvp = s.take((m,))
    bcm = s.take((m,), dtype=bc.dtype)
    sel = s.take((m,), dtype=bool)

    np.take(delv, idx, out=center, mode="clip")
    np.add(center, _PTINY, out=normq)
    np.divide(1.0, normq, out=normq)

    np.bitwise_and(bc, mask, out=bcm)
    np.take(delv, nbr_minus_idx, out=delvm, mode="clip")
    np.equal(bcm, symm, out=sel)
    np.copyto(delvm, center, where=sel)
    np.equal(bcm, free, out=sel)
    np.copyto(delvm, 0.0, where=sel)

    np.bitwise_and(bc, mask_p, out=bcm)
    np.take(delv, nbr_plus_idx, out=delvp, mode="clip")
    np.equal(bcm, symm_p, out=sel)
    np.copyto(delvp, center, where=sel)
    np.equal(bcm, free_p, out=sel)
    np.copyto(delvp, 0.0, where=sel)

    delvm *= normq
    delvp *= normq
    np.add(delvm, delvp, out=phi)
    phi *= 0.5
    delvm *= limiter_mult
    delvp *= limiter_mult
    np.minimum(phi, delvm, out=phi)
    np.minimum(phi, delvp, out=phi)
    np.clip(phi, 0.0, max_slope, out=phi)
    return phi


def calc_monotonic_q_region(domain, reg_elems: np.ndarray, lo: int, hi: int) -> None:
    """``CalcMonotonicQRegionForElems`` over ``reg_elems[lo:hi]``."""
    opts = domain.opts
    mesh = domain.mesh
    ws = domain.workspace
    idx = reg_elems[lo:hi]
    if idx.size == 0:
        return
    # The region's BC masks and face-neighbour index lists are static
    # connectivity — built once per (region, partition) and cached.
    bc, nxim, nxip, netam, netap, nzetam, nzetap = ws.static(
        ("monoq", id(reg_elems), lo, hi),
        lambda: (
            mesh.elemBC[idx],
            mesh.lxim[idx],
            mesh.lxip[idx],
            mesh.letam[idx],
            mesh.letap[idx],
            mesh.lzetam[idx],
            mesh.lzetap[idx],
        ),
    )
    m = idx.shape[0]

    with ws.scope() as s:
        phixi = s.take((m,))
        phieta = s.take((m,))
        phizeta = s.take((m,))
        _limited_phi_into(
            phixi, s, domain.delv_xi, idx, bc,
            XI_M, XI_M_SYMM, XI_M_FREE, nxim,
            XI_P, XI_P_SYMM, XI_P_FREE, nxip,
            opts.monoq_limiter_mult, opts.monoq_max_slope,
        )
        _limited_phi_into(
            phieta, s, domain.delv_eta, idx, bc,
            ETA_M, ETA_M_SYMM, ETA_M_FREE, netam,
            ETA_P, ETA_P_SYMM, ETA_P_FREE, netap,
            opts.monoq_limiter_mult, opts.monoq_max_slope,
        )
        _limited_phi_into(
            phizeta, s, domain.delv_zeta, idx, bc,
            ZETA_M, ZETA_M_SYMM, ZETA_M_FREE, nzetam,
            ZETA_P, ZETA_P_SYMM, ZETA_P_FREE, nzetap,
            opts.monoq_limiter_mult, opts.monoq_max_slope,
        )

        delvxxi = s.take((m,))
        delvxeta = s.take((m,))
        delvxzeta = s.take((m,))
        t1 = s.take((m,))
        for dv, dx, out_ in (
            (domain.delv_xi, domain.delx_xi, delvxxi),
            (domain.delv_eta, domain.delx_eta, delvxeta),
            (domain.delv_zeta, domain.delx_zeta, delvxzeta),
        ):
            np.take(dv, idx, out=out_, mode="clip")
            np.take(dx, idx, out=t1, mode="clip")
            out_ *= t1
            np.minimum(out_, 0.0, out=out_)

        rho = s.take((m,))
        np.take(domain.elemMass, idx, out=rho, mode="clip")
        np.take(domain.volo, idx, out=t1, mode="clip")
        t2 = s.take((m,))
        np.take(domain.vnew, idx, out=t2, mode="clip")
        t1 *= t2
        rho /= t1

        qlin = s.take((m,))
        qquad = s.take((m,))
        # qlin = (-qlc * rho) * sum_k delvx_k * (1 - phi_k)
        np.subtract(1.0, phixi, out=t1)
        np.multiply(delvxxi, t1, out=qlin)
        np.subtract(1.0, phieta, out=t1)
        t1 *= delvxeta
        qlin += t1
        np.subtract(1.0, phizeta, out=t1)
        t1 *= delvxzeta
        qlin += t1
        np.multiply(rho, -opts.qlc_monoq, out=t1)
        qlin *= t1
        # qquad = (qqc * rho) * sum_k delvx_k^2 * (1 - phi_k^2)
        np.multiply(phixi, phixi, out=t1)
        np.subtract(1.0, t1, out=t1)
        np.multiply(delvxxi, delvxxi, out=qquad)
        qquad *= t1
        np.multiply(phieta, phieta, out=t1)
        np.subtract(1.0, t1, out=t1)
        np.multiply(delvxeta, delvxeta, out=t2)
        t2 *= t1
        qquad += t2
        np.multiply(phizeta, phizeta, out=t1)
        np.subtract(1.0, t1, out=t1)
        np.multiply(delvxzeta, delvxzeta, out=t2)
        t2 *= t1
        qquad += t2
        np.multiply(rho, opts.qqc_monoq, out=t1)
        qquad *= t1

        # Expanding elements (vdov > 0) get no artificial viscosity.
        np.take(domain.vdov, idx, out=t1, mode="clip")
        expanding = s.take((m,), dtype=bool)
        np.greater(t1, 0.0, out=expanding)
        np.copyto(qlin, 0.0, where=expanding)
        np.copyto(qquad, 0.0, where=expanding)

        domain.ql[idx] = qlin
        domain.qq[idx] = qquad


# --- inputs ------------------------------------------------------------------

SIZES = st.integers(1, 2100)
REPS = st.sampled_from([1, 2, 7, 20])
#: Share of the values replaced by signed zeros / subnormals / cutoffs.
SHARES = st.sampled_from([0.0, 0.01, 0.2, 0.6])
SEEDS = st.integers(0, 2**32 - 1)

WORKSPACES = ("arena", "alloc_each_time")
DEFAULT = LuleshOptions()
#: The default clamps, and none at all (``eosvmin = eosvmax = 0``).
OPTIONS = (DEFAULT, replace(DEFAULT, eosvmin=0.0, eosvmax=0.0))


def make_workspace(mode):
    return Workspace(reuse=mode == "arena")


def mixed(rng, n, zeros, subnormals, specials=()):
    """Log-uniform magnitudes in [1e-8, 1e8] with random signs; a share
    *zeros* of them replaced by +0.0 or -0.0, a share *subnormals* by
    subnormal numbers and, as often as by zeros, by one of *specials*."""
    sign = rng.choice([-1.0, 1.0], size=n)
    values = sign * 10.0 ** rng.uniform(-8.0, 8.0, size=n)
    tiny = sign * rng.integers(1, 2**52, size=n).view(np.float64)
    u = rng.random(n)
    values = np.where(u < subnormals, tiny, values)
    values = np.where(u > 1.0 - zeros, sign * 0.0, values)
    if specials:
        pick = rng.choice(np.array(specials, dtype=np.float64), size=n)
        values = np.where(rng.random(n) < zeros, pick, values)
    return values


def assert_same_bits(new, ref, what):
    """Equal as int64 bit patterns: -0.0 differs from +0.0."""
    assert new.shape == ref.shape, what
    diff = np.ascontiguousarray(new).view(np.int64) != np.ascontiguousarray(
        ref
    ).view(np.int64)
    assert not diff.any(), (
        f"{what}: {int(diff.sum())} of {diff.size} values differ, "
        f"first at {tuple(np.argwhere(diff)[0])}"
    )


def arrays(domain):
    return {k: v for k, v in vars(domain).items() if isinstance(v, np.ndarray)}


def compare(domain, run_ref, run_new, outputs):
    """Run the reference and the new kernel on copies of *domain*'s fields
    (one shared workspace); every field ends with the same bits, and only
    *outputs* may differ from the inputs."""
    before = {k: v.copy() for k, v in arrays(domain).items()}
    ref = copy.copy(domain)
    new = copy.copy(domain)
    for d in (ref, new):
        for name, value in before.items():
            setattr(d, name, value.copy())
    run_ref(ref)
    run_new(new)
    for name, value in before.items():
        assert_same_bits(getattr(new, name), getattr(ref, name), name)
        if name not in outputs:
            assert_same_bits(getattr(new, name), value, f"{name} untouched")


# --- the EOS -------------------------------------------------------------------

EOS_OUTPUTS = ("p", "e", "q", "ss")


def random_eos_domain(rng, ne, zeros, subnormals, ws, opts, delv_sign):
    """The fields ``eval_eos_region`` reads, drawn at random.

    Volumes stay positive (the prologue clamps them and aborts on
    non-positive ones) and finite; a share sits exactly on the clamps.
    """
    cuts = (opts.p_cut, -opts.p_cut, opts.e_cut, -opts.e_cut, opts.q_cut,
            -opts.q_cut, opts.emin)
    fields = {name: mixed(rng, ne, zeros, subnormals, cuts)
              for name in ("e", "p", "q", "qq", "ql")}
    delv = mixed(rng, ne, zeros, subnormals)
    if delv_sign == "expanding":
        delv = np.abs(delv)
    elif delv_sign == "compressing":
        delv = -np.abs(delv)
    vnewc = 10.0 ** rng.uniform(-1.0, 1.0, ne)
    clamps = [v for v in (opts.eosvmin, opts.eosvmax) if v != 0.0]
    if clamps:
        at = rng.random(ne) < zeros
        vnewc[at] = rng.choice(clamps, size=int(at.sum()))
    return SimpleNamespace(
        opts=opts, workspace=ws, delv=delv, vnewc=vnewc,
        ss=mixed(rng, ne, 0.0, 0.0), **fields,
    )


def compare_eos(domain, reg_elems, rep, lo, hi):
    compare(
        domain,
        lambda d: eval_eos_region(d, reg_elems, rep, lo, hi),
        lambda d: eos.eval_eos_region(d, reg_elems, rep, lo, hi),
        EOS_OUTPUTS,
    )


def eos_case(rng, m, rep, zeros, subnormals, ws, opts, delv_sign, lo=2):
    """A region of *m* elements at ``[lo, lo + m)`` of a shuffled element
    list, with three elements outside it that must stay untouched."""
    ne = lo + m + 3
    domain = random_eos_domain(rng, ne, zeros, subnormals, ws, opts, delv_sign)
    reg_elems = rng.permutation(ne)
    compare_eos(domain, reg_elems, rep, lo, lo + m)


DELV_SIGNS = st.sampled_from(["mixed", "expanding", "compressing"])


@pytest.mark.parametrize("mode", WORKSPACES)
@pytest.mark.parametrize("opts", OPTIONS, ids=("clamped", "unclamped"))
class TestEos:
    @given(m=SIZES, rep=REPS, zeros=SHARES, subnormals=SHARES,
           delv_sign=DELV_SIGNS, seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_random(self, mode, opts, m, rep, zeros, subnormals, delv_sign,
                    seed):
        rng = np.random.default_rng(seed)
        ws = make_workspace(mode)
        # Warm the arena on other values first: a kernel must not depend
        # on what its pooled scratch held before.
        eos_case(rng, m, rep, 0.1, 0.1, ws, opts, "mixed")
        eos_case(rng, m, rep, zeros, subnormals, ws, opts, delv_sign)

    @pytest.mark.parametrize("m, rep", [
        (549, 20),   # s=20's rep-20 region: passes of 14 and 6 repetitions
        (2048, 7),   # a full partition: 4 + 3
        (1000, 20),  # 8 + 8 + 4
        (8193, 2),   # longer than a pass: one repetition per pass
    ])
    def test_partial_last_pass(self, mode, opts, m, rep):
        rng = np.random.default_rng(m * rep)
        ws = make_workspace(mode)
        for delv_sign in ("mixed", "expanding"):
            eos_case(rng, m, rep, 0.2, 0.2, ws, opts, delv_sign)

    def test_signed_zero_delv(self, mode, opts):
        """``delv`` of exactly +0.0 and -0.0: neither expands, both keep q."""
        rng = np.random.default_rng(5)
        domain = random_eos_domain(rng, 64, 0.2, 0.2, make_workspace(mode),
                                   opts, "mixed")
        domain.delv[:] = np.where(np.arange(64) % 2, 0.0, -0.0)
        compare_eos(domain, np.arange(64), 7, 0, 64)


def test_rep_below_one_raises():
    domain = random_eos_domain(np.random.default_rng(0), 4, 0.0, 0.0,
                               make_workspace("arena"), DEFAULT, "mixed")
    for rep in (0, -1):
        with pytest.raises(ValueError):
            eos.eval_eos_region(domain, np.arange(4), rep)


# --- the Q region limiter ------------------------------------------------------

Q_OUTPUTS = ("ql", "qq")
#: Each face's mask and its symmetry, free and comm bits.
FACES = (
    (XI_M, XI_M_SYMM, XI_M_FREE, XI_M_COMM),
    (XI_P, XI_P_SYMM, XI_P_FREE, XI_P_COMM),
    (ETA_M, ETA_M_SYMM, ETA_M_FREE, ETA_M_COMM),
    (ETA_P, ETA_P_SYMM, ETA_P_FREE, ETA_P_COMM),
    (ZETA_M, ZETA_M_SYMM, ZETA_M_FREE, ZETA_M_COMM),
    (ZETA_P, ZETA_P_SYMM, ZETA_P_FREE, ZETA_P_COMM),
)
NEIGHBOURS = ("lxim", "lxip", "letam", "letap", "lzetam", "lzetap")


def random_bc(rng, n):
    """Each face of each element gets any subset of its three bits."""
    bc = np.zeros(n, dtype=np.int32)
    for mask, *_ in FACES:
        bc |= rng.integers(0, 8, size=n, dtype=np.int32) * (mask & -mask)
    return bc


def every_bc_combination():
    """One element per combination of the six faces' states: interior,
    symmetry, free or comm (4**6 = 4,096 elements)."""
    states = [(0, symm, free, comm) for _, symm, free, comm in FACES]
    return np.array(
        [sum(combo) for combo in itertools.product(*states)], dtype=np.int32
    )


def random_q_domain(rng, ne, zeros, subnormals, ws, bc=None):
    """The fields ``calc_monotonic_q_region`` reads, drawn at random.

    Masses and volumes stay positive, as in a valid mesh.
    """
    def values():
        return mixed(rng, ne, zeros, subnormals)

    mesh = SimpleNamespace(
        elemBC=random_bc(rng, ne) if bc is None else bc,
        **{name: rng.integers(0, ne, size=ne) for name in NEIGHBOURS},
    )
    return SimpleNamespace(
        opts=DEFAULT, workspace=ws, mesh=mesh,
        **{name: values() for name in (
            "delv_xi", "delv_eta", "delv_zeta", "delx_xi", "delx_eta",
            "delx_zeta", "vdov", "ql", "qq")},
        **{name: 10.0 ** rng.uniform(-8.0, 8.0, ne)
           for name in ("elemMass", "volo", "vnew")},
    )


def compare_q(domain, reg_elems, lo, hi):
    compare(
        domain,
        lambda d: calc_monotonic_q_region(d, reg_elems, lo, hi),
        lambda d: qcalc.calc_monotonic_q_region(d, reg_elems, lo, hi),
        Q_OUTPUTS,
    )


@pytest.mark.parametrize("mode", WORKSPACES)
class TestQRegion:
    @given(m=SIZES, zeros=SHARES, subnormals=SHARES, seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_random(self, mode, m, zeros, subnormals, seed):
        rng = np.random.default_rng(seed)
        ws = make_workspace(mode)
        for z, sub in ((0.1, 0.1), (zeros, subnormals)):
            ne = m + 5
            compare_q(random_q_domain(rng, ne, z, sub, ws),
                      rng.permutation(ne), 2, 2 + m)

    def test_every_bc_combination(self, mode):
        bc = every_bc_combination()
        ne = bc.shape[0]
        rng = np.random.default_rng(7)
        domain = random_q_domain(rng, ne, 0.2, 0.2, make_workspace(mode), bc)
        compare_q(domain, np.arange(ne), 0, ne)


# --- real states -----------------------------------------------------------------

STATE_CYCLES = (1, 10, 60)


@pytest.fixture(scope="module")
def s20_states():
    """An s=20 run's Domain after 1, 10 and 60 cycles."""
    domain = Domain(LuleshOptions(nx=20, numReg=11))
    driver = SequentialDriver(domain)
    states = {}
    while domain.cycle < STATE_CYCLES[-1]:
        driver.step()
        if domain.cycle in STATE_CYCLES:
            states[domain.cycle] = copy.deepcopy(domain)
    return states


def region_partitions(domain):
    _, elements = table1_partition_sizes(domain.opts.nx)
    return [
        (lst, domain.regions.rep(r), lo, hi)
        for r, lst in enumerate(domain.regions.reg_elem_lists)
        for lo, hi in partition_layout(len(lst), elements)
    ]


@pytest.mark.parametrize("mode", WORKSPACES)
@pytest.mark.parametrize("cycle", STATE_CYCLES)
def test_real_states(s20_states, cycle, mode):
    """The limiter, then the EOS, over every region partition of the
    state, as a cycle runs them."""
    domain = copy.deepcopy(s20_states[cycle])
    domain.configure_workspace(mode == "arena")
    parts = region_partitions(domain)

    def run(q_region, eos_region):
        def step(d):
            for lst, _, lo, hi in parts:
                q_region(d, lst, lo, hi)
            for lst, rep, lo, hi in parts:
                eos_region(d, lst, rep, lo, hi)
        return step

    compare(
        domain,
        run(calc_monotonic_q_region, eval_eos_region),
        run(qcalc.calc_monotonic_q_region, eos.eval_eos_region),
        Q_OUTPUTS + EOS_OUTPUTS,
    )
