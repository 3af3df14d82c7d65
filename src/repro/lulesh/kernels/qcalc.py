"""Artificial viscosity: monotonic Q gradients and per-region Q evaluation.

``CalcQForElems`` (paper Fig. 3): first a full-mesh gradient pass computes
velocity/position gradients along the three logical mesh directions
(xi/eta/zeta); then, per material region, a limiter ("monotonic Q") converts
them into the linear and quadratic viscosity terms ``ql`` / ``qq`` consumed
by the EOS.  Boundary handling follows the reference's bitmask switch:
symmetry faces mirror the element's own gradient, free faces contribute
zero, interior faces read the face neighbour via ``lxim``/``lxip`` etc.

The limiter runs the three directions as the rows of one ``(3, m)`` pass:
one normalisation, one symmetry/free selection and one limiter pass over the
gathered centre, minus and plus rows, then ``qlin``/``qquad`` summed over
the rows left to right (xi + eta, then + zeta), each value through the same
IEEE operations as a direction at a time.  The per-region face-neighbour
lists and the ``(3, m)`` symmetry/free masks derived from ``elemBC`` are
static per region partition — built once and kept in the workspace's static
cache; the temporaries are one ``(5, 3, m)`` scratch block.
"""

from __future__ import annotations

import numpy as np

from repro.lulesh.errors import QStopError
from repro.lulesh.mesh import (
    ETA_M,
    ETA_M_FREE,
    ETA_M_SYMM,
    ETA_P,
    ETA_P_FREE,
    ETA_P_SYMM,
    XI_M,
    XI_M_FREE,
    XI_M_SYMM,
    XI_P,
    XI_P_FREE,
    XI_P_SYMM,
    ZETA_M,
    ZETA_M_FREE,
    ZETA_M_SYMM,
    ZETA_P,
    ZETA_P_FREE,
    ZETA_P_SYMM,
)

__all__ = ["calc_monotonic_q_gradients", "calc_monotonic_q_region", "check_q_stop"]

_PTINY = 1.0e-36


def calc_monotonic_q_gradients(domain, lo: int, hi: int) -> None:
    """``CalcMonotonicQGradientsForElems`` over elements ``[lo, hi)``."""
    ws = domain.workspace
    x = domain.gather_corners("x", lo, hi)
    y = domain.gather_corners("y", lo, hi)
    z = domain.gather_corners("z", lo, hi)
    xv = domain.gather_corners("xd", lo, hi)
    yv = domain.gather_corners("yd", lo, hi)
    zv = domain.gather_corners("zd", lo, hi)
    n = hi - lo

    with ws.scope() as s:
        vol = s.take((n,))
        norm = s.take((n,))
        np.multiply(domain.volo[lo:hi], domain.vnew[lo:hi], out=vol)
        np.add(vol, _PTINY, out=norm)
        np.divide(1.0, norm, out=norm)

        t1 = s.take((n,))

        def face_diff_into(
            dst: np.ndarray, c: np.ndarray, plus: tuple, minus: tuple, sign: float
        ) -> np.ndarray:
            np.add(c[:, plus[0]], c[:, plus[1]], out=dst)
            np.add(dst, c[:, plus[2]], out=dst)
            np.add(dst, c[:, plus[3]], out=dst)
            np.add(c[:, minus[0]], c[:, minus[1]], out=t1)
            np.add(t1, c[:, minus[2]], out=t1)
            np.add(t1, c[:, minus[3]], out=t1)
            np.subtract(dst, t1, out=dst)
            np.multiply(dst, sign * 0.25, out=dst)
            return dst

        # Centered direction vectors of the logical axes.
        dxj, dyj, dzj, dxi, dyi, dzi, dxk, dyk, dzk = (
            s.take((n,)) for _ in range(9)
        )
        face_diff_into(dxj, x, (0, 1, 5, 4), (3, 2, 6, 7), -1.0)
        face_diff_into(dyj, y, (0, 1, 5, 4), (3, 2, 6, 7), -1.0)
        face_diff_into(dzj, z, (0, 1, 5, 4), (3, 2, 6, 7), -1.0)
        face_diff_into(dxi, x, (1, 2, 6, 5), (0, 3, 7, 4), 1.0)
        face_diff_into(dyi, y, (1, 2, 6, 5), (0, 3, 7, 4), 1.0)
        face_diff_into(dzi, z, (1, 2, 6, 5), (0, 3, 7, 4), 1.0)
        face_diff_into(dxk, x, (4, 5, 6, 7), (0, 1, 2, 3), 1.0)
        face_diff_into(dyk, y, (4, 5, 6, 7), (0, 1, 2, 3), 1.0)
        face_diff_into(dzk, z, (4, 5, 6, 7), (0, 1, 2, 3), 1.0)

        ax, ay, az = (s.take((n,)) for _ in range(3))
        dxv, dyv, dzv = (s.take((n,)) for _ in range(3))
        t2 = s.take((n,))

        def direction(a, b, vplus, vminus, vsign, delx_out, delv_out) -> None:
            np.multiply(a[1], b[2], out=ax)
            np.multiply(a[2], b[1], out=t2)
            np.subtract(ax, t2, out=ax)
            np.multiply(a[2], b[0], out=ay)
            np.multiply(a[0], b[2], out=t2)
            np.subtract(ay, t2, out=ay)
            np.multiply(a[0], b[1], out=az)
            np.multiply(a[1], b[0], out=t2)
            np.subtract(az, t2, out=az)
            # delx = vol / sqrt(ax^2 + ay^2 + az^2 + PTINY)
            np.multiply(ax, ax, out=t1)
            np.multiply(ay, ay, out=t2)
            np.add(t1, t2, out=t1)
            np.multiply(az, az, out=t2)
            np.add(t1, t2, out=t1)
            np.add(t1, _PTINY, out=t1)
            np.sqrt(t1, out=t1)
            np.divide(vol, t1, out=delx_out[lo:hi])
            np.multiply(ax, norm, out=ax)
            np.multiply(ay, norm, out=ay)
            np.multiply(az, norm, out=az)
            face_diff_into(dxv, xv, vplus, vminus, vsign)
            face_diff_into(dyv, yv, vplus, vminus, vsign)
            face_diff_into(dzv, zv, vplus, vminus, vsign)
            dv = delv_out[lo:hi]
            np.multiply(ax, dxv, out=dv)
            np.multiply(ay, dyv, out=t1)
            dv += t1
            np.multiply(az, dzv, out=t1)
            dv += t1

        # zeta: normal = di x dj, velocity difference across the k faces
        direction(
            (dxi, dyi, dzi), (dxj, dyj, dzj),
            (4, 5, 6, 7), (0, 1, 2, 3), 1.0,
            domain.delx_zeta, domain.delv_zeta,
        )
        # xi: normal = dj x dk, velocity difference across the i faces
        direction(
            (dxj, dyj, dzj), (dxk, dyk, dzk),
            (1, 2, 6, 5), (0, 3, 7, 4), 1.0,
            domain.delx_xi, domain.delv_xi,
        )
        # eta: normal = dk x di, velocity difference across the j faces
        direction(
            (dxk, dyk, dzk), (dxi, dyi, dzi),
            (0, 1, 5, 4), (3, 2, 6, 7), -1.0,
            domain.delx_eta, domain.delv_eta,
        )


def _region_statics(mesh, idx: np.ndarray) -> tuple:
    """Minus and plus face-neighbour lists and ``(3, m)`` symm/free masks.

    Rows are xi, eta, zeta; the masks say where the minus/plus face is a
    symmetry plane (the neighbour value is the element's own) or free (0).
    """
    bc = mesh.elemBC[idx]

    def masks(faces):
        return np.stack([(bc & mask) == bit for mask, bit in faces])

    return (
        (mesh.lxim[idx], mesh.letam[idx], mesh.lzetam[idx]),
        (mesh.lxip[idx], mesh.letap[idx], mesh.lzetap[idx]),
        masks(((XI_M, XI_M_SYMM), (ETA_M, ETA_M_SYMM), (ZETA_M, ZETA_M_SYMM))),
        masks(((XI_M, XI_M_FREE), (ETA_M, ETA_M_FREE), (ZETA_M, ZETA_M_FREE))),
        masks(((XI_P, XI_P_SYMM), (ETA_P, ETA_P_SYMM), (ZETA_P, ZETA_P_SYMM))),
        masks(((XI_P, XI_P_FREE), (ETA_P, ETA_P_FREE), (ZETA_P, ZETA_P_FREE))),
    )


def calc_monotonic_q_region(domain, reg_elems: np.ndarray, lo: int, hi: int) -> None:
    """``CalcMonotonicQRegionForElems`` over ``reg_elems[lo:hi]``."""
    opts = domain.opts
    ws = domain.workspace
    idx = reg_elems[lo:hi]
    if idx.size == 0:
        return
    # Static connectivity, built once per (region, partition); the entry
    # holds reg_elems so its id stays unique.
    _, nbr_minus, nbr_plus, symm_m, free_m, symm_p, free_p = ws.static(
        ("monoq-rows", id(reg_elems), lo, hi),
        lambda: (reg_elems, *_region_statics(domain.mesh, idx)),
    )
    delv = (domain.delv_xi, domain.delv_eta, domain.delv_zeta)
    delx = (domain.delx_xi, domain.delx_eta, domain.delx_zeta)
    m = idx.shape[0]

    with ws.scope() as s:
        center, phi, delvm, delvp, delvx = s.take((5, 3, m))
        for k in range(3):
            np.take(delv[k], idx, out=center[k], mode="clip")
            np.take(delv[k], nbr_minus[k], out=delvm[k], mode="clip")
            np.take(delv[k], nbr_plus[k], out=delvp[k], mode="clip")
            np.take(delx[k], idx, out=delvx[k], mode="clip")

        # The monotonic limiter, all three directions at once.
        normq = phi
        np.add(center, _PTINY, out=normq)
        np.divide(1.0, normq, out=normq)
        np.copyto(delvm, center, where=symm_m)
        np.copyto(delvm, 0.0, where=free_m)
        np.copyto(delvp, center, where=symm_p)
        np.copyto(delvp, 0.0, where=free_p)
        delvm *= normq
        delvp *= normq
        np.add(delvm, delvp, out=phi)
        phi *= 0.5
        delvm *= opts.monoq_limiter_mult
        delvp *= opts.monoq_limiter_mult
        np.minimum(phi, delvm, out=phi)
        np.minimum(phi, delvp, out=phi)
        np.clip(phi, 0.0, opts.monoq_max_slope, out=phi)

        # delvx_k = min(delv_k * delx_k, 0)
        np.multiply(center, delvx, out=delvx)
        np.minimum(delvx, 0.0, out=delvx)

        # Per-direction terms: delvx * (1 - phi) and delvx^2 * (1 - phi^2).
        lin, quad = delvm, delvp
        np.subtract(1.0, phi, out=lin)
        np.multiply(delvx, lin, out=lin)
        np.multiply(phi, phi, out=quad)
        np.subtract(1.0, quad, out=quad)
        np.multiply(delvx, delvx, out=center)
        np.multiply(center, quad, out=quad)

        qlin, qquad = phi[0], phi[1]
        rho, t1, t2 = center
        np.take(domain.elemMass, idx, out=rho, mode="clip")
        np.take(domain.volo, idx, out=t1, mode="clip")
        np.take(domain.vnew, idx, out=t2, mode="clip")
        t1 *= t2
        rho /= t1

        # qlin = (-qlc * rho) * sum_k delvx_k * (1 - phi_k)
        np.add(lin[0], lin[1], out=qlin)
        qlin += lin[2]
        np.multiply(rho, -opts.qlc_monoq, out=t1)
        qlin *= t1
        # qquad = (qqc * rho) * sum_k delvx_k^2 * (1 - phi_k^2)
        np.add(quad[0], quad[1], out=qquad)
        qquad += quad[2]
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


def check_q_stop(domain, lo: int, hi: int) -> None:
    """Abort check of ``CalcQForElems``: q may not exceed ``qstop``."""
    ws = domain.workspace
    with ws.scope() as s:
        over = s.take((hi - lo,), dtype=bool)
        np.greater(domain.q[lo:hi], domain.opts.qstop, out=over)
        if over.any():
            bad = lo + int(np.argmax(over))
            raise QStopError(
                f"artificial viscosity exceeded qstop={domain.opts.qstop} "
                f"in element {bad}"
            )
