"""Hourglass-control kernels (Flanagan–Belytschko kinematic filter).

The second force component of ``LagrangeNodal()``: hexahedral elements with
single-point integration admit zero-energy "hourglass" deformation modes;
LULESH damps them with the FB hourglass force.  Two kernels, matching the
reference decomposition:

* :func:`calc_hourglass_control` (``CalcHourglassControlForElems``) —
  element volume derivatives + coordinate capture, and the element-inversion
  check on the *old* volume;
* :func:`calc_fb_hourglass_force` (``CalcFBHourglassForceForElems``) — the
  mode projection and force, written into the per-corner force arrays
  (accumulated on top of the stress forces by the node-domain sum kernel).

The paper runs the whole stress chain and the whole hourglass chain as
*independent* parallel task chains (Fig. 8) — possible because both only
read coordinates/velocities and write disjoint per-corner arrays.  The
coordinate gathers go through the shared per-partition gather cache, so the
``x/y/z`` corners fetched by the stress chain are reused here rather than
re-gathered.
"""

from __future__ import annotations

import numpy as np

from repro.lulesh.errors import VolumeError
from repro.lulesh.kernels.geometry import GAMMA_HOURGLASS, calc_elem_volume_derivative

__all__ = ["calc_hourglass_control", "calc_fb_hourglass_force"]


def calc_hourglass_control(domain, lo: int, hi: int) -> None:
    """``CalcHourglassControlForElems`` over elements ``[lo, hi)``.

    Stores dV/d(corner) and corner coordinates for the force kernel, sets
    ``determ = volo * v`` (the pre-step element volume), and enforces the
    positive-volume invariant.
    """
    ws = domain.workspace
    x = domain.gather_corners("x", lo, hi)
    y = domain.gather_corners("y", lo, hi)
    z = domain.gather_corners("z", lo, hi)
    calc_elem_volume_derivative(
        x, y, z,
        dvdx_out=domain.dvdx[lo:hi],
        dvdy_out=domain.dvdy[lo:hi],
        dvdz_out=domain.dvdz[lo:hi],
        ws=ws,
    )
    domain.x8n[lo:hi] = x
    domain.y8n[lo:hi] = y
    domain.z8n[lo:hi] = z
    np.multiply(domain.volo[lo:hi], domain.v[lo:hi], out=domain.hg_determ[lo:hi])
    with ws.scope() as s:
        bad_mask = s.take((hi - lo,), dtype=bool)
        np.less_equal(domain.v[lo:hi], 0.0, out=bad_mask)
        if bad_mask.any():
            bad = lo + int(np.argmax(bad_mask))
            raise VolumeError(
                f"non-positive relative volume in element {bad} (hourglass control)"
            )


def calc_fb_hourglass_force(domain, lo: int, hi: int) -> None:
    """``CalcFBHourglassForceForElems`` over elements ``[lo, hi)``.

    Adds the hourglass force to the per-corner force arrays.  Skipped
    entirely when ``hgcoef == 0`` (the reference's guard).
    """
    hourg = domain.opts.hgcoef
    if hourg <= 0.0:
        domain.hgfx_elem.reshape(-1, 8)[lo:hi] = 0.0
        domain.hgfy_elem.reshape(-1, 8)[lo:hi] = 0.0
        domain.hgfz_elem.reshape(-1, 8)[lo:hi] = 0.0
        return
    ws = domain.workspace
    gamma_t = GAMMA_HOURGLASS.T  # (8 corners, 4 modes)
    determ = domain.hg_determ[lo:hi]
    n = hi - lo

    # Scratch is element-last, (corner, mode, element): every pass runs
    # over contiguous element rows, and the corner sum stays the outermost
    # einsum loop for every n.  The einsums keep the reference's per-value
    # operations and summation orders (pinned by the kernel-equivalence
    # property test); an einsum writes ``0 + sum``, so its output never
    # holds -0.0.
    with ws.scope() as s:
        volinv = s.take((n,))
        np.divide(1.0, determ, out=volinv)

        # hourmod[m] = sum_a coord8n[a] * gamma[m][a]: (n, 8) @ (8, 4) BLAS,
        # then transposed to (4, n).
        hm = s.take((n, 4))
        hm_t = s.take((4, n))
        row = s.take((8, n))
        hourgam = s.take((8, 4, n))
        t = s.take((8, 4, n))

        # hourgam[a][m] = gamma[m][a] - volinv * (dvdx[a]*hmx[m] + ...)
        # Outer products and the volinv scale go through einsum: broadcast
        # (stride-0) ufunc operands trigger buffered iteration, which
        # allocates per call; einsum's contraction loop does not.
        for i, (c8n, dv) in enumerate(
            ((domain.x8n, domain.dvdx), (domain.y8n, domain.dvdy),
             (domain.z8n, domain.dvdz))
        ):
            np.matmul(c8n[lo:hi], gamma_t, out=hm)
            hm_t[...] = hm.T
            row[...] = dv[lo:hi].T
            np.einsum("an,mn->amn", row, hm_t, out=t if i else hourgam)
            if i:
                hourgam += t
        np.einsum("amn,n->amn", hourgam, volinv, out=t)
        gamma_full = ws.static(
            ("gamma-element-last", n),
            lambda: np.ascontiguousarray(
                np.broadcast_to(gamma_t[:, :, None], (8, 4, n))
            ),
        )
        np.subtract(gamma_full, t, out=hourgam)

        ss1 = domain.ss[lo:hi]
        mass1 = domain.elemMass[lo:hi]
        coefficient = s.take((n,))
        volume13 = s.take((n,))
        np.cbrt(determ, out=volume13)
        # -hourg * 0.01 * ss1 * mass1 / volume13, left-assoc: the scalar
        # product folds first.
        np.multiply(ss1, -hourg * 0.01, out=coefficient)
        coefficient *= mass1
        coefficient /= volume13

        fx = domain.hgfx_elem.reshape(-1, 8)
        fy = domain.hgfy_elem.reshape(-1, 8)
        fz = domain.hgfz_elem.reshape(-1, 8)
        h = hm_t
        # Modes split as m = 2j + i: pairs[i][a] = p_i + p_(i+2) is a
        # two-term einsum sum, whose order cannot matter.
        hourgam_ji = hourgam.reshape(8, 2, 2, n)
        h_ji = h.reshape(2, 2, n)
        pairs = s.take((2, 8, n))
        # h[m] = sum_a hourgam[a][m] * vel[a], summed over a left to right;
        # force[a] = coeff * sum_m hourgam[a][m] * h[m], the four mode
        # products summed as (p0 + p2) + (p1 + p3).  The plain add can leave
        # a -0.0 where the reference's einsum held +0.0; the coefficient
        # einsum turns it into +0.0, as the reference's last einsum does.
        for name, f in (("xd", fx), ("yd", fy), ("zd", fz)):
            row[...] = domain.gather_corners(name, lo, hi).T
            np.einsum("amn,an->mn", hourgam, row, out=h)
            np.einsum("ajin,jin->ian", hourgam_ji, h_ji, out=pairs)
            np.add(pairs[0], pairs[1], out=row)
            np.einsum("an,n->an", row, coefficient, out=pairs[0])
            f[lo:hi] = pairs[0].T
