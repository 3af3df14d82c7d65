"""Element geometry primitives (vectorized ``CalcElem*`` routines).

All functions take per-element corner arrays of shape ``(n, 8)`` (the
``CollectDomainNodesToElemNodes`` gather) and return per-element arrays.
Formulas are transcribed from the reference implementation; corner ordering
is the LULESH hexahedron: nodes 0-3 on the bottom face (counterclockwise
looking down the +zeta axis), nodes 4-7 directly above them.

Every primitive accepts ``out=`` destination arrays and a ``ws=`` workspace
(:class:`~repro.lulesh.workspace.Workspace`) supplying its elementwise
scratch.  With ``ws=None`` scratch comes from the module-level
allocate-each-time ``HEAP`` workspace — the pre-arena behaviour — and with
``out=None`` results are freshly allocated, so existing callers are
unchanged.  The in-place formulations evaluate the exact same dataflow as
the expression forms (only commutations that are bitwise-exact in IEEE-754
are applied), so arena and heap paths produce bit-identical physics.
"""

from __future__ import annotations

import numpy as np

from repro.lulesh.workspace import HEAP

__all__ = [
    "calc_elem_volume",
    "calc_elem_characteristic_length",
    "calc_elem_shape_function_derivatives",
    "calc_elem_node_normals",
    "calc_elem_velocity_gradient",
    "calc_elem_volume_derivative",
    "GAMMA_HOURGLASS",
]

# The four hourglass base vectors of the Flanagan-Belytschko kinematic
# hourglass filter (rows: modes, columns: element corners).
GAMMA_HOURGLASS = np.array(
    [
        [1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0],
        [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0],
        [-1.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0],
    ]
)

# The twelve corner-difference vectors of the volume formula, as
# (minuend, subtrahend) corner pairs; the three triples reference them by
# name through this table.
_VOL_TRIPLES = (
    # (a = d(a1) + d(a2), b, c) per triple
    (((3, 1), (7, 2)), (6, 3), (2, 0)),
    (((4, 3), (5, 7)), (6, 4), (7, 0)),
    (((1, 4), (2, 5)), (6, 1), (5, 0)),
)


def calc_elem_volume(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    out: np.ndarray | None = None,
    ws=None,
) -> np.ndarray:
    """Hexahedron volume (``CalcElemVolume``), shape ``(n,)``.

    The standard 3-triple-product formula: exact for any hexahedron with
    planar *or* warped (bilinear) faces, 1/12 of the sum of three scalar
    triple products of face-diagonal combinations.
    """
    if ws is None:
        ws = HEAP
    n = x.shape[0]
    if out is None:
        out = np.empty(n, dtype=x.dtype)
    with ws.scope() as s:
        ax, ay, az = (s.take((n,)) for _ in range(3))
        bx, by, bz = (s.take((n,)) for _ in range(3))
        cx, cy, cz = (s.take((n,)) for _ in range(3))
        t1 = s.take((n,))
        t2 = s.take((n,))
        acc = s.take((n,))

        def diff_sum(dst, c, pair1, pair2):
            # d(p1) + d(p2), each d a corner difference
            np.subtract(c[:, pair1[0]], c[:, pair1[1]], out=dst)
            np.subtract(c[:, pair2[0]], c[:, pair2[1]], out=t1)
            dst += t1

        for i, ((a1, a2), bp, cp) in enumerate(_VOL_TRIPLES):
            diff_sum(ax, x, a1, a2)
            diff_sum(ay, y, a1, a2)
            diff_sum(az, z, a1, a2)
            np.subtract(x[:, bp[0]], x[:, bp[1]], out=bx)
            np.subtract(y[:, bp[0]], y[:, bp[1]], out=by)
            np.subtract(z[:, bp[0]], z[:, bp[1]], out=bz)
            np.subtract(x[:, cp[0]], x[:, cp[1]], out=cx)
            np.subtract(y[:, cp[0]], y[:, cp[1]], out=cy)
            np.subtract(z[:, cp[0]], z[:, cp[1]], out=cz)
            # a . (b x c): the triple product is summed fully before being
            # added to the running volume (matching the expression form's
            # association).
            np.multiply(by, cz, out=acc)
            np.multiply(bz, cy, out=t2)
            acc -= t2
            acc *= ax
            np.multiply(bz, cx, out=t1)
            np.multiply(bx, cz, out=t2)
            t1 -= t2
            t1 *= ay
            acc += t1
            np.multiply(bx, cy, out=t1)
            np.multiply(by, cx, out=t2)
            t1 -= t2
            t1 *= az
            acc += t1
            if i == 0:
                out[...] = acc
            else:
                out += acc
    np.divide(out, 12.0, out=out)
    return out


# The six faces in the reference's evaluation order.
_FACES = ((0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 5, 4), (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7))


def calc_elem_characteristic_length(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    volume: np.ndarray,
    out: np.ndarray | None = None,
    ws=None,
) -> np.ndarray:
    """``CalcElemCharacteristicLength``: 4*V / sqrt(max face metric)."""
    if ws is None:
        ws = HEAP
    n = x.shape[0]
    if out is None:
        out = np.empty(n, dtype=x.dtype)
    with ws.scope() as s:
        fx, fy, fz = (s.take((n,)) for _ in range(3))
        gx, gy, gz = (s.take((n,)) for _ in range(3))
        dot = s.take((n,))
        ff = s.take((n,))
        gg = s.take((n,))
        tmp = s.take((n,))
        char = s.take((n,))

        def fg(f, g, c, c0, c1, c2, c3):
            # f = d20 - d31, g = d20 + d31 (LULESH AreaFace bisectors)
            np.subtract(c[:, c2], c[:, c0], out=f)
            np.subtract(c[:, c3], c[:, c1], out=tmp)
            np.add(f, tmp, out=g)
            f -= tmp

        for i, (c0, c1, c2, c3) in enumerate(_FACES):
            fg(fx, gx, x, c0, c1, c2, c3)
            fg(fy, gy, y, c0, c1, c2, c3)
            fg(fz, gz, z, c0, c1, c2, c3)
            np.multiply(fx, gx, out=dot)
            np.multiply(fy, gy, out=tmp)
            dot += tmp
            np.multiply(fz, gz, out=tmp)
            dot += tmp
            np.multiply(fx, fx, out=ff)
            np.multiply(fy, fy, out=tmp)
            ff += tmp
            np.multiply(fz, fz, out=tmp)
            ff += tmp
            np.multiply(gx, gx, out=gg)
            np.multiply(gy, gy, out=tmp)
            gg += tmp
            np.multiply(gz, gz, out=tmp)
            gg += tmp
            ff *= gg
            dot *= dot
            ff -= dot  # 4 * (face area)**2
            if i == 0:
                char[...] = ff
            else:
                np.maximum(char, ff, out=char)
        np.sqrt(char, out=char)
        np.multiply(volume, 4.0, out=out)
        out /= char
    return out


def calc_elem_shape_function_derivatives(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    b_out: np.ndarray | None = None,
    detv_out: np.ndarray | None = None,
    ws=None,
) -> tuple[np.ndarray, np.ndarray]:
    """``CalcElemShapeFunctionDerivatives``.

    Returns ``(b, detv)`` where ``b`` has shape ``(n, 3, 8)`` — the volume
    derivatives of the trilinear shape functions evaluated at the element
    center — and ``detv`` is the element volume (8x the Jacobian determinant
    at the center), shape ``(n,)``.
    """
    if ws is None:
        ws = HEAP
    n = x.shape[0]
    if b_out is None:
        b_out = np.empty((n, 3, 8), dtype=x.dtype)
    if detv_out is None:
        detv_out = np.empty(n, dtype=x.dtype)
    with ws.scope() as s:
        fj = [s.take((n,)) for _ in range(9)]
        cj = [s.take((n,)) for _ in range(9)]
        t60, t53, t71, t42 = (s.take((n,)) for _ in range(4))
        t = s.take((n,))
        (fjxxi, fjxet, fjxze, fjyxi, fjyet, fjyze, fjzxi, fjzet, fjzze) = fj
        (cjxxi, cjxet, cjxze, cjyxi, cjyet, cjyze, cjzxi, cjzet, cjzze) = cj

        # Jacobian columns at the element center (0.125 = trilinear weights).
        for c, (fxi, fet, fze) in (
            (x, (fjxxi, fjxet, fjxze)),
            (y, (fjyxi, fjyet, fjyze)),
            (z, (fjzxi, fjzet, fjzze)),
        ):
            np.subtract(c[:, 6], c[:, 0], out=t60)
            np.subtract(c[:, 5], c[:, 3], out=t53)
            np.subtract(c[:, 7], c[:, 1], out=t71)
            np.subtract(c[:, 4], c[:, 2], out=t42)
            np.add(t60, t53, out=fxi)
            fxi -= t71
            fxi -= t42
            fxi *= 0.125
            np.subtract(t60, t53, out=fet)
            fet += t71
            fet -= t42
            fet *= 0.125
            np.add(t60, t53, out=fze)
            fze += t71
            fze += t42
            fze *= 0.125

        # Cofactors of the Jacobian (negative-leading products flipped to
        # the bitwise-equal ``c*d - a*b`` form).
        def cof(dst, a, b_, c_, d_):
            np.multiply(a, b_, out=dst)
            np.multiply(c_, d_, out=t)
            dst -= t

        cof(cjxxi, fjyet, fjzze, fjzet, fjyze)
        cof(cjxet, fjzxi, fjyze, fjyxi, fjzze)
        cof(cjxze, fjyxi, fjzet, fjzxi, fjyet)
        cof(cjyxi, fjzet, fjxze, fjxet, fjzze)
        cof(cjyet, fjxxi, fjzze, fjzxi, fjxze)
        cof(cjyze, fjzxi, fjxet, fjxxi, fjzet)
        cof(cjzxi, fjxet, fjyze, fjyet, fjxze)
        cof(cjzet, fjyxi, fjxze, fjxxi, fjyze)
        cof(cjzze, fjxxi, fjyet, fjyxi, fjxet)

        for dim, (cxi, cet, cze) in enumerate(
            ((cjxxi, cjxet, cjxze), (cjyxi, cjyet, cjyze), (cjzxi, cjzet, cjzze))
        ):
            b0 = b_out[:, dim, 0]
            b1 = b_out[:, dim, 1]
            b2 = b_out[:, dim, 2]
            b3 = b_out[:, dim, 3]
            np.add(cxi, cet, out=t)
            np.add(t, cze, out=b0)
            np.negative(b0, out=b0)  # -cxi - cet - cze
            np.subtract(cxi, cet, out=b1)
            b1 -= cze
            np.subtract(t, cze, out=b2)
            np.subtract(cet, cxi, out=b3)
            b3 -= cze
            np.negative(b2, out=b_out[:, dim, 4])
            np.negative(b3, out=b_out[:, dim, 5])
            np.negative(b0, out=b_out[:, dim, 6])
            np.negative(b1, out=b_out[:, dim, 7])

        np.multiply(fjxet, cjxet, out=detv_out)
        np.multiply(fjyet, cjyet, out=t)
        detv_out += t
        np.multiply(fjzet, cjzet, out=t)
        detv_out += t
        detv_out *= 8.0
    return b_out, detv_out


# Face corner quadruples for CalcElemNodeNormals, reference order.
_NORMAL_FACES = (
    (0, 1, 2, 3),
    (0, 4, 5, 1),
    (1, 5, 6, 2),
    (2, 6, 7, 3),
    (3, 7, 4, 0),
    (4, 7, 6, 5),
)


# Face->corner incidence matrix (6 faces x 8 corners) for the batched sum.
_FACE_CORNER = None


def _face_corner_matrix() -> "np.ndarray":
    global _FACE_CORNER
    if _FACE_CORNER is None:
        m = np.zeros((6, 8), dtype=np.float64)
        for f, face in enumerate(_NORMAL_FACES):
            for c in face:
                m[f, c] = 1.0
        _FACE_CORNER = m
    return _FACE_CORNER


# Face corner index table transposed, (4 face corners, 6 faces): row ``k``
# gathers corner ``k`` of every face into one element-last block.
_NORMAL_FACE_IDX_T = np.array(_NORMAL_FACES, dtype=np.intp).T.copy()


def calc_elem_node_normals(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    out: np.ndarray | None = None,
    ws=None,
) -> np.ndarray:
    """``CalcElemNodeNormals``: area-weighted outward normals per corner.

    Returns shape ``(n, 3, 8)``: each face's quarter-area normal is added to
    its four corner nodes (``SumElemFaceNormal``).  All six faces are
    evaluated in one batched pass on element-last ``(6, n)`` rows; the
    corner accumulation is one face-to-corner incidence matmul.  A given
    ``out`` must be C-contiguous.
    """
    if ws is None:
        ws = HEAP
    idx = _NORMAL_FACE_IDX_T
    n = x.shape[0]
    if out is None:
        out = np.empty((n, 3, 8), dtype=x.dtype)
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    with ws.scope() as s:
        ct = s.take((8, n))
        faces = s.take((4, 6, n))  # corner k of each face, element-last
        b0 = [s.take((6, n)) for _ in range(3)]
        b1 = [s.take((6, n)) for _ in range(3)]

        def bisector(dst, p, q, r, w):
            # 0.5 * (c_p + c_q - c_r - c_w)
            np.add(faces[p], faces[q], out=dst)
            dst -= faces[r]
            dst -= faces[w]
            dst *= 0.5

        for c, d0, d1 in zip((x, y, z), b0, b1):
            ct[...] = c.T
            np.take(ct, idx, axis=0, out=faces, mode="clip")
            bisector(d0, 3, 2, 1, 0)
            bisector(d1, 2, 1, 3, 0)

        areas = s.take((n, 3, 6))
        c6 = s.take((6, n))
        t = s.take((6, n))

        def cross(dim, u0, v1, v0, u1):
            # 0.25 * (u0*v1 - v0*u1), computed on contiguous rows and then
            # copied into place: a ufunc writing a 2-D strided view falls
            # back to buffered iteration (an allocation per call).
            np.multiply(u0, v1, out=c6)
            np.multiply(v0, u1, out=t)
            np.subtract(c6, t, out=c6)
            np.multiply(c6, 0.25, out=c6)
            areas[:, dim, :] = c6.T

        cross(0, b0[1], b1[2], b0[2], b1[1])
        cross(1, b0[2], b1[0], b0[0], b1[2])
        cross(2, b0[0], b1[1], b0[1], b1[0])
        # pf[n, d, c] = sum_f areas[n, d, f] * incidence[f, c], as one
        # (3n, 6) @ (6, 8) product: the same row-by-row sums as a stacked
        # matmul of n (3, 6) @ (6, 8) products, in one BLAS call.
        np.matmul(
            areas.reshape(3 * n, 6), _face_corner_matrix(),
            out=out.reshape(3 * n, 8),
        )
    return out


def calc_elem_velocity_gradient(
    xvel: np.ndarray,
    yvel: np.ndarray,
    zvel: np.ndarray,
    b: np.ndarray,
    detv: np.ndarray,
    dxx_out: np.ndarray | None = None,
    dyy_out: np.ndarray | None = None,
    dzz_out: np.ndarray | None = None,
    ws=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``CalcElemVelocityGradient``: principal strain rates (dxx, dyy, dzz).

    Uses the antisymmetry of the centered shape-function derivatives
    (``b[:, :, 4:] = -b[:, :, perm]``) to fold the 8-corner sums into four
    differences, exactly as the reference does.
    """
    if ws is None:
        ws = HEAP
    n = xvel.shape[0]
    if dxx_out is None:
        dxx_out = np.empty(n, dtype=xvel.dtype)
    if dyy_out is None:
        dyy_out = np.empty(n, dtype=xvel.dtype)
    if dzz_out is None:
        dzz_out = np.empty(n, dtype=xvel.dtype)
    with ws.scope() as s:
        inv = s.take((n,))
        t = s.take((n,))
        np.divide(1.0, detv, out=inv)
        for dim, (vel, out_) in enumerate(
            ((xvel, dxx_out), (yvel, dyy_out), (zvel, dzz_out))
        ):
            pf = b[:, dim, :]
            np.subtract(vel[:, 0], vel[:, 6], out=t)
            np.multiply(t, pf[:, 0], out=out_)
            np.subtract(vel[:, 1], vel[:, 7], out=t)
            t *= pf[:, 1]
            out_ += t
            np.subtract(vel[:, 2], vel[:, 4], out=t)
            t *= pf[:, 2]
            out_ += t
            np.subtract(vel[:, 3], vel[:, 5], out=t)
            t *= pf[:, 3]
            out_ += t
            out_ *= inv
    return dxx_out, dyy_out, dzz_out


# VoluDer corner-permutation table: row ``a`` lists the six corners whose
# positions enter the analytic dV/d(x_a) formula.  Derived from the
# reference's explicit call list; bottom-face rows rotate the bottom ring,
# top-face rows rotate the top ring in the opposite winding.  Validated
# against finite differences of calc_elem_volume in the unit tests.
def _voluder_rows() -> tuple[tuple[int, ...], ...]:
    rows: list[tuple[int, ...]] = []
    for a in range(4):  # bottom face corners
        rows.append(
            (
                (a + 1) % 4,
                (a + 2) % 4,
                (a + 3) % 4,
                a + 4,
                4 + (a + 1) % 4,
                4 + (a + 3) % 4,
            )
        )
    for b_ in range(4):  # top face corners (reversed winding)
        rows.append(
            (
                4 + (b_ + 3) % 4,
                4 + (b_ + 2) % 4,
                4 + (b_ + 1) % 4,
                b_,
                (b_ + 3) % 4,
                (b_ + 1) % 4,
            )
        )
    return tuple(rows)


_VOLUDER_ROWS = _voluder_rows()


# The six neighbour-pair sums p_i + p_j of the VoluDer expression, as index
# pairs into a row of the permutation table.  Term ``k`` of the expression
# is ``(p pair k) * (q pair k ^ 1)``, in reference order:
# (p1+p2)(q0+q1), (p0+p1)(q1+q2), (p0+p4)(q3+q4), (p3+p4)(q0+q4),
# (p2+p5)(q3+q5), (p3+p5)(q2+q5).
_VOLUDER_PAIRS = ((1, 2), (0, 1), (0, 4), (3, 4), (2, 5), (3, 5))


def _voluder_sum_tables() -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Corner-sum gather tables for the batched VoluDer.

    Across the eight corners the 48 pair sums are only 24 distinct ordered
    corner sums ``c_u + c_v`` (each hexahedron edge, in both operand
    orders).  Returns the ``u`` and ``v`` of each, and a ``(6, 8)`` table
    naming the sum that is pair ``k`` of corner ``a``.
    """
    pairs = [(row[i], row[j]) for i, j in _VOLUDER_PAIRS for row in _VOLUDER_ROWS]
    ordered = sorted(set(pairs))
    first = np.array([u for u, _ in ordered], dtype=np.intp)
    second = np.array([v for _, v in ordered], dtype=np.intp)
    blocks = np.array([ordered.index(p) for p in pairs], dtype=np.intp)
    return first, second, blocks.reshape(len(_VOLUDER_PAIRS), 8)


_VOLUDER_SUMS = _voluder_sum_tables()


def calc_elem_volume_derivative(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    dvdx_out: np.ndarray | None = None,
    dvdy_out: np.ndarray | None = None,
    dvdz_out: np.ndarray | None = None,
    ws=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``CalcElemVolumeDerivative``: (dV/dx_a, dV/dy_a, dV/dz_a).

    Returns three ``(n, 8)`` arrays: the gradient of the element volume with
    respect to each corner coordinate (used by the hourglass control).

    All eight corner rows are evaluated in one batched pass, element-last:
    each coordinate's corner sums are formed once and gathered into
    ``(6, 8, n)`` pair-sum blocks, and the VoluDer expression runs on
    contiguous ``(8, n)`` rows before the results are written back in the
    ``(n, 8)`` layout — identical per-value arithmetic, operands in the same
    order, to the row-at-a-time reference.
    """
    if ws is None:
        ws = HEAP
    first, second, blocks = _VOLUDER_SUMS
    n = x.shape[0]
    if dvdx_out is None:
        dvdx_out = np.empty((n, 8), dtype=x.dtype)
    if dvdy_out is None:
        dvdy_out = np.empty((n, 8), dtype=x.dtype)
    if dvdz_out is None:
        dvdz_out = np.empty((n, 8), dtype=x.dtype)
    with ws.scope() as s:
        acc = s.take((8, n))
        t = s.take((8, n))
        su = s.take((first.size, n))
        sv = s.take((first.size, n))
        sums = []
        for c in (x, y, z):
            acc[...] = c.T
            # Every distinct corner sum c_u + c_v once, then the (6, 8, n)
            # pair-sum blocks: pair[k][a] = p_i + p_j of corner a.
            np.take(acc, first, axis=0, out=su, mode="clip")
            np.take(acc, second, axis=0, out=sv, mode="clip")
            np.add(su, sv, out=su)
            pair = s.take((6, 8, n))
            np.take(su, blocks, axis=0, out=pair, mode="clip")
            sums.append(pair)
        sx, sy, sz = sums

        # dvdx: + - + - - + sign pattern, first term positive.
        np.multiply(sy[0], sz[1], out=acc)
        for k, sign in ((1, -1), (2, +1), (3, -1), (4, -1), (5, +1)):
            np.multiply(sy[k], sz[k ^ 1], out=t)
            if sign > 0:
                acc += t
            else:
                acc -= t
        acc /= 12.0
        dvdx_out[...] = acc.T

        # dvdy / dvdz: - + - + + - pattern; the leading -A + B is evaluated
        # as the bitwise-equal B - A.
        for out_, p, q in ((dvdy_out, sx, sz), (dvdz_out, sy, sx)):
            np.multiply(p[1], q[0], out=acc)
            np.multiply(p[0], q[1], out=t)
            acc -= t
            for k, sign in ((2, -1), (3, +1), (4, +1), (5, -1)):
                np.multiply(p[k], q[k ^ 1], out=t)
                if sign > 0:
                    acc += t
                else:
                    acc -= t
            acc /= 12.0
            out_[...] = acc.T
    return dvdx_out, dvdy_out, dvdz_out
