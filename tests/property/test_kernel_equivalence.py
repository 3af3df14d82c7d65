"""The hourglass and stress force kernels against their reference, bit for bit.

The reference functions below are verbatim copies of
``calc_elem_node_normals``, ``calc_elem_volume_derivative`` and
``calc_fb_hourglass_force`` as they were before the kernels moved their
scratch to an element-last layout: per-element ``(n, 8, 6)`` and
``(n, 8, 4)`` arrays, every pair sum formed twice, and a stacked matmul of
``n`` small products.  The rewritten kernels must produce the same bits on
every output, compared as ``int64`` views so that the sign of zero counts:

* random inputs of every size from 1 to 2,100 elements (the Table I
  partition sizes 1,856 and 2,048 among them) mixing signed zeros,
  subnormals and magnitudes from 1e-8 to 1e8;
* the real states of an s=20 run after 1, 10 and 60 cycles, over the full
  range and over the Table I element partitions;
* the ``hgcoef = 0`` path, and both workspace modes (the pooled arena and
  allocate-each-time).

The einsum summation orders this pins are those of the NumPy build the
suite runs on: ``nam,na->nm`` sums the corners left to right,
``nam,nm->na`` sums the four mode products as ``(p0 + p2) + (p1 + p3)``,
and an einsum output never holds -0.0.
"""

import copy
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitioning import partition_layout, table1_partition_sizes
from repro.lulesh.domain import Domain
from repro.lulesh.kernels import geometry, hourglass
from repro.lulesh.kernels.geometry import GAMMA_HOURGLASS
from repro.lulesh.options import LuleshOptions
from repro.lulesh.reference import SequentialDriver
from repro.lulesh.workspace import HEAP, Workspace

# --- reference: verbatim copies of the kernels before the rewrite -----------


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


_NORMAL_FACE_IDX = None


def _normal_face_idx() -> "np.ndarray":
    global _NORMAL_FACE_IDX
    if _NORMAL_FACE_IDX is None:
        _NORMAL_FACE_IDX = np.array(_NORMAL_FACES, dtype=np.intp)  # (6, 4)
    return _NORMAL_FACE_IDX


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
    evaluated in one batched pass; the corner accumulation is the face-to-
    corner incidence matmul.
    """
    if ws is None:
        ws = HEAP
    idx = _normal_face_idx()
    n = x.shape[0]
    if out is None:
        out = np.empty((n, 3, 8), dtype=x.dtype)
    with ws.scope() as s:
        xf = s.take((n, 6, 4))
        yf = s.take((n, 6, 4))
        zf = s.take((n, 6, 4))
        np.take(x, idx, axis=1, out=xf, mode="clip")  # (n, 6, 4) per-face corners
        np.take(y, idx, axis=1, out=yf, mode="clip")
        np.take(z, idx, axis=1, out=zf, mode="clip")
        b0 = [s.take((n, 6)) for _ in range(3)]
        b1 = [s.take((n, 6)) for _ in range(3)]
        t = s.take((n, 6))
        areas = s.take((n, 3, 6))

        def bisector(dst, c, p, q, r, w):
            # 0.5 * (c_p + c_q - c_r - c_w)
            np.add(c[:, :, p], c[:, :, q], out=dst)
            dst -= c[:, :, r]
            dst -= c[:, :, w]
            dst *= 0.5

        for cf, d0, d1 in ((xf, b0[0], b1[0]), (yf, b0[1], b1[1]), (zf, b0[2], b1[2])):
            bisector(d0, cf, 3, 2, 1, 0)
            bisector(d1, cf, 2, 1, 3, 0)

        c6 = s.take((n, 6))

        def cross(dst, u0, v1, v0, u1):
            # 0.25 * (u0*v1 - v0*u1), staged in a contiguous row: a ufunc
            # writing a 2-D strided view falls back to buffered iteration
            # (an allocation per call); the plain copy at the end does not.
            np.multiply(u0, v1, out=c6)
            np.multiply(v0, u1, out=t)
            np.subtract(c6, t, out=c6)
            np.multiply(c6, 0.25, out=c6)
            dst[...] = c6

        cross(areas[:, 0, :], b0[1], b1[2], b0[2], b1[1])
        cross(areas[:, 1, :], b0[2], b1[0], b0[0], b1[2])
        cross(areas[:, 2, :], b0[0], b1[1], b0[1], b1[0])
        # pf[n, d, c] = sum_f areas[n, d, f] * incidence[f, c]
        np.matmul(areas, _face_corner_matrix(), out=out)
    return out



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


# Row-major index matrix of the permutation table, for batched gathers.
_VOLUDER_IDX = None


def _voluder_idx() -> "np.ndarray":
    global _VOLUDER_IDX
    if _VOLUDER_IDX is None:
        _VOLUDER_IDX = np.array(_VOLUDER_ROWS, dtype=np.intp)  # (8, 6)
    return _VOLUDER_IDX


# The six (p_i + p_j) * (q_k + q_l) products of the VoluDer expression, in
# reference order: ((i, j), (k, l)) index pairs into the permuted columns.
_VOLUDER_TERMS = (
    ((1, 2), (0, 1)),
    ((0, 1), (1, 2)),
    ((0, 4), (3, 4)),
    ((3, 4), (0, 4)),
    ((2, 5), (3, 5)),
    ((3, 5), (2, 5)),
)


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

    All eight corner rows are evaluated in one batched pass: the permuted
    corner coordinates are gathered into ``(n, 8, 6)`` arrays and the
    VoluDer expression applied across the last axis — identical per-value
    arithmetic to the row-at-a-time reference, ~4x fewer NumPy dispatches.
    """
    if ws is None:
        ws = HEAP
    idx = _voluder_idx()
    n = x.shape[0]
    if dvdx_out is None:
        dvdx_out = np.empty((n, 8), dtype=x.dtype)
    if dvdy_out is None:
        dvdy_out = np.empty((n, 8), dtype=x.dtype)
    if dvdz_out is None:
        dvdz_out = np.empty((n, 8), dtype=x.dtype)
    with ws.scope() as s:
        xp = s.take((n, 8, 6))
        yp = s.take((n, 8, 6))
        zp = s.take((n, 8, 6))
        np.take(x, idx, axis=1, out=xp, mode="clip")  # (n, 8, 6): six permuted neighbours
        np.take(y, idx, axis=1, out=yp, mode="clip")
        np.take(z, idx, axis=1, out=zp, mode="clip")
        t1 = s.take((n, 8))
        t2 = s.take((n, 8))
        t3 = s.take((n, 8))

        def term(dst, p, ij, q, kl):
            # (p_i + p_j) * (q_k + q_l)
            np.add(p[:, :, ij[0]], p[:, :, ij[1]], out=dst)
            np.add(q[:, :, kl[0]], q[:, :, kl[1]], out=t2)
            dst *= t2

        # dvdx: + - + - - + sign pattern, first term positive.
        term(dvdx_out, yp, _VOLUDER_TERMS[0][0], zp, _VOLUDER_TERMS[0][1])
        for k, sign in ((1, -1), (2, +1), (3, -1), (4, -1), (5, +1)):
            term(t1, yp, _VOLUDER_TERMS[k][0], zp, _VOLUDER_TERMS[k][1])
            if sign > 0:
                dvdx_out += t1
            else:
                dvdx_out -= t1
        dvdx_out /= 12.0

        # dvdy / dvdz: - + - + + - pattern; the leading -A + B is evaluated
        # as the bitwise-equal B - A.
        for out_, p, q in ((dvdy_out, xp, zp), (dvdz_out, yp, xp)):
            term(t3, p, _VOLUDER_TERMS[0][0], q, _VOLUDER_TERMS[0][1])
            term(out_, p, _VOLUDER_TERMS[1][0], q, _VOLUDER_TERMS[1][1])
            out_ -= t3
            for k, sign in ((2, -1), (3, +1), (4, +1), (5, -1)):
                term(t1, p, _VOLUDER_TERMS[k][0], q, _VOLUDER_TERMS[k][1])
                if sign > 0:
                    out_ += t1
                else:
                    out_ -= t1
            out_ /= 12.0
    return dvdx_out, dvdy_out, dvdz_out


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
    gamma = GAMMA_HOURGLASS  # (4 modes, 8 corners)
    gamma_t = gamma.T
    determ = domain.hg_determ[lo:hi]
    n = hi - lo

    with ws.scope() as s:
        volinv = s.take((n,))
        np.divide(1.0, determ, out=volinv)

        # hourmod[m] = sum_a coord8n[a] * gamma[m][a]  -> (n, 4)
        hmx = s.take((n, 4))
        hmy = s.take((n, 4))
        hmz = s.take((n, 4))
        np.matmul(domain.x8n[lo:hi], gamma_t, out=hmx)
        np.matmul(domain.y8n[lo:hi], gamma_t, out=hmy)
        np.matmul(domain.z8n[lo:hi], gamma_t, out=hmz)

        # hourgam[a][m] = gamma[m][a] - volinv * (dvdx[a]*hmx[m] + ...)
        # Outer products and the volinv scale go through einsum: broadcast
        # (stride-0) ufunc operands trigger buffered iteration, which
        # allocates per call; einsum's contraction loop does not.
        hourgam = s.take((n, 8, 4))
        t84 = s.take((n, 8, 4))
        np.einsum("na,nm->nam", domain.dvdx[lo:hi], hmx, out=hourgam)
        np.einsum("na,nm->nam", domain.dvdy[lo:hi], hmy, out=t84)
        hourgam += t84
        np.einsum("na,nm->nam", domain.dvdz[lo:hi], hmz, out=t84)
        hourgam += t84
        np.einsum("nam,n->nam", hourgam, volinv, out=t84)
        gamma_full = ws.static(
            ("gamma-broadcast", n),
            lambda: np.ascontiguousarray(np.broadcast_to(gamma_t, (n, 8, 4))),
        )
        np.subtract(gamma_full, t84, out=hourgam)

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

        xd = domain.gather_corners("xd", lo, hi)
        yd = domain.gather_corners("yd", lo, hi)
        zd = domain.gather_corners("zd", lo, hi)

        fx = domain.hgfx_elem.reshape(-1, 8)
        fy = domain.hgfy_elem.reshape(-1, 8)
        fz = domain.hgfz_elem.reshape(-1, 8)
        h = s.take((n, 4))
        fcorn = s.take((n, 8))
        # h[m] = sum_a hourgam[a][m] * vel[a]; force[a] = coeff * hourgam[a][m] h[m]
        for vel, f in ((xd, fx), (yd, fy), (zd, fz)):
            np.einsum("nam,na->nm", hourgam, vel, out=h)
            np.einsum("nam,nm->na", hourgam, h, out=fcorn)
            np.einsum("n,na->na", coefficient, fcorn, out=f[lo:hi])


# --- inputs ------------------------------------------------------------------

#: Element counts: anything up to a little over one Table I partition, with
#: the partition sizes of the s=20 problem always among the examples.
SIZES = st.one_of(st.sampled_from([1, 1856, 2048]), st.integers(1, 2100))
#: Share of the values replaced by signed zeros / by subnormals.
SHARES = st.sampled_from([0.0, 0.01, 0.2, 0.6])
SEEDS = st.integers(0, 2**32 - 1)

WORKSPACES = ("arena", "alloc_each_time")


def make_workspace(mode):
    return Workspace(reuse=True) if mode == "arena" else HEAP


def mixed(rng, shape, zeros, subnormals):
    """Log-uniform magnitudes in [1e-8, 1e8] with random signs, a share
    *zeros* of them replaced by +0.0 or -0.0 and a share *subnormals* by
    subnormal numbers."""
    sign = rng.choice([-1.0, 1.0], size=shape)
    values = sign * 10.0 ** rng.uniform(-8.0, 8.0, size=shape)
    tiny = sign * rng.integers(1, 2**52, size=shape).view(np.float64)
    u = rng.random(shape)
    values = np.where(u < subnormals, tiny, values)
    return np.where(u > 1.0 - zeros, sign * 0.0, values)


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


def compare_geometry(x, y, z, ws):
    """Node normals and volume derivatives of one corner set, new vs ref."""
    assert_same_bits(
        geometry.calc_elem_node_normals(x, y, z, ws=ws),
        calc_elem_node_normals(x, y, z, ws=ws),
        "node normals",
    )
    new = geometry.calc_elem_volume_derivative(x, y, z, ws=ws)
    ref = calc_elem_volume_derivative(x, y, z, ws=ws)
    for axis, a, b in zip("xyz", new, ref):
        assert_same_bits(a, b, f"dvd{axis}")


FORCE_FIELDS = ("hgfx_elem", "hgfy_elem", "hgfz_elem")


def compare_fb_force(domain, lo, hi):
    """Run the reference, then the new kernel, on *domain*; same forces."""
    for name in FORCE_FIELDS:
        getattr(domain, name).fill(np.nan)
    calc_fb_hourglass_force(domain, lo, hi)
    ref = [getattr(domain, name).copy() for name in FORCE_FIELDS]
    for name in FORCE_FIELDS:
        getattr(domain, name).fill(np.nan)
    hourglass.calc_fb_hourglass_force(domain, lo, hi)
    for name, r in zip(FORCE_FIELDS, ref):
        assert_same_bits(getattr(domain, name), r, f"{name}[{lo}:{hi}]")


def random_hourglass_domain(rng, ne, zeros, subnormals, ws, hgcoef=3.0):
    """The fields ``calc_fb_hourglass_force`` reads, drawn at random.

    Volumes and masses stay positive (the hourglass control rejects
    non-positive volumes before this kernel runs).
    """
    def values(shape):
        return mixed(rng, shape, zeros, subnormals)

    corners = {name: values((ne, 8)) for name in ("xd", "yd", "zd")}
    fields = {name: values((ne, 8))
              for name in ("x8n", "y8n", "z8n", "dvdx", "dvdy", "dvdz")}
    return SimpleNamespace(
        opts=SimpleNamespace(hgcoef=hgcoef),
        workspace=ws,
        hg_determ=10.0 ** rng.uniform(-8.0, 8.0, ne),
        elemMass=10.0 ** rng.uniform(-8.0, 8.0, ne),
        ss=values(ne),
        gather_corners=lambda name, lo, hi: corners[name][lo:hi],
        **fields,
        **{name: np.empty(ne * 8) for name in FORCE_FIELDS},
    )


# --- random inputs -------------------------------------------------------------


@pytest.mark.parametrize("mode", WORKSPACES)
class TestRandomInputs:
    @given(n=SIZES, zeros=SHARES, subnormals=SHARES, seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_geometry(self, mode, n, zeros, subnormals, seed):
        rng = np.random.default_rng(seed)
        ws = make_workspace(mode)
        # Warm the arena on other values first: a kernel must not depend
        # on what its pooled scratch held before.
        compare_geometry(*(mixed(rng, (n, 8), 0.1, 0.1) for _ in range(3)), ws)
        compare_geometry(
            *(mixed(rng, (n, 8), zeros, subnormals) for _ in range(3)), ws
        )

    @given(n=SIZES, lo=st.integers(0, 3), zeros=SHARES, subnormals=SHARES,
           seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_fb_hourglass_force(self, mode, n, lo, zeros, subnormals, seed):
        rng = np.random.default_rng(seed)
        ws = make_workspace(mode)
        compare_fb_force(
            random_hourglass_domain(rng, lo + n, 0.1, 0.1, ws), lo, lo + n
        )
        compare_fb_force(
            random_hourglass_domain(rng, lo + n, zeros, subnormals, ws),
            lo, lo + n,
        )

    def test_zero_hgcoef(self, mode):
        rng = np.random.default_rng(3)
        domain = random_hourglass_domain(
            rng, 2100, 0.2, 0.2, make_workspace(mode), hgcoef=0.0
        )
        compare_fb_force(domain, 52, 2100)
        assert not domain.hgfx_elem[52 * 8:].view(np.int64).any()  # all +0.0


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


@pytest.mark.parametrize("mode", WORKSPACES)
@pytest.mark.parametrize("cycle", STATE_CYCLES)
def test_real_states(s20_states, cycle, mode):
    domain = s20_states[cycle]
    domain.configure_workspace(mode == "arena")
    ne = domain.numElem
    _, elements = table1_partition_sizes(20)
    for lo, hi in ((0, ne), *partition_layout(ne, elements)):
        compare_geometry(
            *(domain.mesh.gather(getattr(domain, c), lo, hi) for c in "xyz"),
            domain.workspace,
        )
        compare_fb_force(domain, lo, hi)
