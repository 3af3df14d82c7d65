"""Equation of state: ``ApplyMaterialPropertiesForElems`` and friends.

This is the region-wise stage the paper parallelizes across regions (Fig. 8
second case): all kernels for one region are sequential, but regions are
independent.  Material-cost differences are modeled by *repeating* the whole
EOS evaluation ``rep`` times per region (§II-B) — the repetition re-gathers
and recomputes identically, exactly like ``EvalEOSForElems``'s ``rep`` loop.

The EOS itself is LULESH's gamma-law-like model: pressure from the bulk
response ``p = (2/3)(1/v) e`` with half-step predictor/corrector energy
integration, artificial-viscosity coupling via the element sound speed, and
the reference's cutoffs and clamps reproduced bit-for-bit.

A region's repetitions run as the *rows* of long passes: one pass gathers
each input for several repetitions at once through a tiled index and runs
``calc_energy`` once over all of them, so NumPy's per-call overhead is paid
per pass instead of per repetition.  Every value still goes through the same
IEEE operations on the same inputs.  A pass holds at most ``_PASS_EVALS``
element-evaluations (a region longer than that runs one repetition per
pass), and every temporary of a pass is a prefix view of a row of two
scratch blocks checked out once per kernel call — so all region partitions
share one buffer set.  ``calc_pressure``/``calc_energy`` accept output
arrays and a scratch scope, which is how a pass hands them those views.
"""

from __future__ import annotations

import numpy as np

from repro.lulesh.errors import VolumeError

__all__ = [
    "apply_material_properties_prologue",
    "eval_eos_region",
    "update_volumes",
    "calc_pressure",
    "calc_energy",
]

_SSC_FLOOR_TEST = 0.1111111e-36
_SSC_FLOOR = 0.3333333e-18

#: Element-evaluations (elements x repetitions) one EOS pass holds at most.
_PASS_EVALS = 8192
#: Scratch rows one ``eval_eos_region`` call takes on its longest path: its
#: 6 arrays, ``_eos_pass``'s 10, then ``calc_energy``'s 6 and the 3 + 6 of
#: its ``calc_pressure`` and ``_sound_speed_sq_clamped`` calls; 9 boolean.
_FLOAT_ROWS = 31
_BOOL_ROWS = 9


class _HeapScope:
    """Stand-in scratch scope for direct calls without a workspace."""

    @staticmethod
    def take(shape, dtype=np.float64):
        return np.empty(shape, dtype=dtype)


_HEAP_SCOPE = _HeapScope()


class _PassScratch:
    """Scratch scope of one EOS call: rows of two blocks, cut to length.

    ``take((n,))`` hands out the next unused row of the float or boolean
    block, cut to its first *n* values; :meth:`rewind` returns the rows
    taken since a :meth:`mark`, so each pass reuses the same rows.
    """

    __slots__ = ("_rows", "_next")

    def __init__(self, s, width: int) -> None:
        self._rows = {
            np.float64: s.take((_FLOAT_ROWS, width)),
            bool: s.take((_BOOL_ROWS, width), dtype=bool),
        }
        self._next = {np.float64: 0, bool: 0}

    def take(self, shape, dtype=np.float64):
        i = self._next[dtype]
        self._next[dtype] = i + 1
        return self._rows[dtype][i, : shape[0]]

    def mark(self) -> dict:
        return dict(self._next)

    def rewind(self, mark: dict) -> None:
        self._next.update(mark)


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


def apply_material_properties_prologue(domain, lo: int, hi: int) -> None:
    """Clamp ``vnew`` into ``vnewc`` and run the reference's volume sanity check."""
    opts = domain.opts
    ws = domain.workspace
    vnewc = domain.vnewc[lo:hi]
    vnewc[...] = domain.vnew[lo:hi]
    if opts.eosvmin != 0.0:
        np.maximum(vnewc, opts.eosvmin, out=vnewc)
    if opts.eosvmax != 0.0:
        np.minimum(vnewc, opts.eosvmax, out=vnewc)

    # Sanity on the *old* volumes, mirroring the reference's abort.
    with ws.scope() as s:
        vc = s.take((hi - lo,))
        vc[...] = domain.v[lo:hi]
        if opts.eosvmin != 0.0:
            np.maximum(vc, opts.eosvmin, out=vc)
        if opts.eosvmax != 0.0:
            np.minimum(vc, opts.eosvmax, out=vc)
        sel = s.take((hi - lo,), dtype=bool)
        np.less_equal(vc, 0.0, out=sel)
        if sel.any():
            bad = lo + int(np.argmax(sel))
            raise VolumeError(f"element {bad} volume non-positive entering EOS")


def _eos_pass(domain, ix: np.ndarray, vnewc: np.ndarray, outs, s) -> None:
    """One EOS pass over the elements *ix* lists — the region's elements,
    once per repetition — into the five output arrays *outs* of
    ``calc_energy``."""
    opts = domain.opts
    n = ix.shape[0]
    e_old, delvc, p_old, q_old, qq_old, ql_old = (
        s.take((n,)) for _ in range(6)
    )
    np.take(domain.e, ix, out=e_old, mode="clip")
    np.take(domain.delv, ix, out=delvc, mode="clip")
    np.take(domain.p, ix, out=p_old, mode="clip")
    np.take(domain.q, ix, out=q_old, mode="clip")
    np.take(domain.qq, ix, out=qq_old, mode="clip")
    np.take(domain.ql, ix, out=ql_old, mode="clip")

    compression, vchalf, comp_half_step, work = (s.take((n,)) for _ in range(4))
    sel = s.take((n,), dtype=bool)
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
    calc_energy(
        p_old, e_old, q_old, compression, comp_half_step,
        vnewc, work, delvc, qq_old, ql_old, opts,
        out=outs, s=s,
    )


def eval_eos_region(
    domain, reg_elems: np.ndarray, rep: int, lo: int = 0, hi: int | None = None
) -> None:
    """``EvalEOSForElems`` for ``reg_elems[lo:hi]`` with *rep* repetitions.

    Each repetition re-gathers the inputs and recomputes — that *is* the
    extra work that models expensive materials.  The repetitions run as the
    rows of passes of up to ``_PASS_EVALS`` element-evaluations; only the
    last row's values are stored (all rows are identical).
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
    rows = min(rep, max(1, _PASS_EVALS // m))  # repetitions per full pass
    tiled = idx
    if rows > 1:
        # Static connectivity, built once per (region, partition, rows);
        # the entry holds reg_elems so its id stays unique.
        tiled = ws.static(
            ("eos-tile", id(reg_elems), lo, hi, rows),
            lambda: (reg_elems, np.tile(idx, rows)),
        )[1]

    with ws.scope() as ws_s:
        s = _PassScratch(ws_s, max(_PASS_EVALS, m))
        vnewc = s.take((rows * m,))
        np.take(domain.vnewc, tiled, out=vnewc, mode="clip")
        outs = [s.take((rows * m,)) for _ in range(5)]
        mark = s.mark()
        for first in range(0, rep, rows):
            n = min(rows, rep - first) * m
            s.rewind(mark)
            _eos_pass(domain, tiled[:n], vnewc[:n], [a[:n] for a in outs], s)

        # The last row of the last pass holds the stored values.
        p_new, e_new, q_new, bvc, pbvc = (a[n - m : n] for a in outs)
        domain.p[idx] = p_new
        domain.e[idx] = e_new
        domain.q[idx] = q_new

        # CalcSoundSpeedForElems
        s.rewind(mark)
        vnewc_sq = s.take((m,))
        np.multiply(vnewc[:m], vnewc[:m], out=vnewc_sq)
        ss = _sound_speed_sq_clamped(
            pbvc, e_new, vnewc_sq, bvc, p_new, opts.refdens,
            out=s.take((m,)), s=s,
        )
        domain.ss[idx] = ss


def update_volumes(domain, lo: int, hi: int) -> None:
    """``UpdateVolumesForElems``: commit vnew, snapping near-1 to exactly 1."""
    v_cut = domain.opts.v_cut
    ws = domain.workspace
    n = hi - lo
    with ws.scope() as s:
        v = s.take((n,))
        v[...] = domain.vnew[lo:hi]
        t = s.take((n,))
        sel = s.take((n,), dtype=bool)
        np.subtract(v, 1.0, out=t)
        np.abs(t, out=t)
        np.less(t, v_cut, out=sel)
        np.copyto(v, 1.0, where=sel)
        domain.v[lo:hi] = v
