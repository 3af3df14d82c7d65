"""Shadow buffers that make wave-level retry safe.

A wave's tasks are mutually independent, so re-dispatching a whole wave
after a worker failure is *ordering*-safe — but not *value*-safe: the
read-modify-write kernels (``velocity``/``position`` accumulate,
``strain_rates`` subtracts in place, ``eos`` feeds its own outputs back)
would see their first attempt's writes and double-apply.  The failed
worker may have died *after* writing its slices to shared memory, and the
surviving workers' writes certainly landed, so retry must first rewind
every non-idempotent spec's written region to its pre-dispatch state.

That is what :class:`WaveShadow` does: before a wave is dispatched, it
snapshots the written ``[lo, hi)`` field slices of every non-idempotent
parallel spec in the wave (scattered region-list gathers for ``eos``
specs) into private copies; :meth:`WaveShadow.restore` scatters them back
before a retry.  Idempotent specs need no shadow — re-running them from
current state reproduces identical bytes — so waves made entirely of them
(the common case: stress, hourglass, force, acceleration waves) capture
nothing and carry zero overhead.  Which kernels are non-idempotent, and
which fields they rewrite, is the kernel catalogue's ``in_place`` field
(:mod:`repro.lulesh.catalogue`).

Within one wave the non-idempotent slices are disjoint (wave tasks are
independent), so snapshots never overlap and restore order is irrelevant.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.plan import ParallelSchedule, Wave, spec_is_idempotent

__all__ = ["WaveShadow"]


class WaveShadow:
    """Pre-dispatch snapshots of one wave's non-idempotent write slices."""

    def __init__(self, slabs, scatters) -> None:
        self._slabs = slabs  # [(field, lo, hi, copy), ...]
        self._scatters = scatters  # [(field, index_array, copy), ...]

    @classmethod
    def capture(
        cls, domain, schedule: ParallelSchedule, wave: Wave
    ) -> "WaveShadow | None":
        """Snapshot *wave*'s non-idempotent writes; ``None`` if it has none."""
        slabs: list = []
        scatters: list = []
        for si in wave.parallel:
            spec = schedule.specs[si]
            if spec_is_idempotent(spec):
                continue
            if spec.kind == "region":
                lst = domain.regions.reg_elem_lists[spec.region]
                index = np.array(lst[spec.lo : spec.hi])
            for k in spec.kernels:
                for f in k.in_place:
                    arr = getattr(domain, f)
                    if spec.kind == "region":
                        scatters.append((f, index, arr[index].copy()))
                    else:
                        slabs.append(
                            (f, spec.lo, spec.hi, arr[spec.lo : spec.hi].copy())
                        )
        if not slabs and not scatters:
            return None
        return cls(slabs, scatters)

    def restore(self, domain) -> None:
        """Rewind every shadowed slice to its pre-dispatch bytes."""
        for f, lo, hi, data in self._slabs:
            getattr(domain, f)[lo:hi] = data
        for f, index, data in self._scatters:
            getattr(domain, f)[index] = data

    @property
    def nbytes(self) -> int:
        """Snapshot footprint (restore indices excluded)."""
        return sum(d.nbytes for _, _, _, d in self._slabs) + sum(
            d.nbytes for _, _, d in self._scatters
        )
