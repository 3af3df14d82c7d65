"""Satellite: cross-backend bit-identity (process vs simulated arena path).

The process backend must be a pure execution-strategy change: for every
variant on the optimization ladder the final physics state is *bitwise*
identical to the single-process run — including runs that roll back to a
checkpoint and resync the workers through the shared segment.
"""

import numpy as np
import pytest

from repro.core.driver import run_hpx
from repro.core.hpx_lulesh import HpxVariant
from repro.lulesh.options import LuleshOptions
from repro.resilience import ResiliencePlan

from tests.parallel.conftest import requires_process_backend

pytestmark = [requires_process_backend, pytest.mark.parallel]

VARIANTS = {
    "fig5": HpxVariant.fig5(),
    "fig6": HpxVariant.fig6(),
    "fig7": HpxVariant.fig7(),
    "full": HpxVariant.full(),
}


def assert_bitwise_identical(a, b):
    for name in sorted(vars(a)):
        fa = getattr(a, name)
        if isinstance(fa, np.ndarray) and fa.dtype == np.float64:
            fb = getattr(b, name)
            assert np.array_equal(fa, fb), f"field {name} diverged"
    assert a.cycle == b.cycle
    assert a.time == b.time
    assert a.deltatime == b.deltatime


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_variant_bit_identity_s10(name):
    opts = lambda: LuleshOptions(nx=10, numReg=6, max_iterations=6)  # noqa: E731
    sim = run_hpx(opts(), 4, 6, execute=True, variant=VARIANTS[name])
    par = run_hpx(
        opts(), 4, 6, execute=True, variant=VARIANTS[name],
        backend="process", backend_workers=2,
    )
    assert_bitwise_identical(sim.domain, par.domain)


def test_worker_count_does_not_change_physics():
    opts = lambda: LuleshOptions(nx=8, numReg=4, max_iterations=5)  # noqa: E731
    one = run_hpx(opts(), 4, 5, execute=True,
                  backend="process", backend_workers=1)
    three = run_hpx(opts(), 4, 5, execute=True,
                    backend="process", backend_workers=3)
    assert_bitwise_identical(one.domain, three.domain)


def test_rollback_resync_bit_identity(tmp_path):
    """A fault + checkpoint rollback mid-run must resync the workers.

    The injected NaN fires on cycle 4, which the process backend replays
    on its workers; only the rollback cycle after it falls back to the
    serial path.  Auto-recovery rolls the domain back in place — through
    the shared views — and both backends must land on the same final
    state.
    """
    def plan(tag):
        return ResiliencePlan(
            inject=("field:e:nan@4",),
            auto_recover=True,
            checkpoint_every=2,
            checkpoint_path=str(tmp_path / f"{tag}.npz"),
        )

    opts = lambda: LuleshOptions(nx=8, numReg=4, max_iterations=8)  # noqa: E731
    sim = run_hpx(opts(), 4, 8, execute=True, resilience=plan("sim"))
    par = run_hpx(opts(), 4, 8, execute=True, resilience=plan("par"),
                  backend="process", backend_workers=2)
    assert sim.domain.cycle > 4  # the run recovered and kept going
    assert_bitwise_identical(sim.domain, par.domain)
