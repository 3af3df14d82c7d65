"""A constructor-built execute session rewinds to its initial state."""

import pytest

from repro.core.session import Session
from repro.lulesh.checkpoint import snapshot_state
from repro.lulesh.options import LuleshOptions

OPTS = LuleshOptions(nx=4, numReg=3)


def payload(result):
    """What a run reports, with every evolving field of its domain."""
    state = snapshot_state(result.domain)
    scalars = state.pop("_scalars")
    return (
        result.runtime_ns, result.iterations, result.utilization,
        result.n_tasks, result.n_loops, result.n_regions, scalars,
        {name: field.tobytes() for name, field in state.items()},
    )


@pytest.mark.parametrize("impl", ["omp", "hpx"])
def test_rewound_session_runs_as_a_fresh_one(impl):
    sess = Session(impl, OPTS, 2, execute=True)
    sess.run(3)
    sess.rewind()
    again = payload(sess.run(2))
    fresh = payload(Session(impl, OPTS, 2, execute=True).run(2))
    assert again == fresh
