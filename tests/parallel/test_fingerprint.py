"""The graph key: a stable key keeps replaying, a moved key relowers.

``HpxLuleshProgram._graph_key()`` is the template's invalidation
fingerprint.  A lowered wave schedule belongs to one backend object and
one template object, so the key holds no backend identity: a backend
lowers each template it has not lowered yet
(``tests/parallel/test_backend_trail.py``).
"""

import pytest

from tests.parallel.conftest import make_execute_program


class TestGraphKey:
    def test_stable_key_keeps_replaying(self):
        program = make_execute_program(nx=4, num_reg=3)
        program.run(3)
        assert program.graph_stats.captures == 1
        assert program.graph_stats.invalidations == 0
        assert program.graph_stats.replays == 2


class TestBackendScheduleInvalidation:
    def test_stale_schedule_relowered_after_knob_change(self):
        """The backend relowers (serially) when the fingerprint moves."""
        from tests.parallel.conftest import requires_process_backend  # noqa: F401
        from repro.parallel import ParallelHpxBackend, process_backend_supported

        if not process_backend_supported():
            pytest.skip("process backend unsupported on this host")
        program = make_execute_program(nx=4, num_reg=3)
        with ParallelHpxBackend(program, workers=1) as backend:
            backend.step()  # capture + lower
            backend.step()  # parallel
            assert backend.stats.lowerings == 1
            program.nodal_partition //= 2  # invalidates the template
            backend.step()  # falls back serially, recaptures, relowers
            assert backend.stats.lowerings == 2
            assert backend.stats.fallback_cycles == 2
            backend.step()
            assert backend.stats.parallel_cycles == 2
