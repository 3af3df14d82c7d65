"""Unit tests for problem shapes."""

from repro.core.kernel_graph import ProblemShape
from repro.lulesh.domain import Domain
from repro.lulesh.options import LuleshOptions


class TestProblemShape:
    def test_from_options(self):
        opts = LuleshOptions(nx=5, numReg=3)
        shape = ProblemShape.from_options(opts)
        assert shape.num_elem == 125
        assert shape.num_node == 216
        assert shape.num_symm_nodes == 36
        assert shape.num_regions == 3
        assert sum(shape.region_sizes) == 125
        assert len(shape.region_reps) == 3

    def test_from_domain_matches_from_options(self):
        opts = LuleshOptions(nx=4, numReg=3)
        a = ProblemShape.from_options(opts)
        b = ProblemShape.from_domain(Domain(opts))
        assert a == b

    def test_region_reps_follow_reference_rule(self):
        shape = ProblemShape.from_options(LuleshOptions(nx=4, numReg=11))
        assert shape.region_reps == (1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 20)

    def test_iteration_work_positive_and_scales(self):
        small = ProblemShape.from_options(LuleshOptions(nx=4, numReg=2))
        big = ProblemShape.from_options(LuleshOptions(nx=8, numReg=2))
        assert 0 < small.iteration_work_ns() < big.iteration_work_ns()
