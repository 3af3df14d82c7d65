"""Unit tests for problem shapes."""

import dataclasses

import pytest

from repro.core import kernel_graph
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

    @pytest.mark.parametrize("cost", [0, 1, 2], ids="cost{}".format)
    @pytest.mark.parametrize("balance", [1, 2], ids="balance{}".format)
    def test_from_domain_matches_from_options(self, balance, cost):
        opts = LuleshOptions(nx=4, numReg=3, region_balance=balance,
                             region_cost=cost)
        a = ProblemShape.from_options(opts)
        b = ProblemShape.from_domain(Domain(opts))
        assert a == b

    def test_from_options_is_memoized_per_option_tuple(self):
        memo = kernel_graph._shape_from_options
        memo.cache_clear()
        opts = LuleshOptions(nx=5, numReg=4)
        shape = ProblemShape.from_options(opts)
        assert ProblemShape.from_options(LuleshOptions(nx=5, numReg=4)) is shape
        # Fields the shape does not read share its entry.
        later = dataclasses.replace(opts, stoptime=0.5, max_iterations=3)
        assert ProblemShape.from_options(later) is shape
        assert memo.cache_info().currsize == 1
        # A different region balance is its own entry.
        other = ProblemShape.from_options(
            dataclasses.replace(opts, region_balance=2)
        )
        assert other is not shape
        assert memo.cache_info().currsize == 2

    def test_region_reps_follow_reference_rule(self):
        shape = ProblemShape.from_options(LuleshOptions(nx=4, numReg=11))
        assert shape.region_reps == (1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 20)

    def test_iteration_work_positive_and_scales(self):
        small = ProblemShape.from_options(LuleshOptions(nx=4, numReg=2))
        big = ProblemShape.from_options(LuleshOptions(nx=8, numReg=2))
        assert 0 < small.iteration_work_ns() < big.iteration_work_ns()
