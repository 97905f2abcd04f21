"""Tests for the top-down memoized GMC variant (equivalence with bottom-up)."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.algebra import Inverse, Matrix, Property, Times, Transpose
from repro.core import GMCAlgorithm, TopDownGMC, UncomputableChainError
from repro.kernels import default_catalog
from repro.options import CompileOptions
from repro.runtime import allclose, execute_program, instantiate_expression

from test_property_based import generalized_chains

_SETTINGS = settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _table2_chain():
    a = Matrix("A", 50, 50, {Property.SPD})
    b = Matrix("B", 50, 30)
    c = Matrix("C", 30, 30, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR})
    return Times(Inverse(a), b, Transpose(c))


class TestBasics:
    def test_same_solution_as_bottom_up_on_table2_chain(self):
        chain = _table2_chain()
        top_down = TopDownGMC().solve(chain)
        bottom_up = GMCAlgorithm().solve(chain)
        assert top_down.optimal_cost == pytest.approx(bottom_up.optimal_cost)
        assert top_down.kernel_sequence() == bottom_up.kernel_sequence()
        assert top_down.parenthesization() == bottom_up.parenthesization()

    def test_program_executes_correctly(self):
        chain = _table2_chain()
        program = TopDownGMC().solve(chain).program()
        environment = instantiate_expression(chain, seed=3)
        result = execute_program(program, environment)
        assert allclose(chain, environment, result, rtol=1e-7, atol=1e-7)

    def test_uncomputable_chain_detected(self):
        a = Matrix("A", 10, 10, {Property.NON_SINGULAR})
        b = Matrix("B", 10, 10, {Property.NON_SINGULAR})
        catalog = default_catalog(include_combined_inverse=False)
        solution = TopDownGMC(
            CompileOptions(catalog=catalog)
        ).solve(Times(Inverse(a), Inverse(b)))
        assert not solution.computable
        with pytest.raises(UncomputableChainError):
            list(solution.construct_solution())

    def test_partial_uncomputability_is_skipped_lazily(self):
        a = Matrix("A", 10, 10, {Property.NON_SINGULAR})
        b = Matrix("B", 10, 10, {Property.NON_SINGULAR})
        c = Matrix("C", 10, 6)
        catalog = default_catalog(include_combined_inverse=False)
        solution = TopDownGMC(
            CompileOptions(catalog=catalog)
        ).solve(Times(Inverse(a), Inverse(b), c))
        assert solution.computable
        assert solution.kernel_sequence() == ["GESV", "GESV"]

    def test_metric_selection(self):
        chain = _table2_chain()
        timed = TopDownGMC(CompileOptions(metric="time")).solve(chain)
        assert timed.computable
        assert timed.optimal_cost > 0.0

    def test_single_factor_chain(self):
        a = Matrix("A", 5, 5)
        solution = TopDownGMC().solve([a])
        assert solution.optimal_cost == 0.0
        assert solution.program().calls == []


class TestEquivalenceProperty:
    @given(generalized_chains())
    @_SETTINGS
    def test_top_down_equals_bottom_up_on_random_chains(self, expression):
        top_down = TopDownGMC().solve(expression)
        bottom_up = GMCAlgorithm().solve(expression)
        assert top_down.computable == bottom_up.computable
        if bottom_up.computable:
            assert top_down.optimal_cost == pytest.approx(bottom_up.optimal_cost)
            assert top_down.total_flops == pytest.approx(bottom_up.total_flops)
