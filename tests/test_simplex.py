"""Feasibility-solver tests against hand-checkable linear programs."""

import numpy as np
import pytest

from photonsteer import simplex
from photonsteer.errors import PhysicsError, SolverBreakdown
from photonsteer.simplex import STALL_LIMIT, solve_feasibility


def degenerate_instance(rng, feasible):
    """A program shaped like the LHS ones: repeated columns, proportional rows
    and a mostly zero right-hand side. The infeasible variant breaks the row
    proportionality in b, so e_k - 2 e_j is a Farkas certificate for it."""
    m, n = int(rng.integers(6, 20)), int(rng.integers(20, 150))
    A = rng.integers(-1, 3, size=(m, n)).astype(float)
    A = np.hstack([A, A[:, rng.integers(0, n, size=n // 2)]])  # repeated columns
    x = np.where(rng.random(A.shape[1]) < 0.2, rng.random(A.shape[1]), 0.0)
    zero = rng.random(m) < 0.7
    A[np.ix_(zero, x > 0)] = 0.0  # these rows get b = 0
    j, k = rng.choice(m, size=2, replace=False)
    A[k] = 2.0 * A[j]  # proportional rows
    b = A @ x
    if not feasible:
        b[k] = 2.0 * b[j] + 1.0
    return A, b


class TestFeasibleSystems:
    def test_identity_system(self):
        result = solve_feasibility(np.eye(3), np.array([1.0, 2.0, 0.5]))
        assert result.feasible
        np.testing.assert_allclose(result.x, [1.0, 2.0, 0.5], atol=1e-10)
        assert result.residual < 1e-10

    def test_underdetermined_system(self):
        A = np.array([[1.0, 1.0, 1.0]])
        result = solve_feasibility(A, np.array([2.0]))
        assert result.feasible
        assert result.x.min() >= 0
        assert abs(result.x.sum() - 2.0) < 1e-10

    def test_negative_rhs_handled_by_row_flip(self):
        A = np.array([[-1.0, 0.0], [0.0, 1.0]])
        result = solve_feasibility(A, np.array([-3.0, 1.0]))
        assert result.feasible
        np.testing.assert_allclose(A @ result.x, [-3.0, 1.0], atol=1e-10)

    def test_degenerate_rows(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        result = solve_feasibility(A, np.array([1.0, 2.0]))
        assert result.feasible

    def test_random_constructive_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            m, n = int(rng.integers(2, 8)), int(rng.integers(8, 40))
            A = rng.normal(size=(m, n))
            x_true = np.where(rng.random(n) < 0.3, rng.random(n), 0.0)
            result = solve_feasibility(A, A @ x_true)
            assert result.feasible
            assert result.residual < 1e-8
        for _ in range(30):
            for feasible in (True, False):
                A, b = degenerate_instance(rng, feasible)
                result = solve_feasibility(A, b)
                assert result.feasible == feasible
                if feasible:
                    assert result.residual < 1e-8
                else:
                    assert result.objective > 1e-3


class TestBlandFallback:
    # Seed found by searching degenerate_instance for programs on which
    # Dantzig's rule stalls for STALL_LIMIT pivots.
    SEED = 397

    @pytest.mark.parametrize("feasible", [True, False])
    def test_stall_switches_to_bland_and_keeps_the_verdict(self, feasible):
        A, b = degenerate_instance(np.random.default_rng(self.SEED), feasible)
        result = solve_feasibility(A, b)
        assert result.bland_iterations > 0
        assert result.iterations > STALL_LIMIT
        assert result.feasible == feasible
        if feasible:
            assert result.x.min() >= 0
            assert result.residual < 1e-8
        else:
            assert result.objective > 1e-3

    def test_no_fallback_on_a_nondegenerate_program(self):
        result = solve_feasibility(np.eye(3), np.array([1.0, 2.0, 0.5]))
        assert result.bland_iterations == 0


class TestInfeasibleSystems:
    def test_conflicting_rows(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        result = solve_feasibility(A, np.array([1.0, 2.0]))
        assert not result.feasible
        assert result.objective > 1e-3

    def test_sign_blocked(self):
        # x1 + x2 = -1 has no nonnegative solution.
        result = solve_feasibility(np.array([[1.0, 1.0]]), np.array([-1.0]))
        assert not result.feasible

    def test_overconstrained(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        result = solve_feasibility(A, np.array([1.0, 1.0, 3.0]))
        assert not result.feasible


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_feasibility(np.eye(2), np.ones(3))

    def test_pivot_cap_raises_typed_breakdown(self, monkeypatch):
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 1)
        with pytest.raises(SolverBreakdown) as err:
            solve_feasibility(np.eye(3), np.array([1.0, 2.0, 0.5]))
        assert isinstance(err.value, PhysicsError)
        assert isinstance(err.value, ArithmeticError)
