"""Feasibility-solver tests against hand-checkable linear programs and a dense oracle.

A dense A is handed to the solver as the factored program (A, [[1.0]], b).
"""

import functools

import numpy as np
import pytest
from conftest import dense_matrix, lhs_program

from photonsteer import simplex
from photonsteer.errors import PhysicsError, SolverBreakdown
from photonsteer.scenarios import noisy_state
from photonsteer.simplex import (
    FEAS_TOL,
    MAX_PIVOTS,
    PIVOT_TOL,
    REFACTOR_EVERY,
    STALL_LIMIT,
    FeasibilityResult,
    solve_feasibility,
)
from photonsteer.steering import compute_assemblage

DENSE = np.ones((1, 1))  # comps of a dense A, which is then its own left factor
# The visibilities of test_verdicts_equal_the_full_program.
VISIBILITIES = np.round(np.r_[np.arange(0.30, 1.001, 0.05), 0.56, 0.58, 0.68, 0.72], 2)


def _dense_feasibility(A, b) -> FeasibilityResult:
    """The oracle: the dense phase-one solver that refactorizes the basis and prices
    every column of [A | I] from scratch on every pivot, with the same entering,
    stall and leaving rules."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = A.shape

    # Artificial basis needs b >= 0.
    flip = b < 0
    work_A = np.where(flip[:, None], -A, A)
    work_b = np.where(flip, -b, b)

    ext = np.hstack([work_A, np.eye(m)])  # structural | artificial
    cost = np.concatenate([np.zeros(n), np.ones(m)])
    basis = np.arange(n, n + m)

    iterations = 0
    bland_from = None  # pivot count at which Bland's rule took over
    best_objective = np.inf
    last_decrease = 0
    while True:
        B = ext[:, basis]
        try:
            x_basic = np.linalg.solve(B, work_b)
            duals = np.linalg.solve(B.T, cost[basis])
        except np.linalg.LinAlgError as exc:
            raise SolverBreakdown(f"singular basis after {iterations} iterations") from exc

        if bland_from is None:
            objective = float(cost[basis] @ x_basic)
            if objective < best_objective - PIVOT_TOL:
                best_objective, last_decrease = objective, iterations
            elif iterations - last_decrease >= STALL_LIMIT:
                bland_from = iterations

        reduced = cost - duals @ ext
        if bland_from is None:
            entering = int(np.argmin(reduced))  # Dantzig: most negative
            if reduced[entering] >= -PIVOT_TOL:
                break
        else:
            improving = np.nonzero(reduced < -PIVOT_TOL)[0]
            if improving.size == 0:
                break
            entering = int(improving[0])  # Bland: lowest index

        direction = np.linalg.solve(B, ext[:, entering])
        movable = direction > PIVOT_TOL
        if not movable.any():
            # Phase-1 objective is bounded below by zero, so an unbounded ray
            # means numerical breakdown, not a real certificate.
            raise SolverBreakdown("phase-1 ratio test failed on all rows")
        ratios = np.full(m, np.inf)
        ratios[movable] = np.maximum(x_basic[movable], 0.0) / direction[movable]
        theta = ratios.min()
        ties = np.nonzero(ratios <= theta + PIVOT_TOL)[0]
        leaving = int(ties[np.argmin(basis[ties])])  # lowest basis index

        basis[leaving] = entering
        iterations += 1
        if iterations > MAX_PIVOTS:
            raise SolverBreakdown(f"phase-1 did not converge in {MAX_PIVOTS} iterations")

    bland_iterations = 0 if bland_from is None else iterations - bland_from
    objective = float(cost[basis] @ np.maximum(x_basic, 0.0))
    if objective > FEAS_TOL:
        return FeasibilityResult(False, None, objective, objective, iterations, bland_iterations)

    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = np.maximum(x_basic[structural], 0.0)
    residual = float(np.max(np.abs(A @ x - b))) if m else 0.0
    return FeasibilityResult(True, x, objective, residual, iterations, bland_iterations)


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


@functools.cache
def constructive_instances():
    """(A, b, feasible) from one seeded stream: 30 Gaussian programs built from a
    nonnegative x, then 30 pairs of feasible and infeasible ``degenerate_instance``s."""
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(30):
        m, n = int(rng.integers(2, 8)), int(rng.integers(8, 40))
        A = rng.normal(size=(m, n))
        x_true = np.where(rng.random(n) < 0.3, rng.random(n), 0.0)
        cases.append((A, A @ x_true, True))
    for _ in range(30):
        for feasible in (True, False):
            cases.append((*degenerate_instance(rng, feasible), feasible))
    return cases


class TestFeasibleSystems:
    def test_identity_system(self):
        result = solve_feasibility(np.eye(3), DENSE, np.array([1.0, 2.0, 0.5]))
        assert result.feasible
        np.testing.assert_allclose(result.x, [1.0, 2.0, 0.5], atol=1e-10)
        assert result.residual < 1e-10

    def test_underdetermined_system(self):
        A = np.array([[1.0, 1.0, 1.0]])
        result = solve_feasibility(A, DENSE, np.array([2.0]))
        assert result.feasible
        assert result.x.min() >= 0
        assert abs(result.x.sum() - 2.0) < 1e-10

    def test_negative_rhs_handled_by_row_flip(self):
        A = np.array([[-1.0, 0.0], [0.0, 1.0]])
        result = solve_feasibility(A, DENSE, np.array([-3.0, 1.0]))
        assert result.feasible
        np.testing.assert_allclose(A @ result.x, [-3.0, 1.0], atol=1e-10)

    def test_degenerate_rows(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        result = solve_feasibility(A, DENSE, np.array([1.0, 2.0]))
        assert result.feasible

    def test_random_constructive_instances(self):
        for A, b, feasible in constructive_instances():
            result = solve_feasibility(A, DENSE, b)
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
        result = solve_feasibility(A, DENSE, b)
        assert result.bland_iterations > 0
        assert result.iterations > STALL_LIMIT
        assert result.feasible == feasible
        if feasible:
            assert result.x.min() >= 0
            assert result.residual < 1e-8
        else:
            assert result.objective > 1e-3

    def test_no_fallback_on_a_nondegenerate_program(self):
        result = solve_feasibility(np.eye(3), DENSE, np.array([1.0, 2.0, 0.5]))
        assert result.bland_iterations == 0


class TestInfeasibleSystems:
    def test_conflicting_rows(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        result = solve_feasibility(A, DENSE, np.array([1.0, 2.0]))
        assert not result.feasible
        assert result.objective > 1e-3

    def test_sign_blocked(self):
        # x1 + x2 = -1 has no nonnegative solution.
        result = solve_feasibility(np.array([[1.0, 1.0]]), DENSE, np.array([-1.0]))
        assert not result.feasible

    def test_overconstrained(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        result = solve_feasibility(A, DENSE, np.array([1.0, 1.0, 3.0]))
        assert not result.feasible


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_feasibility(np.eye(2), DENSE, np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["solved", "comps", "b"])
    def test_non_finite_argument_named_before_pricing(self, name, bad):
        # Under filterwarnings = error, pricing a NaN or inf would fail with a RuntimeWarning.
        args = {"solved": np.eye(2), "comps": np.array(DENSE), "b": np.array([0.5, 0.5])}
        args[name].flat[0] = bad
        with pytest.raises(ValueError, match=f"^{name} has a non-finite entry$"):
            solve_feasibility(**args)

    def test_pivot_cap_raises_typed_breakdown(self, monkeypatch):
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 1)
        with pytest.raises(SolverBreakdown) as err:
            solve_feasibility(np.eye(3), DENSE, np.array([1.0, 2.0, 0.5]))
        assert isinstance(err.value, PhysicsError)
        assert isinstance(err.value, ArithmeticError)


ORACLE_CASES = (
    [("constructive", i) for i in range(90)]
    + [("bland", feasible) for feasible in (True, False)]
    + [("noisy", v, settings, grid) for settings in (("Z", "X"), ("Z", "X", "Y"))
       for grid in (10, 20) for v in VISIBILITIES]
)


def oracle_case_id(case) -> str:
    return "-".join("".join(k) if isinstance(k, tuple) else f"{k:.2f}" if isinstance(k, float)
                    else str(k) for k in case)


def oracle_program(case):
    """The factored program (solved, comps, b) of one ``ORACLE_CASES`` entry."""
    kind, *key = case
    if kind == "constructive":
        A, b, _ = constructive_instances()[key[0]]
        return A, DENSE, b
    if kind == "bland":
        A, b = degenerate_instance(np.random.default_rng(TestBlandFallback.SEED), key[0])
        return A, DENSE, b
    v, settings, grid = key
    return lhs_program(compute_assemblage(noisy_state(v), settings), grid)


class TestDenseOracle:
    """The factored solver against ``_dense_feasibility`` on the same programs."""

    @pytest.mark.parametrize("case", ORACLE_CASES, ids=oracle_case_id)
    def test_agrees_with_the_dense_oracle(self, case):
        solved, comps, b = oracle_program(case)
        result = solve_feasibility(solved, comps, b)
        oracle = _dense_feasibility(dense_matrix(solved, comps), b)
        assert result.feasible == oracle.feasible
        assert abs(result.objective - oracle.objective) <= 1e-9
        if result.feasible:
            assert result.residual < 1e-8

    def test_eta_updated_x_basic_equals_a_fresh_solve(self, monkeypatch):
        # Over a hundred pivots, so the eta steps run across refactorizations.
        solved, comps, b = lhs_program(compute_assemblage(noisy_state(0.58), ("Z", "X", "Y")), 20)
        work_b = np.where(b < 0, -b, b)
        eta_step, inverse = simplex._eta_step, simplex._inverse
        seen, gaps = {}, []

        def recording_eta_step(binv, direction, leaving):
            eta_step(binv, direction, leaving)
            seen["binv"] = binv.copy()

        def checking_inverse(basis_matrix, iterations):
            # Each refactorization comes right after an eta step to the same basis.
            fresh = np.linalg.solve(basis_matrix, work_b)
            gaps.append(float(np.max(np.abs(seen["binv"] @ work_b - fresh))))
            return inverse(basis_matrix, iterations)

        monkeypatch.setattr(simplex, "_eta_step", recording_eta_step)
        monkeypatch.setattr(simplex, "_inverse", checking_inverse)
        result = solve_feasibility(solved, comps, b)
        assert result.iterations > REFACTOR_EVERY
        # Every REFACTOR_EVERY pivots, and once more on the final basis.
        assert len(gaps) == result.iterations // REFACTOR_EVERY + (
            result.iterations % REFACTOR_EVERY > 0)
        assert max(gaps) < 1e-10

    def test_singular_refactorization_raises_typed_breakdown(self):
        with pytest.raises(SolverBreakdown, match="singular basis after 7 iterations"):
            simplex._inverse(np.zeros((2, 2)), 7)
