"""Feasibility-solver tests against hand-checkable linear programs and a dense oracle."""

import functools

import numpy as np
import pytest
from conftest import lhs_program, program_residual

from photonsteer import simplex, steering
from photonsteer.errors import PhysicsError, SolverBreakdown
from photonsteer.scenarios import hardy_state, noisy_state
from photonsteer.simplex import (
    FEAS_TOL,
    MAX_PIVOTS,
    PIVOT_TOL,
    REFACTOR_EVERY,
    STALL_LIMIT,
    _RELATIVE_PIVOT_TOL,
    FeasibilityResult,
    solve_feasibility,
)
from photonsteer.steering import compute_assemblage, two_qubit_frame

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
        movable = direction > max(PIVOT_TOL, _RELATIVE_PIVOT_TOL * direction.max())
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
        return FeasibilityResult(False, None, objective, iterations, bland_iterations)

    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = np.maximum(x_basic[structural], 0.0)
    return FeasibilityResult(True, x, objective, iterations, bland_iterations)


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
        b = np.array([1.0, 2.0, 0.5])
        result = solve_feasibility(np.eye(3), b)
        assert result.feasible
        np.testing.assert_allclose(result.x, [1.0, 2.0, 0.5], atol=1e-10)
        assert program_residual(np.eye(3), b, result.x) < 1e-10

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
        for A, b, feasible in constructive_instances():
            result = solve_feasibility(A, b)
            assert result.feasible == feasible
            if feasible:
                assert program_residual(A, b, result.x) < 1e-8
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
            assert program_residual(A, b, result.x) < 1e-8
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

    @pytest.mark.parametrize("A", [np.ones(2), np.ones((2, 2, 1)), np.float64(1.0)])
    def test_an_a_that_is_not_2d_is_refused(self, A):
        with pytest.raises(ValueError, match=f"^A has {np.ndim(A)} dimensions, expected 2$"):
            solve_feasibility(A, np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["A", "b"])
    def test_non_finite_argument_named_before_pricing(self, name, bad):
        # Under filterwarnings = error, pricing a NaN or inf would fail with a RuntimeWarning.
        args = {"A": np.eye(2), "b": np.array([0.5, 0.5])}
        args[name].flat[0] = bad
        with pytest.raises(ValueError, match=f"^{name} has a non-finite entry$"):
            solve_feasibility(**args)

    def test_pivot_cap_raises_typed_breakdown(self, monkeypatch):
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 1)
        with pytest.raises(SolverBreakdown) as err:
            solve_feasibility(np.eye(3), np.array([1.0, 2.0, 0.5]))
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
    """The program (A, b) of one ``ORACLE_CASES`` entry."""
    kind, *key = case
    if kind == "constructive":
        A, b, _ = constructive_instances()[key[0]]
        return A, b
    if kind == "bland":
        return degenerate_instance(np.random.default_rng(TestBlandFallback.SEED), key[0])
    v, settings, grid = key
    return lhs_program(compute_assemblage(noisy_state(v), settings), grid)


class TestDenseOracle:
    """The solver against ``_dense_feasibility`` on the same programs."""

    @pytest.mark.parametrize("case", ORACLE_CASES, ids=oracle_case_id)
    def test_agrees_with_the_dense_oracle(self, case):
        A, b = oracle_program(case)
        result = solve_feasibility(A, b)
        oracle = _dense_feasibility(A, b)
        assert result.feasible == oracle.feasible
        assert abs(result.objective - oracle.objective) <= 1e-9
        if result.feasible:
            assert program_residual(A, b, result.x) < 1e-8

    def test_eta_updated_x_basic_equals_a_fresh_solve(self, monkeypatch):
        # Over a hundred pivots, so the eta steps run across refactorizations.
        A, b = lhs_program(compute_assemblage(noisy_state(0.58), ("Z", "X", "Y")), 20)
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
        result = solve_feasibility(A, b)
        assert result.iterations > REFACTOR_EVERY
        # Every REFACTOR_EVERY pivots, and once more on the final basis.
        assert len(gaps) == result.iterations // REFACTOR_EVERY + (
            result.iterations % REFACTOR_EVERY > 0)
        assert max(gaps) < 1e-10

    def test_singular_refactorization_raises_typed_breakdown(self):
        with pytest.raises(SolverBreakdown, match="singular basis after 7 iterations"):
            simplex._inverse(np.zeros((2, 2)), 7)


class TestColumnBlock:
    """The one block of row-signed columns a solve reads, and the program column
    generation hands the solver."""

    @pytest.mark.parametrize("case", ORACLE_CASES, ids=oracle_case_id)
    def test_oracle_programs(self, case):
        # Row j of the block is column j of A, negated on the rows where b < 0, then
        # the identity of the artificials.
        A, b = oracle_program(case)
        sign = np.where(b < 0, -1.0, 1.0)
        block = simplex._signed_columns(np.asarray(A, dtype=float), sign)
        m, n = A.shape
        expected = [[sign[r] * A[r, j] for r in range(m)] for j in range(n)]
        assert block.shape == (n + m, m) and block.flags.c_contiguous
        assert block[:n].tolist() == expected
        assert np.array_equal(block[n:], np.eye(m))

    def test_grown_warm_start_program(self, monkeypatch):
        # The last round of a grown program: column s·G + g of A is strategy s's row
        # pattern times state g's 4 rows, written out one entry at a time.
        calls, programs = [], []
        distinct = steering._distinct

        def recording_distinct(states):
            programs.append(distinct(states))
            return programs[-1]

        def recording_solve(A, b, start=None):
            calls.append((A, b, start))
            return solve_feasibility(A, b, start)

        monkeypatch.setattr(steering, "_distinct", recording_distinct)
        monkeypatch.setattr(steering, "solve_feasibility", recording_solve)
        # hardy:0.96,0.28 with Z,X,Y takes six rounds; hardy itself is witnessed unsolved.
        asm = compute_assemblage(two_qubit_frame(hardy_state(0.96, 0.28))[0], ("Z", "X", "Y"))
        steering.lhs_feasibility(asm, 20)
        A, b, start = calls[-1]
        solved = steering._strategies(3)[1]
        states, rows = programs[len(calls) - 1]
        assert rows.tolist() == steering._state_rows(states).tolist()
        assert start is not None and len(rows) > len(steering._AXIS_STATES)
        assert A.shape == (16, 8 * len(rows))
        for s in range(8):
            for g in range(len(rows)):
                column = [solved[r, s] * rows[g, c] for r in range(len(solved)) for c in range(4)]
                assert A[:, s * len(rows) + g].tolist() == column
        assert b.tolist() == steering._solved_target(steering._full_target(asm)).tolist()


class TestDualsAndStart:
    """The exit duals and basis that column generation reads, and a warm start from them."""

    @pytest.mark.parametrize("case", ORACLE_CASES[::7], ids=oracle_case_id)
    def test_duals_price_every_column_and_give_the_optimum(self, case):
        A, b = oracle_program(case)
        result = solve_feasibility(A, b)
        assert result.duals.shape == b.shape
        assert (result.duals @ A).max() <= PIVOT_TOL + 1e-12
        assert (np.where(b < 0, -1.0, 1.0) * result.duals).max() <= 1.0 + 1e-12
        assert result.duals @ b == pytest.approx(result.objective, abs=1e-9)

    @pytest.mark.parametrize("case", ORACLE_CASES[::7], ids=oracle_case_id)
    def test_a_solve_from_its_own_basis_takes_no_pivot(self, case):
        A, b = oracle_program(case)
        result = solve_feasibility(A, b)
        again = solve_feasibility(A, b, result.basis)
        assert again.iterations == 0
        assert (again.feasible, again.objective) == pytest.approx(
            (result.feasible, result.objective), abs=1e-12)

    @pytest.mark.parametrize("v", [0.4, 0.9])
    def test_a_warm_start_after_new_columns_keeps_the_verdict(self, v):
        A, b = lhs_program(compute_assemblage(noisy_state(v), ("Z", "X", "Y")), 10)
        strategies = A.shape[1] // 100
        # The first 40 of the 100 states of each strategy.
        first = solve_feasibility(
            A.reshape(len(b), strategies, 100)[:, :, :40].reshape(len(b), -1), b)
        # Renumber the basis for 100 states a strategy; artificials follow all columns.
        strategy, state = np.divmod(first.basis, 40)
        start = np.where(strategy < strategies, strategy * 100 + state,
                         first.basis + strategies * 60)
        warm = solve_feasibility(A, b, start)
        cold = solve_feasibility(A, b)
        assert warm.feasible == cold.feasible == (v < 0.5)
        assert warm.iterations <= first.iterations + cold.iterations

    @pytest.mark.parametrize("start", [[0, 1], [0, 0, 1], [0, 1, 5], [-1, 0, 1]])
    def test_a_start_that_is_not_a_basis_is_refused(self, start):
        with pytest.raises(ValueError, match="start is not 3 distinct columns below 5"):
            solve_feasibility(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                              np.array([0.5, 0.5, 1.0]), start)
