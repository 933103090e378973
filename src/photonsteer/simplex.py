"""Phase-one simplex feasibility solver for programs with Kronecker-product columns.

Decides whether ``A x = b, x >= 0`` has a solution by minimizing the sum of
artificial variables. A comes in factored form: row (r, c) of column (s, g) is
``solved[r, s] · comps[g, c]``, rows r-major and columns s-major, which is how
every LHS program is built; a dense A is the case ``comps = [[1.0]]``.

Revised form with an explicit basis inverse. Every column is priced through
the two factors, ``−(solvedᵀ Y) compsᵀ`` with Y the duals reshaped to the
rows' (r, c) grid, and a column is built only when it enters. Each pivot
updates B⁻¹ by one rank-one (product-form, eta) step (Dantzig & Orchard-Hays,
Math. Tables Aids Comput. 8, 64 (1954)). The basis is refactorized from
scratch every ``REFACTOR_EVERY`` pivots, which bounds the error the eta steps
accumulate, and again before the optimum is declared, so the final x_B and
reduced costs come from a fresh factorization.

The entering column is the most negative reduced cost (Dantzig's rule),
which needs tens to hundreds of pivots on the steering programs where the
lowest improving index needs thousands. Dantzig's rule alone can cycle on
degenerate programs, and these are heavily degenerate, so once
``STALL_LIMIT`` pivots in a row bring no decrease of the phase-1 objective
the solver switches to Bland's rule (lowest improving column in) for the
rest of the solve, which guarantees termination. The leaving row is the
lowest basis index among ratio ties under both rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverBreakdown

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-8
# Pivots without a decrease of the phase-1 objective before Bland's rule takes
# over. Dantzig's rule stalls for at most about 20 pivots on the steering
# programs of the presets, so the fallback is for pathological input.
STALL_LIMIT = 50
# Pivots after which the solve gives up with SolverBreakdown.
MAX_PIVOTS = 20000
# Eta steps between two factorizations of the basis. A factorization costs about
# two pivots, and most LHS solves take under 50 pivots, so they factorize once, at
# the end; the cap bounds the eta chain of the long ones (Bland fallback, large grids).
REFACTOR_EVERY = 50


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    x: np.ndarray | None  # structural solution when feasible, s-major
    objective: float  # phase-1 optimum (sum of artificials)
    residual: float  # max |A x - b| recomputed from scratch
    iterations: int
    bland_iterations: int = 0  # pivots taken after the fallback to Bland's rule


def _inverse(basis_matrix: np.ndarray, iterations: int) -> np.ndarray:
    try:
        return np.linalg.inv(basis_matrix)
    except np.linalg.LinAlgError as exc:
        raise SolverBreakdown(f"singular basis after {iterations} iterations") from exc


def _eta_step(binv: np.ndarray, direction: np.ndarray, leaving: int) -> None:
    """B⁻¹ in place for the basis whose column ``leaving`` is replaced by the entering
    one, ``direction`` being B⁻¹ times that column."""
    pivot_row = binv[leaving] / direction[leaving]
    np.subtract(binv, direction[:, None] * pivot_row, out=binv)
    binv[leaving] = pivot_row


def solve_feasibility(solved: np.ndarray, comps: np.ndarray, b: np.ndarray) -> FeasibilityResult:
    """Search for x >= 0 with A x = b, A[(r, c), (s, g)] = solved[r, s] · comps[g, c].
    An argument with a NaN or infinite entry is a ``ValueError`` that names it."""
    solved = np.asarray(solved, dtype=float)
    comps = np.asarray(comps, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    for name, array in (("solved", solved), ("comps", comps), ("b", b)):
        if not np.isfinite(array).all():
            raise ValueError(f"{name} has a non-finite entry")
    (rows, strategies), (states, width) = solved.shape, comps.shape
    m, n = rows * width, strategies * states
    if b.shape != (m,):
        raise ValueError(f"b has shape {b.shape}, expected ({m},)")

    # Artificial basis needs b >= 0: the rows with b < 0 are negated.
    sign = np.where(b < 0, -1.0, 1.0)
    work_b = sign * b
    # Reduced costs: structural (s-major), then artificial (1 - duals). The structural
    # ones are -(solvedᵀ Y) compsᵀ, Y the row-signed duals on the (r, c) grid;
    # minus_sign folds the minus into Y.
    reduced = np.empty(n + m)
    priced = reduced[:n].reshape(strategies, states)
    comps_t = np.ascontiguousarray(comps.T)
    minus_sign = -sign.reshape(rows, width)

    def column(j):
        """Column j of the row-signed [A | I]."""
        if j >= n:
            return np.eye(m)[j - n]
        s, g = divmod(j, states)
        return sign * (solved[:, s, None] * comps[g]).ravel()

    def factorize():
        return _inverse(np.column_stack([column(j) for j in basis]), iterations)

    basis = np.arange(n, n + m)
    binv = np.eye(m)
    since_factor = 0  # eta steps applied to binv since its factorization

    iterations = 0
    bland_from = None  # pivot count at which Bland's rule took over
    best_objective = np.inf
    last_decrease = 0
    while True:
        x_basic = binv @ work_b
        cost_basic = (basis >= n).astype(float)  # 1 on artificials, 0 elsewhere
        duals = cost_basic @ binv

        if bland_from is None:
            objective = float(cost_basic @ x_basic)
            if objective < best_objective - PIVOT_TOL:
                best_objective, last_decrease = objective, iterations
            elif iterations - last_decrease >= STALL_LIMIT:
                bland_from = iterations

        np.matmul(solved.T @ (minus_sign * duals.reshape(rows, width)), comps_t, out=priced)
        np.subtract(1.0, duals, out=reduced[n:])
        if bland_from is None:
            entering = int(reduced.argmin())  # Dantzig: most negative
        else:
            entering = int((reduced < -PIVOT_TOL).argmax())  # Bland: lowest improving index
        if reduced[entering] >= -PIVOT_TOL:  # optimal
            if since_factor == 0:
                break
            binv, since_factor = factorize(), 0
            continue

        direction = binv @ column(entering)
        # The ratio test on Python floats: at a few dozen rows that is cheaper than
        # numpy's per-call cost.
        ratios = [max(x, 0.0) / d if d > PIVOT_TOL else np.inf
                  for x, d in zip(x_basic.tolist(), direction.tolist())]
        theta = min(ratios)
        if theta == np.inf:
            # Phase-1 objective is bounded below by zero, so an unbounded ray
            # means numerical breakdown, not a real certificate.
            raise SolverBreakdown("phase-1 ratio test failed on all rows")
        leaving = min([i for i, r in enumerate(ratios) if r <= theta + PIVOT_TOL],
                      key=basis.__getitem__)  # lowest basis index

        _eta_step(binv, direction, leaving)
        basis[leaving] = entering
        since_factor += 1
        iterations += 1
        if iterations > MAX_PIVOTS:
            raise SolverBreakdown(f"phase-1 did not converge in {MAX_PIVOTS} iterations")
        if since_factor == REFACTOR_EVERY:
            binv, since_factor = factorize(), 0

    bland_iterations = 0 if bland_from is None else iterations - bland_from
    objective = float(cost_basic @ np.maximum(x_basic, 0.0))
    if objective > FEAS_TOL:
        return FeasibilityResult(False, None, objective, objective, iterations, bland_iterations)

    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = np.maximum(x_basic[structural], 0.0)
    rebuilt = solved @ x.reshape(strategies, states) @ comps
    residual = float(np.max(np.abs(rebuilt.ravel() - b))) if m else 0.0
    return FeasibilityResult(True, x, objective, residual, iterations, bland_iterations)
