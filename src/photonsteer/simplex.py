"""Phase-one simplex feasibility solver.

Decides whether ``A x = b, x >= 0`` has a solution by minimizing the sum of
artificial variables. Revised form: every iteration refactorizes the
basis and recomputes reduced costs from scratch, so no error accumulates
across pivots.

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


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    x: np.ndarray | None  # structural solution when feasible
    objective: float  # phase-1 optimum (sum of artificials)
    residual: float  # max |A x - b| recomputed from scratch
    iterations: int
    bland_iterations: int = 0  # pivots taken after the fallback to Bland's rule


def solve_feasibility(A: np.ndarray, b: np.ndarray) -> FeasibilityResult:
    """Search for x >= 0 with A x = b."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    m, n = A.shape
    if b.shape != (m,):
        raise ValueError(f"b has shape {b.shape}, expected ({m},)")

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
