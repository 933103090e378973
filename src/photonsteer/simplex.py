"""Phase-one simplex feasibility solver for dense programs A x = b, x >= 0.

Decides whether ``A x = b, x >= 0`` has a solution by minimizing the sum of
artificial variables.

Revised form with an explicit basis inverse. The row-signed columns of [A | I] are
built once per solve, as the rows of one block that factorizations, entering columns
and pricing read: one cost vector (0 on A, 1 on the artificials) gives the basic
costs and, through one product with the block, every reduced cost. Each pivot
updates B⁻¹ by one rank-one (product-form, eta) step (Dantzig & Orchard-Hays, Math.
Tables Aids Comput. 8, 64 (1954)). The basis is refactorized from scratch every
``REFACTOR_EVERY`` pivots, which bounds the error of the eta steps, and again before
the optimum is declared, so the final x_B and reduced costs come from a fresh one.

The entering column is the most negative reduced cost (Dantzig's rule),
which needs tens to hundreds of pivots on the steering programs where the
lowest improving index needs thousands. Dantzig's rule alone can cycle on
degenerate programs, and these are heavily degenerate, so once
``STALL_LIMIT`` pivots in a row bring no decrease of the phase-1 objective
the solver switches to Bland's rule (lowest improving column in) for the
rest of the solve, which guarantees termination. A pivot must exceed
``PIVOT_TOL`` and ``_RELATIVE_PIVOT_TOL`` times the entering column's largest
step; the leaving row is the lowest basis index among ratio ties under both
rules.

A solve returns its final basis and duals, and can start from a given feasible
basis, such as the last one renumbered after columns were added. A feasible solve
returns x, clamped at 0, but no residual: the caller measures a solution against
its own rows.
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
# the end; the cap bounds the eta chain of the long ones (the Bland fallback).
REFACTOR_EVERY = 50
# A ratio-test pivot must also exceed this share of the entering column's largest
# step. On programs whose states crowd round one point (a Bob marginal near rank one)
# smaller pivots are rounding noise: taken, they leave singular bases and garbage
# solutions. The rule changes no pivot on the programs of the presets, the 400 random
# frames with Z,X,Y or the two-setting band.
_RELATIVE_PIVOT_TOL = 1e-5


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    x: np.ndarray | None  # structural solution when feasible, in the column order of A
    objective: float  # phase-1 optimum (sum of artificials)
    iterations: int
    bland_iterations: int = 0  # pivots taken after the fallback to Bland's rule
    # Phase-1 duals y at exit, on the rows as given (b's signs undone): y·b is the optimum
    # before x is clamped at 0, and y·A_j ≤ PIVOT_TOL for every column j.
    duals: np.ndarray | None = None
    basis: np.ndarray | None = None  # the final basis, a valid ``start`` for the same rows


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


def _signed_columns(A: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """One C-contiguous (n + m, m) block: row j is column j of the row-signed [A | I]."""
    m, n = A.shape
    block = np.zeros((n + m, m))
    np.multiply(A.T, sign, out=block[:n])
    np.fill_diagonal(block[n:], 1.0)
    return block


def solve_feasibility(A: np.ndarray, b: np.ndarray,
                      start: np.ndarray | None = None) -> FeasibilityResult:
    """Search for x >= 0 with A x = b. An argument with a NaN or infinite entry is a
    ``ValueError`` that names it.

    ``start`` is a basis to begin from, one column of [A | I] per row (the columns of A,
    then the artificials), such as the ``basis`` of an earlier result renumbered for new
    columns; it must be primal feasible (B⁻¹ b' ≥ 0, b' being b with its negative rows
    negated), which keeping b and the basis columns guarantees. None starts from the
    artificial basis."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if A.ndim != 2:
        raise ValueError(f"A has {A.ndim} dimensions, expected 2")
    for name, array in (("A", A), ("b", b)):
        if not np.isfinite(array).all():
            raise ValueError(f"{name} has a non-finite entry")
    m, n = A.shape
    if b.shape != (m,):
        raise ValueError(f"b has shape {b.shape}, expected ({m},)")

    # Artificial basis needs b >= 0: the rows with b < 0 are negated.
    sign = np.where(b < 0, -1.0, 1.0)
    work_b = sign * b
    block = _signed_columns(A, sign)
    cost = np.concatenate([np.zeros(n), np.ones(m)])
    reduced = np.empty(n + m)

    def factorize():
        return _inverse(block[basis].T, iterations)

    iterations = 0
    if start is None:
        basis, binv = np.arange(n, n + m), np.eye(m)
    else:
        basis = np.array(start, dtype=np.intp)
        if basis.shape != (m,) or np.unique(basis).size != m or not (
                (basis >= 0) & (basis < n + m)).all():
            raise ValueError(f"start is not {m} distinct columns below {n + m}")
        binv = factorize()
    since_factor = 0  # eta steps applied to binv since its factorization

    bland_from = None  # pivot count at which Bland's rule took over
    best_objective = np.inf
    last_decrease = 0
    while True:
        x_basic = binv @ work_b
        cost_basic = cost[basis]
        duals = cost_basic @ binv

        if bland_from is None:
            objective = float(cost_basic @ x_basic)
            if objective < best_objective - PIVOT_TOL:
                best_objective, last_decrease = objective, iterations
            elif iterations - last_decrease >= STALL_LIMIT:
                bland_from = iterations

        np.subtract(cost, np.matmul(block, duals, out=reduced), out=reduced)
        if bland_from is None:
            entering = int(reduced.argmin())  # Dantzig: most negative
        else:
            entering = int((reduced < -PIVOT_TOL).argmax())  # Bland: lowest improving index
        if reduced[entering] >= -PIVOT_TOL:  # optimal
            if since_factor == 0:
                break
            binv, since_factor = factorize(), 0
            continue

        direction = binv @ block[entering]
        # The ratio test on Python floats: at a few dozen rows that is cheaper than
        # numpy's per-call cost.
        steps = direction.tolist()
        tol = max(PIVOT_TOL, _RELATIVE_PIVOT_TOL * max(steps))
        ratios = [max(x, 0.0) / d if d > tol else np.inf
                  for x, d in zip(x_basic.tolist(), steps)]
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
        return FeasibilityResult(False, None, objective, iterations, bland_iterations,
                                 sign * duals, basis)

    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = np.maximum(x_basic[structural], 0.0)
    return FeasibilityResult(True, x, objective, iterations, bland_iterations, sign * duals, basis)
