"""Nonlocality quantifiers: assemblages, CJWR steering value, CHSH, LHS search.

Two-qubit frame. The analysis treats the prepared photon as an effective
two-qubit system. For path-only states (``path_amplitudes``) both qubits are
site occupations; for any other, Alice's qubit is the polarization register
(H -> 0, V -> 1) and Bob's qubit is the occupation of his site as a coherent
dual-rail mode (0 = empty, 1 = photon present). In that frame the
benchmark entangled state has +1 correlators along every axis with the
dichotomic observable table below, whose occupation-Z assigns +1 to "photon
present". ``two_qubit_frame`` is the one frame rule: it picks the sites
(``frame_sites``) and one of the two frames for every prepared input, and
``compute_assemblage``, ``cjwr_value``, ``chsh_value`` and ``chsh_optimize``
take the 4x4 frame it returns (a ``DensityOperator``) and nothing else.
Every assemblage member and correlator comes from the one observable table:
Alice's projectors are (I ± A)/2, and members and <A_i ⊗ B_j> are each one
einsum on the frame's (2, 2, 2, 2) tensor.

The LHS search is an inner approximation: local-hidden-state models are
restricted to mixtures of pure states on a deterministic Fibonacci grid of
the Bloch sphere. A feasible program certifies the assemblage unsteerable
(the certificate reconstructs it to the reported residual); an infeasible
one is evidence at that resolution only and should be paired with a CJWR
violation for a steering certificate.

Both searches are sized by one number each, and ``check_grid`` and
``check_chsh_step`` are the only copies of their bounds: each raises
``OutOfRange`` before its search allocates anything.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import ATOL, DensityOperator, StateVector
from .errors import (
    BadParameters,
    BasisMismatch,
    NonDichotomicObservable,
    NonQubitBobMarginal,
    OutOfRange,
    TooManySettings,
)
from .simplex import solve_feasibility

TSIRELSON = 2.0 * np.sqrt(2.0)

# CHSH angles (a0, a1, b0, b1) in degrees, optimal for the benchmark state.
STANDARD_CHSH_ANGLES = (0.0, 90.0, 45.0, 135.0)

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Dichotomic observable tables. Polarization: H -> +1. Occupation qubit
# (basis order: empty, occupied): photon present -> +1, which is -Z in the
# raw basis ordering; X and Y are the single-photon coherences.
ALICE_OBSERVABLES = {"Z": _PAULI["Z"], "X": _PAULI["X"], "Y": _PAULI["Y"]}
BOB_OBSERVABLES = {"Z": -_PAULI["Z"], "X": _PAULI["X"], "Y": _PAULI["Y"]}

QUBIT_PAIR_LABELS = ("A0|B0", "A0|B1", "A1|B0", "A1|B1")

# Bob's site when a state declares it and none is named (``frame_sites``).
BOB_SITE = "PUE"

# The LHS program has one column per strategy and grid state, 2^m · grid_n² in all;
# Z,X,Y at MAX_GRID is a 16 × 80 000 program, handed to the solver as its 4 × 8 and
# 10 000 × 4 Kronecker factors: 4-16 ms for 26-142 pivots, ~2.4 MiB peak (2-vCPU Xeon).
MIN_GRID = 6
MAX_GRID = 100
# Degrees. The CHSH search holds a few k² floats, k = 360 / step (5-11 MiB at 1°). It
# scans every Bob pair exactly, k³ work, only when the Z-X correlation block T is
# about 0 (~0.25 s at 1°); otherwise only the few pairs its bound pass keeps.
MIN_CHSH_STEP = 1.0


def check_grid(grid_n) -> int:
    """The LHS grid rule: ``grid_n`` as an int, if it is an integer from ``MIN_GRID``
    to ``MAX_GRID``; else ``OutOfRange``."""
    try:
        n = operator.index(grid_n)
    except TypeError:
        n = None
    if n is None or not MIN_GRID <= n <= MAX_GRID:
        raise OutOfRange(f"bad grid {grid_n!r}: need an integer from {MIN_GRID} to {MAX_GRID}")
    return n


def check_chsh_step(step: float) -> None:
    """The CHSH angle-step rule: a finite step of at least ``MIN_CHSH_STEP`` degrees
    that divides 360 within 1e-9; else ``OutOfRange``."""
    points = 360.0 / step if step >= MIN_CHSH_STEP else 0.0  # NaN fails the test; 360/inf is 0
    if points < 1 or abs(points - round(points)) > 1e-9:
        raise OutOfRange(f"bad CHSH step {step!r}: it must be finite, at least "
                         f"{MIN_CHSH_STEP:g} degree, and divide 360")


@dataclass(frozen=True)
class Assemblage:
    """Subnormalized conditional states at Bob, indexed by (setting, outcome).

    Outcomes are the eigenvalues +1/-1 of Alice's dichotomic setting. The settings are one
    or more (else ``ValueError``) and distinct, and the keys are exactly (x, ±1) for each
    setting x (else ``BasisMismatch``). Members are 2x2 matrices in Bob's occupation basis.
    ``sum_a member(x, a)`` is Alice-setting independent (no signaling); the residual
    records how well that holds numerically.
    """

    settings: tuple[str, ...]
    members: dict[tuple[str, int], np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "settings", tuple(self.settings))
        if not self.settings:
            raise ValueError("at least one Alice setting required")
        if len(set(self.settings)) != len(self.settings):
            raise BasisMismatch(f"repeated setting in {self.settings}")
        if set(self.members) != set(product(self.settings, (+1, -1))):
            raise BasisMismatch(f"assemblage keys {list(self.members)} are not (x, ±1) for "
                                f"each setting x of {self.settings}")
        frozen = {}
        for key, mat in self.members.items():
            arr = np.asarray(mat, dtype=complex)
            if arr.shape != (2, 2):
                raise NonQubitBobMarginal(f"member {key} has shape {arr.shape}")
            a, b, c, d = arr.ravel().tolist()
            # np.allclose(arr, arr^H, atol=ATOL) written out; NaN fails every test.
            if not (2 * abs(a.imag) <= ATOL + 1e-5 * abs(a)
                    and 2 * abs(d.imag) <= ATOL + 1e-5 * abs(d)
                    and abs(b - c.conjugate()) <= ATOL + 1e-5 * min(abs(b), abs(c))):
                raise ValueError(f"member {key} is not Hermitian")
            # The lower eigenvalue from the real diagonal and the lower triangle, the
            # entries eigvalsh reads.
            if not (a.real + d.real) / 2 - math.hypot((a.real - d.real) / 2, abs(c)) >= -ATOL:
                raise ValueError(f"member {key} is not PSD")
            arr.setflags(write=False)
            frozen[key] = arr
        object.__setattr__(self, "members", frozen)

    def bob_marginal(self, setting: str) -> np.ndarray:
        return sum(self.members[(setting, a)] for a in (+1, -1))

    def no_signaling_residual(self) -> float:
        marginals = [self.bob_marginal(x) for x in self.settings]
        worst = 0.0
        for other in marginals[1:]:
            worst = max(worst, float(np.max(np.abs(other - marginals[0]))))
        return worst


@dataclass(frozen=True)
class SteeringVerdict:
    """LHS linear-program outcome at one grid resolution.

    For m settings the solver gets 4m + 4 rows of full rank, 4 real components
    each of Bob's marginal (from the first setting) and of sigma(+1|x) per
    setting. The full program's other 4(m - 1) rows, sigma(-1|x) for every x,
    follow from these under no-signalling. ``residual`` of a certified verdict is
    max |A_full x - b_full| over all 8m rows, so an assemblage that signals is
    never certified. Without a certificate it is the phase-1 optimum of the
    4m + 4-row program, or that full residual if the solved rows were met.

    ``certificate`` (feasible case) lists (strategy, bloch_vector, weight)
    triples; a strategy assigns an outcome to each setting in order. It is
    one LHS model among the many the program may admit. ``pivots`` counts
    the simplex pivots of the solve.
    """

    status: str  # UnsteerableCertified | NoLHSFoundAtResolution
    grid_n: int
    residual: float
    certificate: tuple[tuple[tuple[int, ...], tuple[float, float, float], float], ...] | None
    pivots: int  # simplex pivots the program took


@dataclass(frozen=True)
class ChshResult:
    """CHSH functional value with its four observable angles (degrees).

    ``correlators`` holds E(a0,b0), E(a0,b1), E(a1,b0), E(a1,b1); the value
    is E(a0,b0) - E(a0,b1) + E(a1,b0) + E(a1,b1), the sign combination under
    which ``STANDARD_CHSH_ANGLES`` is optimal for the benchmark state.
    """

    value: float
    angles: tuple[float, float, float, float]
    correlators: tuple[float, float, float, float]

    def __post_init__(self):
        if abs(self.value) > TSIRELSON + 1e-9:
            raise ValueError(f"CHSH value {self.value} exceeds the Tsirelson bound")
        for e in self.correlators:
            if abs(e) > 1.0 + ATOL:
                raise ValueError(f"correlator {e} outside [-1, 1]")


def frame_sites(state: StateVector, bob_site: str | None = None) -> tuple[str, str]:
    """(Alice's site, Bob's site) of a one-photon frame. Bob is ``bob_site``, else ``BOB_SITE``
    if declared (or nothing is), else the later of the photon's sites if it occupies exactly
    two, else the last declared one; Alice is the occupied site besides Bob's, else the first
    other one."""
    decl = state.decl
    t = decl.tensor(state.amps)
    occupied = [s for s in decl.sites if np.linalg.norm(t[decl.site_axis[s]]) > 1e-10]
    if bob_site is None:
        bob_site = (BOB_SITE if BOB_SITE in decl.sites or not decl.sites
                    else occupied[-1] if len(occupied) == 2 else decl.sites[-1])
    others = [s for s in decl.sites if s != bob_site]
    if not others:
        raise NonQubitBobMarginal(f"a steering frame needs two sites, the state has {decl.sites}")
    decl.require_site(bob_site)
    occupied = [s for s in occupied if s != bob_site]
    if len(occupied) > 1:
        raise NonQubitBobMarginal(f"photon amplitude at {occupied} besides Bob's site {bob_site!r}")
    return (occupied or others)[0], bob_site


def pol_path_qubits(state: StateVector, bob_site: str) -> DensityOperator:
    """Two-qubit density matrix (polarization ⊗ Bob-site occupation).

    Requires a pure one-photon state over Bob's site and Alice's
    (``frame_sites``); OAM is traced out. Basis order: (H,0), (H,1), (V,0),
    (V,1) with occupation 1 meaning the photon is at ``bob_site``.
    """
    decl = state.decl
    alice_site = frame_sites(state, bob_site)[0]
    if abs(state.amps[0]) ** 2 > ATOL:
        raise NonQubitBobMarginal("state has vacuum weight; polarization-path frame undefined")

    # Rows (pol, n) in frame order, with n = 1 at Bob's site; columns run over OAM.
    pair = decl.tensor(state.amps)[[decl.site_axis[alice_site], decl.site_axis[bob_site]]]
    rows = pair.transpose(1, 0, 2).reshape(4, -1)
    rho = np.sum(rows[:, None, :] * rows.conj()[None, :, :], axis=2)
    return DensityOperator(QUBIT_PAIR_LABELS, rho)


def path_amplitudes(state: StateVector) -> np.ndarray | None:
    """Photon amplitude per site (sorted order) if the (site) × (pol, OAM) matrix has
    rank one (second singular value ≤ ATOL), else None; the phase of the one internal
    factor all sites share is folded into the path."""
    decl = state.decl
    matrix = decl.tensor(state.amps).reshape(len(decl.sites), 2 * len(decl.oam))
    if np.linalg.norm(matrix) <= 1e-12:
        return np.zeros(len(decl.sites), dtype=complex)
    u, sing, vh = np.linalg.svd(matrix)
    if sing.size > 1 and sing[1] > ATOL:
        return None
    phase = vh[0, np.argmax(np.abs(vh[0]))]
    return u[:, 0] * sing[0] * (phase / abs(phase))


def occupation_qubits(state: StateVector, alice_site: str, bob_site: str) -> DensityOperator:
    """Two-qubit density matrix (Alice-site occupation ⊗ Bob-site occupation).

    The dual-rail reading of path-only states (``path_amplitudes``); it keeps
    occupation coherences, vacuum-photon ones included.
    """
    return _occupation_qubits(state, path_amplitudes(state), alice_site, bob_site)


def _occupation_qubits(state: StateVector, occ, alice_site: str, bob_site: str) -> DensityOperator:
    decl = state.decl
    for s in (alice_site, bob_site):
        decl.require_site(s)
    if alice_site == bob_site:
        raise NonQubitBobMarginal("Alice and Bob need distinct sites")

    if occ is None:
        raise NonQubitBobMarginal("internal polarization/OAM factor is entangled with the path")
    for s in decl.sites:
        if s not in (alice_site, bob_site) and abs(occ[decl.site_axis[s]]) > 1e-10:
            raise NonQubitBobMarginal(f"photon amplitude at third site {s!r}")

    # |n_A n_B> in the order 00, 01, 10, 11.
    amp2q = np.array([state.amps[0], occ[decl.site_axis[bob_site]],
                      occ[decl.site_axis[alice_site]], 0.0], dtype=complex)
    return DensityOperator(QUBIT_PAIR_LABELS, np.outer(amp2q, amp2q.conj()))


def two_qubit_frame(
    prepared: StateVector | DensityOperator, bob_site: str | None = None
) -> tuple[DensityOperator, str]:
    """The frame rule: the two-qubit frame and its label. A ``DensityOperator`` (``noisy:v``)
    is the frame already, ``two-qubit``, and has no Bob site. A state vector reads as
    ``occ-occ(alice,bob)`` if path-only (``path_amplitudes``), else as ``pol-path(bob=…)``,
    which allows no vacuum weight, at the sites ``frame_sites`` picks."""
    if isinstance(prepared, DensityOperator):
        if bob_site is not None:
            raise BadParameters(f"a two-qubit preset has no sites, so no Bob site {bob_site!r}")
        return prepared, "two-qubit"
    occ = path_amplitudes(prepared)
    alice_site, bob_site = frame_sites(prepared, bob_site)
    if occ is None:
        return pol_path_qubits(prepared, bob_site), f"pol-path(bob={bob_site})"
    frame = _occupation_qubits(prepared, occ, alice_site, bob_site)
    return frame, f"occ-occ({alice_site},{bob_site})"


def _frame_matrix(rho: DensityOperator) -> np.ndarray:
    if rho.dim != 4:
        raise NonQubitBobMarginal(f"frame has dimension {rho.dim}, need the 4x4 two-qubit frame")
    return np.asarray(rho.matrix)


def _correlation_matrix(rho2q: np.ndarray, axes=("Z", "X")) -> np.ndarray:
    """T[i, j] = <A_i ⊗ B_j> for i, j over ``axes``: the frame tensor
    r[a, b, c, d] = rho[(a, b), (c, d)] contracted with A_i[c, a] B_j[d, b]."""
    alice = np.array([ALICE_OBSERVABLES[x] for x in axes])
    bob = np.array([BOB_OBSERVABLES[x] for x in axes])
    return np.einsum("abcd,ica,jdb->ij", rho2q.reshape(2, 2, 2, 2), alice, bob).real


def cjwr_value(rho: DensityOperator, axes) -> float:
    """Linear steering functional F_n = |sum_k <A_k ⊗ B_k>| / sqrt(n) on a two-qubit frame.

    LHS-describable correlations obey F_n <= 1 for n distinct axes. The axes are
    names ("Z", "X", "Y") of the module observable tables; n must be 2 or 3.
    """
    axes = tuple(axes)
    if len(axes) not in (2, 3) or len(set(axes)) != len(axes):
        raise ValueError(f"CJWR is implemented for n in {{2, 3}} distinct axes, got {axes}")
    matrix = _frame_matrix(rho)
    for axis in axes:
        if axis not in ALICE_OBSERVABLES:
            raise NonDichotomicObservable(f"unknown axis {axis!r}, use Z, X or Y")
    T = _correlation_matrix(matrix, axes)
    return float(abs(np.trace(T)) / np.sqrt(len(axes)))


def chsh_value(rho: DensityOperator, a0: float, a1: float, b0: float, b1: float) -> ChshResult:
    """CHSH functional of a two-qubit frame at four observable angles (degrees), Z-X plane."""
    T = _correlation_matrix(_frame_matrix(rho))

    def E(a: float, b: float) -> float:
        ta, tb = np.deg2rad(a), np.deg2rad(b)
        ua = np.array([np.cos(ta), np.sin(ta)])
        ub = np.array([np.cos(tb), np.sin(tb)])
        return float(ua @ T @ ub)

    e00, e01, e10, e11 = E(a0, b0), E(a0, b1), E(a1, b0), E(a1, b1)
    s = e00 - e01 + e10 + e11
    return ChshResult(s, (a0, a1, b0, b1), (e00, e01, e10, e11))


# Rounding in the grid table E and in the pair bounds stays below 1e-14; a Bob pair
# whose bound is within this of the incumbent's exact total is scanned, not dropped.
_ROUNDING_MARGIN = 1e-12
# Floats per temporary of one exact scan (128 KiB): small enough that a scan stays in
# a core's L2 cache when every pair survives, where k pairs at a time would not.
_SCAN_FLOATS = 2**14


def _scan_pairs(columns: np.ndarray, pairs: np.ndarray):
    """Exact grid maxima of the a0 term E[i, b0] - E[i, b1] and the a1 term
    E[i, b0] + E[i, b1] over every Alice angle i, lowest i among ties, for the
    flat Bob pairs ``pairs`` (b0 · k + b1): their totals and both argmax angles.
    ``columns`` is E transposed, so that each Bob angle's column is one row."""
    b0, b1 = np.divmod(pairs, columns.shape[0])
    col0, col1 = columns[b0], columns[b1]
    term0, term1 = col0 - col1, col0 + col1
    i0, i1 = term0.argmax(axis=1), term1.argmax(axis=1)
    rows = np.arange(pairs.size)
    return term0[rows, i0] + term1[rows, i1], i0, i1


def chsh_optimize(rho: DensityOperator, grid_step_deg: float) -> ChshResult:
    """Maximize the CHSH functional of a two-qubit frame over a uniform four-angle grid.

    For each Bob pair (b0, b1) the a0 and a1 terms are maximized over all k
    Alice angles on their own, k = 360 / step, and the pair with the highest
    total wins, the lowest index among ties at each stage. The a0 term is at
    most |T(u_b0 - u_b1)| and the a1 term at most |T(u_b0 + u_b1)|
    (Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995)), so one
    O(k²) pass bounds every pair. The pair with the highest bound is scanned
    exactly, and only the pairs whose bound reaches its total, less
    ``_ROUNDING_MARGIN``, are scanned exactly after it, in flat order. This
    gives the same angles and value, bit for bit, as scanning every pair. When
    T is about 0 every pair survives: k³ time, still in O(k²) memory.
    """
    check_chsh_step(grid_step_deg)
    T = _correlation_matrix(_frame_matrix(rho))

    angles = np.arange(0.0, 360.0, grid_step_deg)
    radians = np.deg2rad(angles)
    u = np.stack([np.cos(radians), np.sin(radians)])  # 2 x k
    E = u.T @ T @ u  # E[i, j] = E(angle_i, angle_j)

    # S = E(a0,b0) - E(a0,b1) + E(a1,b0) + E(a1,b1), bounded per (b0, b1) pair.
    k = angles.size
    Tu = T @ u
    w0 = Tu[:, :, None] - Tu[:, None, :]  # T(u_b0 - u_b1), 2 x k x k over (b0, b1)
    w1 = Tu[:, :, None] + Tu[:, None, :]
    bound = (np.hypot(*w0) + np.hypot(*w1)).ravel()
    columns = np.ascontiguousarray(E.T)
    incumbent = _scan_pairs(columns, np.array([np.argmax(bound)]))[0][0]
    survivors = np.flatnonzero(bound >= incumbent - _ROUNDING_MARGIN)
    chunk = max(1, _SCAN_FLOATS // k)
    total, best0_idx, best1_idx = (np.concatenate(parts) for parts in zip(*(
        _scan_pairs(columns, survivors[s:s + chunk]) for s in range(0, survivors.size, chunk))))
    best = int(np.argmax(total))
    i_b0, i_b1 = divmod(int(survivors[best]), k)
    a0, a1 = float(angles[best0_idx[best]]), float(angles[best1_idx[best]])
    return chsh_value(rho, a0, a1, float(angles[i_b0]), float(angles[i_b1]))


def compute_assemblage(rho: DensityOperator, alice_settings) -> Assemblage:
    """Conditional Bob states sigma(a|x) = Tr_A[(Pi_a^x ⊗ I) rho] of a two-qubit frame.

    Each member carries trace p(a|x); summing members over outcomes gives
    Bob's unconditional marginal for every setting (no signaling).
    """
    settings = tuple(alice_settings)
    frame = _frame_matrix(rho).reshape(2, 2, 2, 2)
    members: dict[tuple[str, int], np.ndarray] = {}
    for x in settings:
        if x not in ALICE_OBSERVABLES:
            raise NonDichotomicObservable(f"unknown setting {x!r}, use Z, X or Y")
        for outcome in (+1, -1):
            projector = (_PAULI["I"] + outcome * ALICE_OBSERVABLES[x]) / 2
            # sigma[b, d] = sum over a, c of Pi[a, c] rho[(c, b), (a, d)]
            members[(x, outcome)] = np.einsum("ac,cbad->bd", projector, frame)
    return Assemblage(settings, members)


def fibonacci_bloch_grid(count: int) -> np.ndarray:
    """``count`` near-uniform unit vectors on the Bloch sphere (deterministic)."""
    indices = np.arange(count, dtype=float) + 0.5
    z = 1.0 - 2.0 * indices / count
    radius = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    phi = golden * indices
    return np.column_stack([radius * np.cos(phi), radius * np.sin(phi), z])


def _bloch_state(n: np.ndarray) -> np.ndarray:
    return 0.5 * (
        _PAULI["I"] + n[0] * _PAULI["X"] + n[1] * _PAULI["Y"] + n[2] * _PAULI["Z"]
    )


def _real_components(mat: np.ndarray) -> np.ndarray:
    return np.array([mat[0, 0].real, mat[1, 1].real, mat[0, 1].real, mat[0, 1].imag])


# Bounded, so that grids MIN_GRID..MAX_GRID × 1-4 settings cannot pile up: a run of
# requests uses a few dozen (grid_n, m) pairs, and an entry at MAX_GRID holds ~0.6 MB.
@functools.lru_cache(maxsize=32)
def _lhs_structure(grid_n: int, m: int):
    """The parts of the LHS program that depend only on the grid and the setting count,
    read-only: (grid, strategies, responds, solved, comps). Column (s, g) of the
    program is the Kronecker product of ``solved[:, s]`` and ``comps[g]``."""
    outcomes = (+1, -1)
    grid = fibonacci_bloch_grid(grid_n * grid_n)
    strategies = tuple(product(outcomes, repeat=m))
    # _real_components(_bloch_state(n)) in closed form, one row per grid state.
    nx, ny, nz = grid.T
    comps = 0.5 * np.column_stack([1.0 + nz, 1.0 - nz, nx, -ny])
    # responds[s, x, a] = 1 when strategy s answers a to setting x.
    responds = (np.array(strategies)[:, :, None] == np.array(outcomes)).astype(float)
    # The full program has rows (setting, outcome, component). In every column the
    # rows of sigma(+1|x) and sigma(-1|x) sum to the column's state, so only Bob's
    # marginal and sigma(+1|x) per setting are solved: 4m + 4 rows of full rank.
    # Columns (strategy, grid state), grid index fastest, which the certificate's
    # divmod relies on.
    solved = np.vstack([np.ones(len(strategies)), responds[:, :, 0].T])
    for array in (grid, responds, solved, comps):
        array.setflags(write=False)
    return grid, strategies, responds, solved, comps


def lhs_feasibility(assemblage: Assemblage, grid_n: int) -> SteeringVerdict:
    """Search for a local-hidden-state model on a Bloch grid of grid_n² states.

    Feasible: the assemblage is certified unsteerable and the certificate
    reconstructs it within the reported residual. Infeasible: no model exists
    *at this resolution*; pair with a CJWR violation before claiming steering.
    """
    grid_n = check_grid(grid_n)
    m = len(assemblage.settings)
    if m > 4:
        raise TooManySettings(f"at most 4 settings supported, got {m}")
    grid, strategies, responds, solved, comps = _lhs_structure(grid_n, m)
    target = np.array([[_real_components(assemblage.members[(x, a)]) for a in (+1, -1)]
                       for x in assemblage.settings])  # the full program's b
    b = np.concatenate([target[0].sum(axis=0), target[:, 0].ravel()])

    result = solve_feasibility(solved, comps, b)
    residual = result.objective  # the phase-1 optimum, unless a solution is found
    if result.feasible:
        # max |A_full x - b_full| over all 8m rows, so a signalling assemblage fails.
        per_strategy = result.x.reshape(len(strategies), -1) @ comps
        rebuilt = np.einsum("sxa,sc->xac", responds, per_strategy)
        residual = float(np.max(np.abs(rebuilt - target)))
    if result.feasible and residual < 1e-7:
        certificate = []
        for idx in np.nonzero(result.x > 1e-12)[0]:
            s_idx, g_idx = divmod(int(idx), len(grid))
            certificate.append(
                (strategies[s_idx], tuple(float(v) for v in grid[g_idx]), float(result.x[idx]))
            )
        return SteeringVerdict(
            "UnsteerableCertified", grid_n, residual, tuple(certificate), result.iterations
        )
    return SteeringVerdict("NoLHSFoundAtResolution", grid_n, residual, None, result.iterations)


def replay_certificate(verdict: SteeringVerdict, assemblage: Assemblage) -> float:
    """Rebuild sigma(a|x) from an LHS certificate; returns the worst deviation."""
    if verdict.certificate is None:
        raise ValueError("verdict carries no certificate")
    worst = 0.0
    for ix, x in enumerate(assemblage.settings):
        for a in (+1, -1):
            total = np.zeros((2, 2), dtype=complex)
            for strategy, bloch, weight in verdict.certificate:
                if strategy[ix] == a:
                    total += weight * _bloch_state(np.asarray(bloch))
            worst = max(worst, float(np.max(np.abs(total - assemblage.members[(x, a)]))))
    return worst
