"""Nonlocality quantifiers: assemblages, CJWR steering value, CHSH, LHS search.

Two-qubit frame. The analysis treats the prepared photon as an effective
two-qubit system. For path-only states (``path_amplitudes``) both qubits are
site occupations, a frame only ``two_qubit_frame`` builds; for any other, Alice's
qubit is the polarization register (H -> 0, V -> 1) and Bob's qubit is the
occupation of his site as a coherent dual-rail mode (0 = empty, 1 = photon
present). In that frame the benchmark entangled state has +1 correlators along
every axis with the dichotomic observable table below, whose occupation-Z
assigns +1 to "photon present". ``two_qubit_frame`` is the one frame rule: it picks the sites
(``frame_sites``) and one of the two frames for every prepared input, and
``compute_assemblage``, ``cjwr_value``, ``chsh_value`` and ``chsh_optimize``
take the 4x4 frame it returns (a ``DensityOperator``) and nothing else.
The frame is read through two fixed contractions over Z, X and Y, each one einsum
on its (2, 2, 2, 2) tensor: every member of Alice's six projectors (I ± A)/2, and the
3x3 table T[i, j] = <A_i ⊗ B_j>, whose diagonal CJWR sums and whose Z-X block CHSH reads.

``lhs_feasibility`` decides two settings exactly where it can: the assemblage
is unsteerable exactly when Bob's steering-equivalent effects are jointly
measurable, and for two qubit effects that is the sign of a closed-form margin
(``joint_measurability_margin``). A positive margin proves steering; a parent
POVM of the two effects gives an LHS model of at most four hidden states.
Everything else, the two-setting cases that path leaves open included, goes to
column generation over the whole Bloch sphere. A witness there is a vector y over
the program's rows whose margin no LHS model of any resolution can meet
(``replay_witness``): first the assemblage's own linear steering witness, a proof
before any solve, then the duals of each round. Else the program starts from the six
axis states and that witness's best states, and each round adds the best pure state of
every strategy under the round's duals, until the program is feasible (a certificate)
or its duals are a witness.

The CHSH search is sized by one number, and ``check_chsh_step`` is the only
copy of its bounds: it raises ``OutOfRange`` before the search allocates
anything. Column generation stops after ``_MAX_ROUNDS`` rounds, each adding at
most 2^m states.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, product

import numpy as np

from .core import ATOL, DensityOperator, StateVector
from .errors import (
    BadParameters,
    BasisMismatch,
    NonDichotomicObservable,
    NonQubitBobMarginal,
    OutOfRange,
    SolverBreakdown,
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


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


# The fixed operands of the two contractions with the frame, over every axis in table
# order (Z, X, Y): Alice's and Bob's observables, and Alice's projectors (I ± A)/2 by
# (axis, outcome +1 then -1); ``_AXIS_INDEX`` holds each axis's position.
_AXIS_INDEX = {axis: i for i, axis in enumerate(ALICE_OBSERVABLES)}
_ALICE_STACK = _read_only(np.array(list(ALICE_OBSERVABLES.values())))
_BOB_STACK = _read_only(np.array(list(BOB_OBSERVABLES.values())))
_PROJECTORS = _read_only(np.array([[(_PAULI["I"] + outcome * A) / 2 for outcome in (+1, -1)]
                                   for A in _ALICE_STACK]))

QUBIT_PAIR_LABELS = ("A0|B0", "A0|B1", "A1|B0", "A1|B1")

# Bob's site when a state declares it and none is named (``frame_sites``).
BOB_SITE = "PUE"

# Degrees. The CHSH search holds the k² floats of E, k = 360 / step, and O(k) arrays for
# the pairs its bounds keep: its tracemalloc peak at 1° is 1.2 MiB on noisy(0.7) (0.3 ms).
# When the Z-X correlation block T is about 0 every pair bound is formed, every Bob pair
# survives and each is scanned over every Alice angle, k³ work: on noisy(0) about 1.5 ms
# at 5°, and 0.13 s with a peak of 16.8 MiB at 1° (2-vCPU Xeon, numpy 2.4).
MIN_CHSH_STEP = 1.0


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
    """Outcome of ``lhs_feasibility``: from the exact two-setting path or from column
    generation (everything that path leaves open).

    ``certificate`` (certified case) lists (strategy, bloch_vector, weight)
    triples; a strategy assigns an outcome to each setting in order. It is
    one LHS model among the many an assemblage may admit. ``residual`` of a
    certified verdict is max |A_full x - b_full| over all 8m rows of the full
    program (the 4 real components of every sigma(a|x)), rebuilt from the
    certificate: exactly what ``replay_certificate`` returns. So an assemblage
    that signals is never certified: at most 1e-9 on the exact path, below 1e-7
    from column generation.

    Exact path (two settings): ``pivots`` is 0. Its certificate has at most four
    hidden states, which may be mixed (|bloch| < 1). Its ``NoLHSFoundAtResolution``
    is a proof, and ``residual`` is then the joint-measurability margin, above 1e-9.

    Column generation solves 4m + 4 rows of full rank for m settings, 4 real
    components each of Bob's marginal (from the first setting) and of
    sigma(+1|x) per setting; the full program's other 4(m - 1) rows,
    sigma(-1|x) for every x, follow from these under no-signalling. Its
    certificates hold pure states, and ``pivots`` counts the simplex pivots
    over every round. Its ``NoLHSFoundAtResolution`` is a proof unless it is
    left open past the round cap. A proof carries a vector y over the solved
    rows as ``witness``: the assemblage's linear steering witness, with
    ``pivots`` 0 as on the exact path, or a round's phase-1 duals. ``residual``
    is the witness margin, above 1e-9, exactly what ``replay_witness`` returns;
    or, without a witness, the 8m-row residual of a certificate that met the
    solved rows but not the full ones (an assemblage that signals). Left open,
    it has neither, and ``residual`` is the last phase-1 optimum.
    """

    status: str  # UnsteerableCertified | NoLHSFoundAtResolution
    residual: float
    certificate: tuple[tuple[tuple[int, ...], tuple[float, float, float], float], ...] | None
    pivots: int  # simplex pivots the program took
    witness: tuple[float, ...] | None = None  # y over the solved rows of a steering witness


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
    weights = np.linalg.norm(state.amps[1:].reshape(len(decl.sites), 2 * len(decl.oam)), axis=1)
    occupied = [s for s in decl.sites if weights[decl.site_axis[s]] > 1e-10]
    if bob_site is None:
        bob_site = (BOB_SITE if BOB_SITE in decl.sites or not decl.sites
                    else occupied[-1] if len(occupied) == 2 else decl.sites[-1])
    others = [s for s in decl.sites if s != bob_site]
    if not others:
        raise NonQubitBobMarginal(f"a steering frame needs two sites, the state has {decl.sites}")
    decl.site_position(bob_site)
    occupied = [s for s in occupied if s != bob_site]
    if len(occupied) > 1:
        raise NonQubitBobMarginal(f"photon amplitude at {occupied} besides Bob's site {bob_site!r}")
    return (occupied or others)[0], bob_site


def pol_path_qubits(state: StateVector, bob_site: str | None) -> DensityOperator:
    """Two-qubit density matrix (polarization ⊗ Bob-site occupation): the ``pol-path`` frame
    of ``two_qubit_frame``, for callers that want it by name.

    Requires a pure one-photon state over Alice's and Bob's sites, both from ``frame_sites``
    (``bob_site`` None picks its default Bob); OAM is traced out. Basis order: (H,0), (H,1),
    (V,0), (V,1) with occupation 1 meaning the photon is at Bob's site.
    """
    return _pol_path_frame(state, *frame_sites(state, bob_site))


def _pol_path_frame(state: StateVector, alice_site: str, bob_site: str) -> DensityOperator:
    """``pol_path_qubits`` at the sites ``frame_sites`` already picked."""
    decl = state.decl
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
    u, sing, vh = np.linalg.svd(matrix, full_matrices=False)
    if sing.size > 1 and sing[1] > ATOL:
        return None
    phase = vh[0, np.argmax(np.abs(vh[0]))]
    return u[:, 0] * sing[0] * (phase / abs(phase))


def two_qubit_frame(
    prepared: StateVector | DensityOperator, bob_site: str | None = None
) -> tuple[DensityOperator, str]:
    """The frame rule: the two-qubit frame and its label. A ``DensityOperator`` (``noisy:v``)
    is the frame already, ``two-qubit``, and has no Bob site. A state vector reads as
    ``occ-occ(alice,bob)``, vacuum coherences kept, if path-only (``path_amplitudes``), else
    as ``pol-path(bob=…)``, which allows no vacuum weight, at the sites ``frame_sites`` picks."""
    if isinstance(prepared, DensityOperator):
        if bob_site is not None:
            raise BadParameters(f"a two-qubit preset has no sites, so no Bob site {bob_site!r}")
        return prepared, "two-qubit"
    occ = path_amplitudes(prepared)
    alice_site, bob_site = frame_sites(prepared, bob_site)
    if occ is None:
        return _pol_path_frame(prepared, alice_site, bob_site), f"pol-path(bob={bob_site})"
    # No third-site check: frame_sites has refused photon amplitude besides Alice's and Bob's.
    at = prepared.decl.site_axis
    # |n_A n_B> in the order 00, 01, 10, 11.
    amp2q = np.array([prepared.amps[0], occ[at[bob_site]], occ[at[alice_site]], 0.0], dtype=complex)
    return (DensityOperator(QUBIT_PAIR_LABELS, np.outer(amp2q, amp2q.conj())),
            f"occ-occ({alice_site},{bob_site})")


def _frame_matrix(rho: DensityOperator) -> np.ndarray:
    if rho.dim != 4:
        raise NonQubitBobMarginal(f"frame has dimension {rho.dim}, need the 4x4 two-qubit frame")
    return np.asarray(rho.matrix)


def _axis_positions(axes) -> list[int]:
    """The table positions of ``axes``; ``NonDichotomicObservable`` names the first unknown."""
    for axis in axes:
        if axis not in _AXIS_INDEX:
            raise NonDichotomicObservable(f"unknown setting {axis!r}, use Z, X or Y")
    return [_AXIS_INDEX[axis] for axis in axes]


def _correlations(rho2q: np.ndarray) -> np.ndarray:
    """T[i, j] = <A_i ⊗ B_j> for i, j over Z, X, Y: the frame tensor
    r[a, b, c, d] = rho[(a, b), (c, d)] contracted with A_i[c, a] B_j[d, b]."""
    return np.einsum("abcd,ica,jdb->ij", rho2q.reshape(2, 2, 2, 2), _ALICE_STACK, _BOB_STACK).real


def cjwr_value(rho: DensityOperator, axes) -> float:
    """Linear steering functional F_n = |sum_k <A_k ⊗ B_k>| / sqrt(n) on a two-qubit frame.

    LHS-describable correlations obey F_n <= 1 for n distinct axes. The axes are
    names ("Z", "X", "Y") of the module observable tables; n must be 2 or 3.
    """
    axes = tuple(axes)
    if len(axes) not in (2, 3) or len(set(axes)) != len(axes):
        raise ValueError(f"CJWR is implemented for n in {{2, 3}} distinct axes, got {axes}")
    matrix, diagonal = _frame_matrix(rho), _axis_positions(axes)
    return float(abs(_correlations(matrix).diagonal()[diagonal].sum()) / np.sqrt(len(axes)))


def chsh_value(rho: DensityOperator, a0: float, a1: float, b0: float, b1: float) -> ChshResult:
    """CHSH functional of a two-qubit frame at four observable angles (degrees), Z-X plane."""
    return _chsh_at(_correlations(_frame_matrix(rho))[:2, :2], a0, a1, b0, b1)


def _chsh_at(T: np.ndarray, a0: float, a1: float, b0: float, b1: float) -> ChshResult:
    """``chsh_value`` from the frame's Z-X correlation block T. Each correlator is
    (u_a T) u_b, with u_a T formed once per Alice angle and u_b once per Bob angle."""

    def unit(degrees: float) -> np.ndarray:
        t = np.deg2rad(degrees)
        return np.array([np.cos(t), np.sin(t)])

    alice = (unit(a0) @ T, unit(a1) @ T)
    bob = (unit(b0), unit(b1))
    e00, e01, e10, e11 = (float(ta @ ub) for ta in alice for ub in bob)
    s = e00 - e01 + e10 + e11
    return ChshResult(s, (a0, a1, b0, b1), (e00, e01, e10, e11))


# Rounding in the grid table E and in the pair bounds stays below 1e-14; a Bob pair (or
# a row of pairs) whose bound is within this of the floor pair's exact total is kept.
_ROUNDING_MARGIN = 1e-12
# A term is read from the two grid angles that bracket its direction only when every
# other angle falls short of their maximum by more than this: twice the margin, one for
# the rounding of each of the two compared term values. A shorter term's pair is scanned.
_BRACKET_GAP = 2 * _ROUNDING_MARGIN
# Floats per temporary of one exact scan (128 KiB): small enough that a scan stays in
# a core's L2 cache when every pair is scanned, where k pairs at a time would not.
_SCAN_FLOATS = 2**14
_TERM_SIGNS = np.array([[-1.0], [1.0]])  # the a0 term is b0 - b1, the a1 term b0 + b1
_BRACKET = np.array([0, 1]).reshape(2, 1, 1)  # a term's two bracket angles: floor, floor + 1
_XY = np.array([1.0, 1.0j])  # _XY @ v = v[0] + i v[1]


def _scan_pairs(E: np.ndarray, pairs: np.ndarray):
    """Exact grid maxima of the a0 term E[i, b0] - E[i, b1] and the a1 term
    E[i, b0] + E[i, b1] over every Alice angle i, lowest i among ties, for the
    flat Bob pairs ``pairs`` (b0 · k + b1): their totals and both argmax angles.
    It scans E transposed, each Bob angle's column one row, ``_SCAN_FLOATS`` at a time."""
    columns = np.ascontiguousarray(E.T)
    k = columns.shape[0]
    total, i0, i1 = np.empty(pairs.size), np.empty_like(pairs), np.empty_like(pairs)
    chunk = max(1, _SCAN_FLOATS // k)
    for s in range(0, pairs.size, chunk):
        b0, b1 = np.divmod(pairs[s:s + chunk], k)
        col0, col1 = columns[b0], columns[b1]
        term0, term1 = col0 - col1, col0 + col1
        best0, best1 = term0.argmax(axis=1), term1.argmax(axis=1)
        rows = np.arange(b0.size)
        total[s:s + chunk] = term0[rows, best0] + term1[rows, best1]
        i0[s:s + chunk], i1[s:s + chunk] = best0, best1
    return total, i0, i1


def _bracket(E: np.ndarray, b0: np.ndarray, b1: np.ndarray, w: np.ndarray):
    """``_scan_pairs`` for the Bob pairs (b0, b1), bit for bit, from two Alice angles a term.

    The a0 term at Alice angle i is u_i · w[0], w[0] = T(u_b0 - u_b1), and the a1 term
    u_i · w[1], w[1] = T(u_b0 + u_b1), each w as x + iy. On the grid, u_i · w peaks at
    one of the two angles that bracket the direction of w, and every other angle is
    lower by at least |w| · 2 sin²(step/2). Both are evaluated with the E entries and
    float operations of the scan, the lower index winning a tie. The caller sends only
    pairs whose gap clears ``_BRACKET_GAP``."""
    k = E.shape[0]
    turns = (np.floor(np.angle(w) * (k / (2 * np.pi))).astype(np.intp) + _BRACKET) % k
    rows = turns * k  # (bracket, term, pair): the flat offsets of the two bracket angles
    values = E.take(rows + b0) + _TERM_SIGNS * E.take(rows + b1)
    upper = (values[1] > values[0]) | ((values[1] == values[0]) & (turns[1] == 0))
    best = np.where(upper, turns[1], turns[0])
    peak = values.max(axis=0)
    return peak[0] + peak[1], best[0], best[1]


def _pair_totals(E: np.ndarray, z: np.ndarray, pairs: np.ndarray, gap: float):
    """The grid maxima of ``_scan_pairs`` for the flat Bob ``pairs``, bit for bit: by
    ``_bracket`` for every pair whose two terms are long enough to read from their
    bracket angles, by the exact scan for the rest (a term that is 0 or rounding noise).
    ``z`` holds T u_j as x + iy for every grid angle j; ``gap`` is 2 sin²(step/2)."""
    k = E.shape[0]
    b0, b1 = np.divmod(pairs, k)
    w = z[b0] + _TERM_SIGNS * z[b1]  # (term, pair)
    short = np.abs(w).min(axis=0) * gap <= _BRACKET_GAP
    if not short.any():  # every pair of a noisy frame: no masks, no transposed copy of E
        return _bracket(E, b0, b1, w)
    total, best0, best1 = np.empty(pairs.size), np.empty_like(pairs), np.empty_like(pairs)
    sure = ~short
    total[sure], best0[sure], best1[sure] = _bracket(E, b0[sure], b1[sure], w[:, sure])
    total[short], best0[short], best1[short] = _scan_pairs(E, pairs[short])
    return total, best0, best1


# Bounded: ``sweep`` uses one step for every point, a run of requests a handful, and
# an entry at MIN_CHSH_STEP holds ~37 KB.
@functools.lru_cache(maxsize=8)
def _chsh_tables(step: float):
    """The parts of the CHSH search that depend only on the step, read-only:
    (angles, u, means, sin2, cos2). ``angles`` are the k = round(360 / step)
    grid angles n · step, all below 360°, and ``u`` holds their unit vectors;
    ``means`` those of the 2k - 1 mean angles μ = n · step / 2, then of μ + 90°,
    each n = b0 + b1. ``sin2[d]`` = 2|sin(Δ/2)| and ``cos2[d]`` = 2|cos(Δ/2)|,
    Δ = d · step, for the k differences d = |b0 - b1|."""
    k = round(360.0 / step)
    angles = np.arange(k) * step
    radians = np.deg2rad(angles)
    u = np.stack([np.cos(radians), np.sin(radians)])
    mean = np.arange(2 * k - 1) * (step / 2)
    turned = np.deg2rad(np.concatenate([mean, mean + 90.0]))
    means = np.stack([np.cos(turned), np.sin(turned)])
    half = np.deg2rad(np.arange(k) * (step / 2))  # Δ/2 for |b0 - b1| = 0 … k - 1
    return tuple(map(_read_only, (angles, u, means, 2 * np.abs(np.sin(half)),
                                  2 * np.abs(np.cos(half)))))


def _pair_bounds(a: np.ndarray, c: np.ndarray, sin2: np.ndarray, cos2: np.ndarray,
                 rows: np.ndarray):
    """Upper bounds of S = E(a0,b0) - E(a0,b1) + E(a1,b0) + E(a1,b1) over the Alice
    angles for the Bob pairs b0 = b1 + d of every difference d in ``rows``, as
    (b0, b1, bound); the pair (b1, b0) has the same bound. The a0 term is at most
    |T(u_b0 - u_b1)| = 2|sin(Δ/2)|·|T u_{μ+90°}| and the a1 term at most
    |T(u_b0 + u_b1)| = 2|cos(Δ/2)|·|T u_μ|, with μ = (b0 + b1)/2 and Δ = b0 - b1
    (Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995)): ``a`` = |T u_μ|
    and ``c`` = |T u_{μ+90°}| are read by the mean index b0 + b1, the tables by d."""
    counts = sin2.size - rows
    d = np.repeat(rows, counts)
    b1 = np.arange(d.size) - np.repeat(np.cumsum(counts) - counts, counts)
    n = 2 * b1 + d
    return b1 + d, b1, sin2[d] * c[n] + cos2[d] * a[n]


def _survivors(E: np.ndarray, T: np.ndarray, means: np.ndarray, sin2: np.ndarray,
               cos2: np.ndarray) -> np.ndarray:
    """The flat Bob pairs (b0 · k + b1), sorted, whose bound reaches the floor: the
    exact total of the best-bound pair in the row of the best row bound, less
    ``_ROUNDING_MARGIN``. Pair bounds are formed only on the rows whose row bound
    reaches the floor."""
    k = sin2.size
    a, c = np.hypot(*(T @ means)).reshape(2, -1)  # |T u_μ|, |T u_{μ+90°}|
    row_bounds = sin2 * c.max() + cos2 * a.max()
    b0, b1, bound = _pair_bounds(a, c, sin2, cos2, np.argmax(row_bounds, keepdims=True))
    j = np.argmax(bound)
    col0, col1 = E[:, b0[j]], E[:, b1[j]]  # the exact scan of the best-bound pair
    floor = (col0 - col1).max() + (col0 + col1).max() - _ROUNDING_MARGIN
    b0, b1, bound = _pair_bounds(a, c, sin2, cos2, np.flatnonzero(row_bounds >= floor))
    keep = bound >= floor
    b0, b1 = b0[keep], b1[keep]
    return np.sort(np.concatenate([b0 * k + b1, (b1 * k + b0)[b0 > b1]]))


def chsh_optimize(rho: DensityOperator, grid_step_deg: float) -> ChshResult:
    """Maximize the CHSH functional of a two-qubit frame over a uniform four-angle grid.

    For each Bob pair (b0, b1) the a0 and a1 terms are maximized over all k
    Alice angles n · step on their own, k = round(360 / step), and the pair
    with the highest total wins, the lowest index among ties at each stage.
    This gives the same angles and value, bit for bit, as scanning every pair,
    in about O(k) work when the bounds are tight:
    - Row bounds. Every pair with |b0 - b1| = d has a bound (``_pair_bounds``)
      of at most sin2[d] · max(c) + cos2[d] · max(a), since float products and
      sums round monotonically.
    - Survivors. The best-bound pair of the best row is scanned exactly; its
      total less ``_ROUNDING_MARGIN`` is the floor. Pair bounds are formed only
      on the rows whose row bound reaches the floor, and the pairs whose bound
      reaches it survive, in flat order. Each pair tied with the brute-force
      winner survives: its bound is at least the maximum total less the margin.
    - Alice angles. Each survivor's two terms are read from the two grid angles
      that bracket their directions (``_pair_totals``); a pair with a term too
      short for that is scanned over all k angles.
    On ``noisy:v``, v > 0, 2-6 rows of pairs survive and none is scanned. When T
    is about 0 every bound is about 0, so every pair survives, and no term is long
    enough to bracket, so every pair is scanned: k³ time, in O(k²) memory.
    """
    check_chsh_step(grid_step_deg)
    T = _correlations(_frame_matrix(rho))[:2, :2]
    step = float(grid_step_deg)
    angles, u, means, sin2, cos2 = _chsh_tables(step)
    k = angles.size
    E = u.T @ T @ u  # E[i, j] = E(angle_i, angle_j)

    z = _XY @ T @ u  # T u_j as x + iy
    gap = 2 * math.sin(math.radians(step) / 2) ** 2  # a term's bracket gap per unit |w|
    pairs = _survivors(E, T, means, sin2, cos2)
    total, best0_idx, best1_idx = _pair_totals(E, z, pairs, gap)
    best = int(np.argmax(total))
    i_b0, i_b1 = divmod(int(pairs[best]), k)
    a0, a1 = float(angles[best0_idx[best]]), float(angles[best1_idx[best]])
    return _chsh_at(T, a0, a1, float(angles[i_b0]), float(angles[i_b1]))


def compute_assemblage(rho: DensityOperator, alice_settings) -> Assemblage:
    """Conditional Bob states sigma(a|x) = Tr_A[(Pi_a^x ⊗ I) rho] of a two-qubit frame.

    Each member carries trace p(a|x); summing members over outcomes gives
    Bob's unconditional marginal for every setting (no signaling).
    """
    settings = tuple(alice_settings)
    # sigma[x, o, b, d] = sum over a, c of Pi[x, o, a, c] rho[(c, b), (a, d)]
    sigma = np.einsum("xoac,cbad->xobd", _PROJECTORS, _frame_matrix(rho).reshape(2, 2, 2, 2))
    return Assemblage(settings, {(x, outcome): sigma[i, o]
                                 for x, i in zip(settings, _axis_positions(settings))
                                 for o, outcome in enumerate((+1, -1))})


def _state_rows(bloch: np.ndarray) -> np.ndarray:
    """The full program's 4 rows of each Bloch state, (n, 3) -> (n, 4), in closed form:
    ½(1 + nz, 1 - nz, nx, -ny), the entries ``_full_target`` reads of a member."""
    nx, ny, nz = bloch.T
    return 0.5 * np.column_stack([1.0 + nz, 1.0 - nz, nx, -ny])


def _full_target(assemblage: Assemblage) -> np.ndarray:
    """The full program's b, (setting, outcome, 4): the real diagonal of every member,
    then the real and imaginary parts of its upper off-diagonal entry."""
    sigma = np.array([[assemblage.members[(x, a)] for a in (+1, -1)] for x in assemblage.settings])
    # As floats a member reads re, im of its entries 00, 01, 10 and 11 in turn.
    return sigma.reshape(len(assemblage.settings), 2, 4).view(float)[..., [0, 6, 2, 3]]


# Both LHS paths drop a certificate weight at or below this; the exact path refuses one
# below its negative.
_WEIGHT_FLOOR = 1e-12


def _certificate_residual(certificate, target: np.ndarray) -> float:
    """max |A_full x - b_full| of an LHS certificate over all 8m rows of the full program,
    ``target`` being b_full (``_full_target``): each (strategy, bloch, weight) entry adds its
    weighted state rows (``_state_rows``) to sigma(a|x) for the outcome a its strategy gives
    each setting x. In Python floats, summed in certificate order: at a few dozen entries
    that is cheaper than numpy's per-call cost."""
    rebuilt = [(0.0, 0.0, 0.0, 0.0)] * (2 * len(target))  # [2x + a], a = 0 for +1
    for strategy, (nx, ny, nz), weight in certificate:
        r0, r1, r2, r3 = (weight * (0.5 * (1.0 + nz)), weight * (0.5 * (1.0 - nz)),
                          weight * (0.5 * nx), weight * (0.5 * -ny))
        for x, answer in enumerate(strategy):
            k = 2 * x + (answer != +1)
            s0, s1, s2, s3 = rebuilt[k]
            rebuilt[k] = (s0 + r0, s1 + r1, s2 + r2, s3 + r3)
    return float(max(abs(r - t) for r, t in zip(chain.from_iterable(rebuilt),
                                                 target.ravel().tolist())))


def _solved_target(target: np.ndarray) -> np.ndarray:
    """The program's b from the full one: Bob's marginal from the first setting, then
    sigma(+1|x) for each setting, 4 real components each (4m + 4 rows)."""
    return np.concatenate([target[0].sum(axis=0), target[:, 0].ravel()])


@functools.lru_cache(maxsize=4)
def _strategies(m: int):
    """The deterministic strategies of m settings and the program's left factor, read-only:
    (strategies, solved). The full program has rows (setting, outcome, component); in
    every column the rows of sigma(+1|x) and sigma(-1|x) sum to the column's state, so
    only Bob's marginal and sigma(+1|x) per setting are solved, 4m + 4 rows of full rank:
    ``solved[r, s]`` is 1 where strategy s puts its state in row group r."""
    strategies = tuple(product((+1, -1), repeat=m))
    return strategies, _read_only(np.vstack([np.ones(len(strategies)),
                                             np.array(strategies).T == +1]))


# The exact two-setting path of ``lhs_feasibility``. There a Hermitian 2x2 matrix is a
# Bloch form (h0, h) of Python floats, h0·I + h·σ with h = (hx, hy, hz).
#
# A margin within _MARGIN_TOL of 0 is left to column generation. Measured rounding of the
# float margin: within 3.6e-15 of the exact 2v² - 1 of noisy(v), Z,X, at 2001
# visibilities from 0 to 1, each under 51 unitaries at Bob; with Z,X, X,Y and Y,Z,
# within 4.7e-13 of a 50-digit recomputation on 400 random frames of rank 1-4, and
# within 7.9e-12 and 1.5e-10 on 100 frames each whose Bob marginal has eigenvalue ratio
# 1e-4 and 1e-6. noisy(1/√2 ± 1e-6) reads ±2.8e-6.
_MARGIN_TOL = 1e-9
# Bob's marginal is of full rank when its lower eigenvalue is at least this share of
# its upper one; the margin's rounding grows as the inverse of that share (above).
_FULL_RANK = 1e-6
# |e × f| at or below this: the two effects commute and their product is a parent.
_COMMUTE_TOL = 1e-12
# An exact certificate must rebuild the full program's 8 rows within this.
_EXACT_RESIDUAL = 1e-9
# The parent search: up to _SEARCH_ROUNDS stencils of 9 × 9 points over span{e, f},
# each half the width of the last and centred on its best point.
_SEARCH_ROUNDS = 48
_STENCIL = _read_only(np.stack(np.meshgrid(np.linspace(-1.0, 1.0, 9),
                                            np.linspace(-1.0, 1.0, 9)), axis=-1).reshape(-1, 2))


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _bloch_form(mat: np.ndarray):
    """(h0, (hx, hy, hz)) of a Hermitian 2x2 matrix, from its real diagonal and upper entry."""
    a, b, _, d = mat.ravel().tolist()
    return (a.real + d.real) / 2, (b.real, -b.imag, (a.real - d.real) / 2)


def _sandwich(s, m):
    """S M S of two Bloch forms: (s0² + |s|²) m0 + 2 s0 (s·m) and
    2 s0 m0 s + (s0² - |s|²) m + 2 (s·m) s."""
    (s0, sv), (m0, mv) = s, m
    dot, square, length = _dot(sv, mv), s0 * s0, _dot(sv, sv)
    return ((square + length) * m0 + 2 * s0 * dot,
            tuple(2 * s0 * m0 * si + (square - length) * mi + 2 * dot * si
                  for si, mi in zip(sv, mv)))


def _spectrum(rho):
    """(lower eigenvalue, upper eigenvalue, unit axis) of a Bloch form; the axis is 0
    when the two are equal."""
    r0, rv = rho
    radius = math.sqrt(_dot(rv, rv))
    axis = tuple(x / radius for x in rv) if radius > 0 else (0.0, 0.0, 0.0)
    return r0 - radius, r0 + radius, axis


def _power(rho, p: float):
    """ρ^p of a positive definite Bloch form:
    (l₊^p + l₋^p)/2 · I + (l₊^p - l₋^p)/2 · axis·σ."""
    low, high, axis = _spectrum(rho)
    half = (high**p - low**p) / 2
    return (high**p + low**p) / 2, tuple(half * x for x in axis)


def _full_rank(low: float, high: float) -> bool:
    return high > 0 and low >= _FULL_RANK * high


def _steering_effects(assemblage: Assemblage, rho):
    """Bob's steering-equivalent effects B(+1|x) = ρ_B^(-1/2) σ(+1|x) ρ_B^(-1/2), one
    Bloch form per setting (Uola, Budroni, Gühne & Pellonpää, PRL 115, 230402 (2015))."""
    root = _power(rho, -0.5)
    return [_sandwich(root, _bloch_form(assemblage.members[(x, +1)]))
            for x in assemblage.settings]


def _unsharpness(alpha: float, length: float) -> float:
    """F(α, a) = ½[√((1+α)² - |a|²) + √((1-α)² - |a|²)] of the effect
    ½[(1+α)I + a·σ], with ``length`` = |a|²; 0 for a sharp unbiased one."""
    return (math.sqrt(max(0.0, (1 + alpha) ** 2 - length))
            + math.sqrt(max(0.0, (1 - alpha) ** 2 - length))) / 2


def _yu_margin(e, f) -> float:
    """(1 - F₁² - F₂²)(1 - α²/F₁² - β²/F₂²) - (a·b - αβ)² for the effects
    e = ½[(1+α)I + a·σ] and f = ½[(1+β)I + b·σ]: the pair is jointly measurable
    exactly when this is ≤ 0 (Yu, Liu, Li & Oh, PRA 81, 062116 (2010)). α²/F² ≤ |α|
    is taken as 0 at F = 0, where α = 0; there the margin is |a × b|², so a sharp
    unbiased effect is jointly measurable exactly with the effects it commutes with."""
    (e0, ev), (f0, fv) = e, f
    alpha, beta = 2 * e0 - 1, 2 * f0 - 1
    f1, f2 = _unsharpness(alpha, 4 * _dot(ev, ev)), _unsharpness(beta, 4 * _dot(fv, fv))
    bias = ((alpha * alpha / (f1 * f1) if f1 > 0 else 0.0)
            + (beta * beta / (f2 * f2) if f2 > 0 else 0.0))
    return (1 - f1 * f1 - f2 * f2) * (1 - bias) - (4 * _dot(ev, fv) - alpha * beta) ** 2


def joint_measurability_margin(assemblage: Assemblage) -> float:
    """The Yu-Liu-Li-Oh margin of Bob's two steering-equivalent effects: a two-setting
    assemblage whose Bob marginal has full rank is unsteerable exactly when it is ≤ 0.
    It reads the members alone, and replays a steerable verdict of ``lhs_feasibility``,
    whose ``residual`` it is. ``ValueError`` for other than two settings or a Bob
    marginal that is not of full rank."""
    if len(assemblage.settings) != 2:
        raise ValueError(f"the margin needs two settings, got {assemblage.settings}")
    rho = _bloch_form(assemblage.bob_marginal(assemblage.settings[0]))
    if not _full_rank(*_spectrum(rho)[:2]):
        raise ValueError("Bob's marginal is not of full rank")
    return _yu_margin(*_steering_effects(assemblage, rho))


def _parent_slack(e0: float, f0: float, g, e_g, f_g, ef_g):
    """For G(+,+) = g0·I + g·σ, given |g|, |e - g|, |f - g| and |e + f - g| (floats or
    arrays): the largest least eigenvalue of the four parent effects G(+,+), e - G(+,+),
    f - G(+,+) and I - e - f + G(+,+) over g0, and the g0 that reaches it. Concave in g."""
    lower = np.maximum(g, e0 + f0 - 1 + ef_g)
    upper = np.minimum(e0 - e_g, f0 - f_g)
    return (upper - lower) / 2, (upper + lower) / 2


def _parent_search(e, f):
    """G(+,+) of a parent POVM of the non-commuting effects e and f, as a Bloch form, whose
    four effects all have a positive least eigenvalue; None if none is found. The
    parallelogram centre g = (e + f)/2 comes first: it is the optimum when e0 = f0 = ½.
    Then a shrinking stencil over span{e, f}, which holds an optimum, since the slack is
    concave and symmetric under reflection in that plane."""
    (e0, ev), (f0, fv) = e, f
    centre = tuple((x + y) / 2 for x, y in zip(ev, fv))
    half_diff = tuple((x - y) / 2 for x, y in zip(ev, fv))
    to_sum, to_diff = math.sqrt(_dot(centre, centre)), math.sqrt(_dot(half_diff, half_diff))
    slack, g0 = _parent_slack(e0, f0, to_sum, to_diff, to_diff, to_sum)
    if slack > 0:
        return float(g0), centre
    ev, fv = np.array(ev), np.array(fv)
    u1 = ev / math.sqrt(ev @ ev)
    u2 = fv - (fv @ u1) * u1
    basis = np.stack([u1, u2 / math.sqrt(u2 @ u2)])
    best, radius = basis @ centre, 2.0
    for _ in range(_SEARCH_ROUNDS):
        points = best + radius * _STENCIL
        g = points @ basis
        norms = np.linalg.norm([g, ev - g, fv - g, ev + fv - g], axis=-1)
        slack, g0 = _parent_slack(e0, f0, *norms)
        i = int(np.argmax(slack))
        if slack[i] > 0:
            return float(g0[i]), tuple(g[i].tolist())
        best, radius = points[i], radius / 2
    return None


def _exact_two_setting(assemblage: Assemblage) -> SteeringVerdict | None:
    """The verdict of a two-setting assemblage from joint measurability, or None to leave
    it to column generation. A full-rank Bob marginal gives the effects e and f:
    a margin above _MARGIN_TOL is steering, and a parent G(+,+) (the symmetrised product
    of a commuting pair, else ``_parent_search`` below -_MARGIN_TOL) gives the hidden
    states ρ_B^(1/2) G(a,b) ρ_B^(1/2). A rank-one marginal gives one hidden state, itself,
    weighted p(a|x0) p(b|x1). A certificate counts only if it rebuilds all 8 rows within
    _EXACT_RESIDUAL."""
    rho = _bloch_form(assemblage.bob_marginal(assemblage.settings[0]))
    low, high, axis = _spectrum(rho)
    if _full_rank(low, high):
        e, f = _steering_effects(assemblage, rho)
        (e0, ev), (f0, fv) = e, f
        cross = (ev[1] * fv[2] - ev[2] * fv[1], ev[2] * fv[0] - ev[0] * fv[2],
                 ev[0] * fv[1] - ev[1] * fv[0])
        if math.sqrt(_dot(cross, cross)) <= _COMMUTE_TOL:
            g0, g = e0 * f0 + _dot(ev, fv), tuple(e0 * y + f0 * x for x, y in zip(ev, fv))
        else:
            margin = _yu_margin(e, f)
            if margin > _MARGIN_TOL:
                return SteeringVerdict("NoLHSFoundAtResolution", margin, None, 0)
            parent = _parent_search(e, f) if margin < -_MARGIN_TOL else None
            if parent is None:
                return None
            g0, g = parent
        root = _power(rho, 0.5)
        hidden = [_sandwich(root, effect) for effect in (
            (g0, g),
            (e0 - g0, tuple(x - y for x, y in zip(ev, g))),
            (f0 - g0, tuple(x - y for x, y in zip(fv, g))),
            (1 - e0 - f0 + g0, tuple(z - x - y for x, y, z in zip(ev, fv, g))))]
        entries = [(2 * t0, tuple(x / t0 for x in t) if t0 > 0 else t) for t0, t in hidden]
    elif high > 0:
        p = [[np.trace(assemblage.members[(x, a)]).real for a in (+1, -1)]
             for x in assemblage.settings]
        entries = [(p[0][i] * p[1][j] / (2 * rho[0]), axis) for i in (0, 1) for j in (0, 1)]
    else:
        return None
    certificate = []
    for strategy, (weight, bloch) in zip(_strategies(2)[0], entries):
        if weight < -_WEIGHT_FLOOR:
            return None
        if weight <= _WEIGHT_FLOOR:
            continue
        length = math.sqrt(_dot(bloch, bloch))
        if length > 1 + 1e-9:
            return None
        certificate.append((strategy, tuple(x / max(length, 1.0) for x in bloch), weight))
    residual = _certificate_residual(certificate, _full_target(assemblage))
    if residual > _EXACT_RESIDUAL:
        return None
    return SteeringVerdict("UnsteerableCertified", residual, tuple(certificate), 0)


def lhs_feasibility(assemblage: Assemblage, grid_n: int) -> SteeringVerdict:
    """Decide whether the assemblage has a local-hidden-state model.

    Two settings go first through an exact path (``_exact_two_setting``): a model of at
    most four hidden states, built from a parent POVM of Bob's steering-equivalent
    effects, certifies the assemblage unsteerable; a joint-measurability margin
    (``joint_measurability_margin``) above ``_MARGIN_TOL`` proves that no model exists at
    any resolution, and ``pivots`` is 0. Everything else goes to column generation over
    the whole Bloch sphere (``_column_generation``), which reads the assemblage's linear
    steering witness before any solve: one, three or four settings, and
    the two-setting cases the exact path leaves open (a margin within ``_MARGIN_TOL`` of
    0, a parent it does not find, a certificate that does not rebuild the assemblage,
    such as the one-state certificate of a Bob marginal just below ``_FULL_RANK``).
    ``grid_n`` is not read, since no resolution is left to choose. It stays because
    ``steer`` and ``sweep`` pass --grid through it and ``perfbench/tracer.py`` keys each
    traced call on it.
    """
    m = len(assemblage.settings)
    if m > 4:
        raise TooManySettings(f"at most 4 settings supported, got {m}")
    verdict = _exact_two_setting(assemblage) if m == 2 else None
    if verdict is None:
        verdict = _column_generation(assemblage)
    return verdict


# A program certificate must rebuild the full program's 8m rows below this.
_PROGRAM_RESIDUAL = 1e-7


def _program_verdict(x: np.ndarray, strategies, states: np.ndarray, target: np.ndarray,
                     pivots: int) -> SteeringVerdict:
    """The verdict of a feasible program over the Bloch ``states``, from its solution x
    (columns strategy-major, state index fastest): certified if the certificate of its
    weights above ``_WEIGHT_FLOOR`` rebuilds all 8m rows of ``target`` below
    ``_PROGRAM_RESIDUAL``, else not found with that residual (an assemblage that signals)."""
    certificate = []
    for idx in np.flatnonzero(x > _WEIGHT_FLOOR).tolist():
        s_idx, g_idx = divmod(idx, len(states))
        certificate.append((strategies[s_idx], tuple(states[g_idx].tolist()), float(x[idx])))
    residual = _certificate_residual(certificate, target)
    if residual < _PROGRAM_RESIDUAL:
        return SteeringVerdict("UnsteerableCertified", residual, tuple(certificate), pivots)
    return SteeringVerdict("NoLHSFoundAtResolution", residual, None, pivots)


# Column generation (Gilmore & Gomory, Oper. Res. 9, 849 (1961)) starts from these six
# states for every strategy.
_AXIS_STATES = _read_only(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                    [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
# A strategy whose best state would price above this adds that state.
_PRICE_TOL = 1e-10
# A witness margin must exceed this. Measured rounding of the float margin against a
# 50-digit recomputation from the same duals: at most 4.6e-16 on 400 random frames of
# rank 1-4 (rng 7) with Z,X,Y and with a fourth setting along (1, 1, 1)/√3, and 1.2e-16
# on noisy(v), Z,X,Y, v = 0.3 … 1 by 0.005. 1e-9, as for the two-setting margin, is over
# 10⁶ times that, and below noisy(1/√3 + 1e-6), which reads 7.5e-7.
_WITNESS_TOL = 1e-9
# Rounds (solves) of column generation before the verdict is left open. Measured: at most
# 11 rounds on the Z,X,Y frames above, 3 on 40 of them (rng 26) with the fourth setting,
# 5 on hardy:q,r over θ = 0.2 … 1.3 in every order of Z,X,Y, 1 on noisy(v), v = 0.3 … 1;
# every one of them was decided. Two settings reach it only when the exact path leaves
# them open. The band: noisy(1/√2 + δ), δ = 0, ±1e-10, under 60 random local unitaries at
# Bob each, with Z,X, X,Y and Z,Y, were all certified in one round (median 25 pivots, at
# most 53, 0.74 ms median). Bob marginals near rank one are left open more often: of 778
# two-setting leftovers of eigenvalue ratio at most 1e-6 (cos t|00⟩ + sin t|11⟩ under
# local unitaries, 400 frames, and hardy:q,r with r = 1e-5 … 0.05, 60 points, each with
# X,Y and Z,X), 69 reach the cap (at 60 rounds 22 of those would be certified), and the
# slowest takes 0.45 s.
_MAX_ROUNDS = 40


def _witness_bounds(y: np.ndarray, b: np.ndarray, solved: np.ndarray):
    """The whole-sphere reading of a vector y over the program's rows, a round's duals or the
    linear witness: (margin, beta, length, top).

    Column (s, n) of the program prices at y·col = α_s + β_s·n, with W = solvedᵀY (Y the
    entries of y on the (row group, component) grid), α_s = ½(W₀ + W₁) and
    β_s = ½(W₂, −W₃, W₀ − W₁); over the Bloch sphere strategy s peaks at
    top_s = α_s + |β_s|, on n = β_s/|β_s|. An LHS model spreads weight tr ρ_B = b₀ + b₁
    over pure states, so it gives y·b ≤ tr ρ_B · max_s top_s: a positive
    margin y·b − tr ρ_B · max_s top_s proves that none exists (Cavalcanti & Skrzypczyk,
    Rep. Prog. Phys. 80, 024001 (2017))."""
    w = solved.T @ y.reshape(-1, 4)
    beta = 0.5 * np.column_stack([w[:, 2], -w[:, 3], w[:, 0] - w[:, 1]])
    length = np.sqrt((beta * beta).sum(axis=1))
    top = 0.5 * (w[:, 0] + w[:, 1]) + length
    return float(y @ b - (b[0] + b[1]) * top.max()), beta, length, top


def _linear_witness(target: np.ndarray) -> np.ndarray:
    """The linear steering witness of an assemblage as y over the program's rows (Cavalcanti,
    Jones, Wiseman & Reid, PRA 80, 032112 (2009)): Bob measures setting x along b_x, the
    unit Bloch direction of σ(+1|x) − σ(−1|x) (0 where that vanishes). A row group prices
    a member as Tr(F·member) with F = b·σ through v(b) = (b_z, −b_z, 2b_x, −2b_y), the
    components ``_full_target`` reads; Y₀ = −Σ_x v(b_x) on Bob's marginal and
    Y_x = 2·v(b_x) on σ(+1|x), so y·b = Σ_x |r_x| on a no-signalling assemblage, r_x the
    Bloch vector of σ(+1|x) − σ(−1|x), and strategy s peaks at |Σ_x s_x b_x|."""
    d0, d1, re, im = (target[:, 0] - target[:, 1]).T
    bloch = np.column_stack([re, -im, 0.5 * (d0 - d1)])
    length = np.sqrt((bloch * bloch).sum(axis=1))
    bx, by, bz = (bloch / np.where(length > 0, length, 1.0)[:, None]).T
    v = np.column_stack([bz, -bz, 2 * bx, -2 * by])
    return np.concatenate([-v.sum(axis=0), 2 * v.ravel()]) + 0.0  # no -0.0 in a written y


def _distinct(states: np.ndarray):
    """(states, their ``_state_rows``) with each program column once: of the states whose
    rows are identical, such as Bloch vectors that differ only in their last bits, the
    first is kept."""
    rows = _state_rows(states)
    first: dict = {}
    for i, row in enumerate(map(tuple, rows.tolist())):
        first.setdefault(row, i)
    keep = list(first.values())
    return states[keep], rows[keep]


def _best_states(beta: np.ndarray, length: np.ndarray, top: np.ndarray) -> np.ndarray:
    """The best Bloch state β_s/|β_s| of every strategy s that prices above ``_PRICE_TOL``
    under ``_witness_bounds``, in strategy order."""
    grow = (top > _PRICE_TOL) & (length > 0)
    return beta[grow] / length[grow, None]


def _column_generation(assemblage: Assemblage) -> SteeringVerdict:
    """Decide an LHS program of any setting count over the whole Bloch sphere.

    A witness is a vector y over the program's 4m + 4 rows, read over the whole sphere in
    closed form (``_witness_bounds``): a margin above ``_WITNESS_TOL`` proves steering,
    reported as ``NoLHSFoundAtResolution`` with the margin as ``residual`` and y as
    ``witness`` (``replay_witness``). The first y is the assemblage's own linear witness
    (``_linear_witness``); its proof needs no solve, and ``pivots`` is 0. Else the program
    starts with the six axis states (``_AXIS_STATES``) for every strategy, joined by that
    witness's best states (``_best_states``) when Bob's marginal is of full rank under
    the exact path's rule (``_full_rank``). A feasible round gives a certificate under
    ``_program_verdict``'s rule. Otherwise its phase-1 duals are the next y: a witness, or
    the best state of every strategy that prices above ``_PRICE_TOL`` joins the program,
    which is solved again. Each pool joins once per program column (``_distinct``).
    After ``_MAX_ROUNDS`` rounds, or a round that adds no state, the verdict is left open:
    ``NoLHSFoundAtResolution`` with the last phase-1 optimum and no witness. ``pivots``
    sums the rounds. A round whose warm start breaks the solver down is solved again
    from the artificial basis.
    """
    strategies, solved = _strategies(len(assemblage.settings))
    target = _full_target(assemblage)
    b = _solved_target(target)
    y = _linear_witness(target)
    margin, beta, length, top = _witness_bounds(y, b, solved)
    if margin > _WITNESS_TOL:
        return SteeringVerdict("NoLHSFoundAtResolution", margin, None, 0, tuple(y.tolist()))
    states = _AXIS_STATES
    if _full_rank(*_spectrum(_bloch_form(assemblage.bob_marginal(assemblage.settings[0])))[:2]):
        # A setting along an axis has its best state among the axis states: it joins once.
        states = np.vstack([states, _best_states(beta, length, top)])
    states, rows = _distinct(states)
    pivots, start = 0, None
    for _ in range(_MAX_ROUNDS):
        # Column (s, g) holds state g's rows in strategy s's row groups:
        # A[(r, c), (s, g)] = solved[r, s] · rows[g, c].
        A = np.einsum("rs,gc->rcsg", solved, rows).reshape(len(b), -1)
        try:
            result = solve_feasibility(A, b, start)
        except SolverBreakdown:
            # A warm start can stall on the degenerate programs of a Bob marginal near
            # rank one, where the states crowd round one point; the round is solved again
            # from the artificial basis, and a breakdown there is raised.
            if start is None:
                raise
            result = solve_feasibility(A, b)
        pivots += result.iterations
        if result.feasible:
            return _program_verdict(result.x, strategies, states, target, pivots)
        margin, beta, length, top = _witness_bounds(result.duals, b, solved)
        if margin > _WITNESS_TOL:
            return SteeringVerdict("NoLHSFoundAtResolution", margin, None, pivots,
                                   tuple(result.duals.tolist()))
        # Strategies may share a best state (near-pure Bob marginals), and one may be in
        # the program already: each joins once, and the states in it keep their places.
        grown, grown_rows = _distinct(np.vstack([states, _best_states(beta, length, top)]))
        if len(grown) == len(states):
            break
        # The last basis, renumbered for the grown program, starts the next round: its
        # columns and b are unchanged, so it is still feasible. An artificial (past the
        # last strategy) shifts by the new columns.
        strategy, state = np.divmod(result.basis, len(states))
        start = np.where(strategy < len(strategies), strategy * len(grown) + state,
                         result.basis + len(strategies) * (len(grown) - len(states)))
        states, rows = grown, grown_rows
    return SteeringVerdict("NoLHSFoundAtResolution", result.objective, None, pivots)


def replay_certificate(verdict: SteeringVerdict, assemblage: Assemblage) -> float:
    """max |A_full x - b_full| of an LHS certificate over all 8m rows: exactly the ``residual``
    of a certified verdict. ``ValueError`` unless every entry has m outcomes, each ±1, for
    the m settings, and is a state: weight ≥ 0, 3 Bloch components, length ≤ 1 + 1e-12."""
    if verdict.certificate is None:
        raise ValueError("verdict carries no certificate")
    m = len(assemblage.settings)
    for strategy, bloch, weight in verdict.certificate:
        if len(strategy) != m or not all(a in (+1, -1) for a in strategy):
            raise ValueError(f"certificate entry {strategy} is not a strategy: need {m} "
                             f"outcomes, each ±1")
        if not weight >= 0 or len(bloch) != 3 or not math.hypot(*bloch) <= 1 + 1e-12:
            raise ValueError(f"certificate entry {strategy} is not a state: weight {weight!r}, "
                             f"Bloch vector {bloch!r}")
    return _certificate_residual(verdict.certificate, _full_target(assemblage))


def replay_witness(verdict: SteeringVerdict, assemblage: Assemblage) -> float:
    """The steering-witness margin of a verdict, from its ``witness`` y and the members
    alone: y·b − tr ρ_B · max over strategies and Bloch states of y·col, exactly the
    ``residual`` of a witnessed verdict. ``ValueError`` unless y has one finite entry per
    program row (4m + 4) and the margin exceeds ``_WITNESS_TOL``."""
    if verdict.witness is None:
        raise ValueError("verdict carries no witness")
    m = len(assemblage.settings)
    y = np.array(verdict.witness, dtype=float)
    if y.shape != (4 * m + 4,) or not np.isfinite(y).all():
        raise ValueError(f"witness {verdict.witness!r} is not {4 * m + 4} finite duals")
    margin = _witness_bounds(y, _solved_target(_full_target(assemblage)), _strategies(m)[1])[0]
    if not margin > _WITNESS_TOL:
        raise ValueError(f"witness margin {margin!r} is not above {_WITNESS_TOL}")
    return margin
